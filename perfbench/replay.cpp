#include "replay.hpp"

#include <algorithm>

#include "analysis/buffer.hpp"
#include "analysis/incremental.hpp"
#include "mapping/schedule.hpp"
#include "mapping/workload.hpp"

namespace perfbench {

using mamps::Rational;
using mamps::mapping::AppAnalysisCache;
using mamps::mapping::ChannelRoute;
using mamps::mapping::Mapping;
using mamps::mapping::MappingOptions;
using mamps::mapping::MappingResult;
using mamps::platform::ResourceBudget;
using mamps::platform::TileId;
using mamps::sdf::ActorId;
using mamps::sdf::ChannelId;

namespace {

void assignBuffers(const mamps::sdf::Graph& g, std::uint32_t scale, Mapping& mapping) {
  mapping.localCapacityTokens.assign(g.channelCount(), 0);
  mapping.srcBufferTokens.assign(g.channelCount(), 0);
  mapping.dstBufferTokens.assign(g.channelCount(), 0);
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const mamps::sdf::Channel& channel = g.channel(c);
    if (channel.isSelfEdge()) {
      continue;
    }
    if (mapping.channelRoutes[c].interTile) {
      mapping.srcBufferTokens[c] =
          (std::uint64_t{channel.prodRate} + channel.initialTokens) * scale;
      mapping.dstBufferTokens[c] = std::uint64_t{channel.consRate} * scale;
    } else {
      mapping.localCapacityTokens[c] = mamps::analysis::capacityLowerBound(channel) * scale;
    }
  }
}

void growBuffers(const mamps::sdf::Graph& g, Mapping& mapping) {
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    if (g.channel(c).isSelfEdge()) {
      continue;
    }
    if (mapping.channelRoutes[c].interTile) {
      mapping.srcBufferTokens[c] *= 2;
      mapping.dstBufferTokens[c] *= 2;
    } else {
      mapping.localCapacityTokens[c] *= 2;
    }
  }
}

void patchCapacityTokens(const mamps::sdf::Graph& g, const Mapping& mapping,
                         mamps::mapping::BindingAwareModel& model,
                         mamps::analysis::IncrementalThroughput& context) {
  const auto apply = [&](ChannelId id, std::uint64_t tokens) {
    if (id != mamps::sdf::kInvalidChannel) {
      model.graph.graph.setInitialTokens(id, tokens);
      context.setInitialTokens(id, tokens);
    }
  };
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const mamps::sdf::Channel& channel = g.channel(c);
    if (channel.isSelfEdge()) {
      continue;
    }
    const mamps::mapping::CapacityEdgeIds& ids = model.capacityEdges[c];
    if (mapping.channelRoutes[c].interTile) {
      apply(ids.alphaSrc, mapping.srcBufferTokens[c] - channel.initialTokens);
      apply(ids.alphaDst, mapping.dstBufferTokens[c]);
    } else {
      apply(ids.localSpace, mapping.localCapacityTokens[c] - channel.initialTokens);
    }
  }
}

mamps::analysis::ThroughputResult timedCompute(mamps::analysis::IncrementalThroughput& context,
                                               Tracer& tracer, std::uint64_t request) {
  mamps::analysis::ThroughputResult result;
  {
    Tracer::Scope span(tracer, "analysis.compute", request);
    result = context.compute();
  }
  tracer.count("analysis.collapse_ns", request, static_cast<double>(result.expansionNanos));
  tracer.count("analysis.solve_ns", request, static_cast<double>(result.solveNanos));
  tracer.count("analysis.computes", request, 1.0);
  return result;
}

}  // namespace

std::optional<MappingResult> replayMapOntoBudget(const AppAnalysisCache& cache,
                                                 const mamps::platform::Architecture& arch,
                                                 const MappingOptions& options,
                                                 ResourceBudget& budget, std::uint32_t client,
                                                 Tracer& tracer, std::uint64_t request,
                                                 const ReplayPerturbation& perturbation) {
  if (!options.incrementalAnalysis) {
    throw mamps::Error("replayMapOntoBudget: only the incremental analysis path is replayed");
  }
  Tracer::Scope whole(tracer, "mapping.replay", request);
  const mamps::sdf::ApplicationModel& app = *cache.app;
  const mamps::sdf::Graph& g = app.graph();
  if (!cache.consistent || !cache.deadlockFree) {
    return std::nullopt;
  }
  ResourceBudget work = budget;

  std::optional<mamps::mapping::BindingResult> binding;
  {
    Tracer::Scope span(tracer, "mapping.bind", request);
    binding = mamps::mapping::bindActors(app, options, work, client);
  }
  if (!binding) {
    return std::nullopt;
  }
  std::optional<std::vector<std::vector<ActorId>>> schedules;
  {
    Tracer::Scope span(tracer, "mapping.schedule", request);
    schedules = mamps::mapping::buildStaticOrderSchedules(app, arch, binding->actorToTile);
  }
  if (!schedules) {
    return std::nullopt;
  }

  MappingResult result;
  result.mapping.actorToTile = binding->actorToTile;
  result.mapping.schedules = *schedules;
  result.mapping.serialization = options.serialization;
  result.usage = binding->usage;

  {
    Tracer::Scope span(tracer, "mapping.route", request);
    std::uint32_t wires = std::max<std::uint32_t>(1, options.nocWiresPerConnection);
    MappingOptions attempt = options;
    for (;;) {
      attempt.nocWiresPerConnection = wires;
      if (mamps::mapping::routeChannels(g, arch, binding->actorToTile, attempt, work, client,
                                        result.mapping.channelRoutes)) {
        break;
      }
      if (wires == 1) {
        return std::nullopt;
      }
      wires /= 2;
    }
  }

  // TDM shares and inflated WCETs, read back through public budget
  // queries exactly as the mapping step reads them.
  result.mapping.tileTdmSlots.assign(arch.tileCount(), 0);
  for (TileId t = 0; t < arch.tileCount(); ++t) {
    result.mapping.tileTdmSlots[t] = work.tileSlots(t, client);
  }
  std::vector<std::uint64_t> wcet(g.actorCount());
  for (ActorId a = 0; a < g.actorCount(); ++a) {
    const TileId t = binding->actorToTile[a];
    wcet[a] = cache.wcetByType.at(arch.tile(t).processorType)[a];
    const std::uint32_t held = work.tileSlots(t, client);
    const std::uint32_t wheel = work.tileSlotCapacity(t);
    if (held != 0 && held < wheel) {
      wcet[a] = (wcet[a] * wheel + held - 1) / held + work.tileWheelOverheadCycles(t);
    }
  }

  assignBuffers(g, std::max<std::uint32_t>(1, options.initialBufferScale), result.mapping);
  {
    Tracer::Scope span(tracer, "mapping.binding_aware", request);
    result.model = mamps::mapping::buildBindingAware(app, arch, result.mapping, wcet);
  }
  std::optional<mamps::analysis::IncrementalThroughput> context;
  {
    Tracer::Scope span(tracer, "analysis.expand", request);
    context.emplace(result.model.graph, &result.model.resources);
  }
  if (options.solverWarmStart != nullptr) {
    context->adoptWarmStart(*options.solverWarmStart);
  }
  const Rational constraint = app.throughputConstraint();
  const auto constraintMet = [&](const mamps::analysis::ThroughputResult& t) {
    return t.ok() && (constraint.isZero() || t.iterationsPerCycle >= constraint);
  };
  result.throughput = timedCompute(*context, tracer, request);
  for (std::uint32_t round = 0;; ++round) {
    const bool met = constraintMet(result.throughput);
    if (met || round >= options.bufferGrowthRounds) {
      result.meetsConstraint = met;
      break;
    }
    Tracer::Scope span(tracer, "analysis.growth", request);
    if (!(perturbation.skipFirstGrowth && round == 0)) {
      growBuffers(g, result.mapping);
    }
    patchCapacityTokens(g, result.mapping, result.model, *context);
    result.throughput = timedCompute(*context, tracer, request);
  }
  if (options.solverWarmStart != nullptr && context->onFastPath()) {
    context->exportWarmStart(*options.solverWarmStart);
  }
  tracer.count("analysis.hsdf_actors", request, static_cast<double>(result.throughput.hsdfActors));
  budget = std::move(work);
  return result;
}

std::string mappingMismatch(const std::optional<MappingResult>& a,
                            const std::optional<MappingResult>& b) {
  if (a.has_value() != b.has_value()) {
    return "feasibility";
  }
  if (!a) {
    return {};
  }
  const auto sameRoutes = [](const std::vector<ChannelRoute>& x,
                             const std::vector<ChannelRoute>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const ChannelRoute& r, const ChannelRoute& s) {
                        return r.interTile == s.interTile && r.srcTile == s.srcTile &&
                               r.dstTile == s.dstTile && r.route == s.route &&
                               r.wires == s.wires && r.fslIndex == s.fslIndex;
                      });
  };
  const Mapping& x = a->mapping;
  const Mapping& y = b->mapping;
  if (a->throughput.status != b->throughput.status) return "status";
  if (a->throughput.iterationsPerCycle != b->throughput.iterationsPerCycle) return "rational";
  if (a->throughput.hsdfActors != b->throughput.hsdfActors) return "hsdf_actors";
  if (a->meetsConstraint != b->meetsConstraint) return "constraint verdict";
  if (x.actorToTile != y.actorToTile) return "binding";
  if (x.schedules != y.schedules) return "schedules";
  if (x.tileTdmSlots != y.tileTdmSlots) return "tdm shares";
  if (x.localCapacityTokens != y.localCapacityTokens) return "local buffer tokens";
  if (x.srcBufferTokens != y.srcBufferTokens) return "source buffer tokens";
  if (x.dstBufferTokens != y.dstBufferTokens) return "destination buffer tokens";
  if (!sameRoutes(x.channelRoutes, y.channelRoutes)) return "routes";
  return {};
}

}  // namespace perfbench
