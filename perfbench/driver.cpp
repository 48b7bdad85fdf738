// perfbench_driver: the benchmark's C++ half. Runs one workload for a
// fixed time on one thread with one closed-loop caller, checks every
// output, and prints named metrics plus, as its last stdout line, one
// JSON object {correct, attempted, failed, metrics}.
//
//   perfbench_driver --workload dse_mjpeg|serve_replay|serve_faults
//                    --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//   perfbench_driver --self-test
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans around every library call (plus a stage-by-stage
// replay of each mapping step) and reports the per-layer metrics. See
// README.md for the workloads, metrics and the layer -> metric map.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/encoder.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "apps/suite/churn.hpp"
#include "mapping/admission.hpp"
#include "mapping/dse.hpp"
#include "platform/arch_template.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "support/log.hpp"
#include "trace.hpp"

using namespace mamps;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: the benchmark draws its own event streams, independent of
/// the library's generators.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0) < p;
  }

 private:
  std::uint64_t state_;
};

/// Correctness bookkeeping: every checked operation is attempted; a
/// failed check is a failed operation.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) {
        failures.push_back(what);
      }
    }
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: the generic end-to-end set every
/// workload shares (the JSON result), the workload's own names for the
/// same numbers (printed), and, for traced runs, the per-layer set.
struct Report {
  std::vector<Metric> endToEnd;
  std::vector<std::string> lines;
  std::vector<Metric> layers;
  /// The traced phase's spans, written out when the run ends.
  std::unique_ptr<Tracer> tracer;

  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    lines.emplace_back(buf);
  }
};

/// Print the median and the `tail` percentile of a latency sample set,
/// with the sample count and the highest percentile the count supports.
void printLatency(Report& report, const char* name, const char* unit,
                  const std::vector<double>& samples, double tail) {
  const double supported =
      perfbench::highestSupportedPercentile(samples.size(), {0.5, 0.9, 0.99, 0.999});
  report.line("%s_p50 = %.6g %s", name, perfbench::percentile(samples, 0.5), unit);
  report.line("%s_p%g = %.6g %s (n=%zu, %zu beyond; highest supported percentile p%g)", name,
              tail * 100, perfbench::percentile(samples, tail), unit, samples.size(),
              perfbench::samplesBeyond(samples.size(), tail), supported * 100);
}

/// The percentile a tail latency is reported at: the highest of p90, p99
/// and p99.9 with at least ten samples beyond it, else p90.
double tailPercentile(std::size_t samples) {
  const double p = perfbench::highestSupportedPercentile(samples, {0.9, 0.99, 0.999});
  return p == 0.0 ? 0.9 : p;
}

/// Keep freed heap memory in the process. By default glibc hands the
/// top of the heap back to the OS whenever more than a small amount is
/// free, and serve_faults then faulted about 70 000 pages back in per
/// 3000-event pass. Zeroing those pages made its timings follow the
/// memory traffic of other tenants of the host. The peak resident set
/// is the same either way.
void keepFreedMemory() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The set-up repeats of one run, for setup_s: the first before the
/// run, the rest spread evenly between its repeats, so their median sees
/// the host's slow and fast phases in the run's own proportions.
/// `discard` drops the previous extra copy before the clock starts.
class SetupClock {
 public:
  SetupClock(std::size_t reps, double seconds, std::function<void()> setUp,
             std::function<void()> discard)
      : reps_(reps), seconds_(seconds), setUp_(std::move(setUp)), discard_(std::move(discard)) {
    take();
  }

  /// Call between repeats with the time since the run started; takes
  /// every set-up that is due by then.
  void between(double elapsed) {
    while (samples_.size() < reps_ &&
           elapsed >= seconds_ * static_cast<double>(samples_.size()) / static_cast<double>(reps_)) {
      take();
    }
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void take() {
    discard_();
    const auto start = Clock::now();
    setUp_();
    samples_.push_back(secondsSince(start));
  }

  std::size_t reps_;
  double seconds_;
  std::function<void()> setUp_;
  std::function<void()> discard_;
  std::vector<double> samples_;
};

// ------------------------------------------------------------ span sums

/// Per-layer aggregation of a traced phase: total duration and self
/// time per span name, plus summed counts.
struct SpanTotals {
  std::map<std::string, double> ns;
  std::map<std::string, double> selfNs;
  std::map<std::string, std::size_t> spans;
  std::map<std::string, double> counts;

  explicit SpanTotals(const Tracer& tracer) {
    const std::vector<std::int64_t> self = tracer.selfNs();
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Tracer::Span& s = tracer.spans()[i];
      ns[s.name] += static_cast<double>(s.endNs - s.startNs);
      selfNs[s.name] += static_cast<double>(self[i]);
      ++spans[s.name];
    }
    for (const Tracer::Count& c : tracer.counts()) {
      counts[c.name] += c.value;
    }
  }

  /// Sum of `name` per span of `per` (0 when `per` never ran).
  [[nodiscard]] double perSpan(const std::map<std::string, double>& table, const std::string& name,
                               const std::string& per) const {
    const auto n = spans.find(per);
    const auto v = table.find(name);
    if (n == spans.end() || n->second == 0 || v == table.end()) {
      return 0.0;
    }
    return v->second / static_cast<double>(n->second);
  }
};

/// The mapping- and analysis-layer metrics of the stage replay: means
/// per replayed mapping, so stage times add up to the replay's total.
void replayLayers(const SpanTotals& t, std::vector<Metric>& out) {
  const std::string per = "mapping.replay";
  const auto us = [&](const char* span) { return t.perSpan(t.ns, span, per) / 1e3; };
  out.push_back({"mapping.bind_us", us("mapping.bind"), "us"});
  out.push_back({"mapping.schedule_us", us("mapping.schedule"), "us"});
  out.push_back({"mapping.route_us", us("mapping.route"), "us"});
  out.push_back({"mapping.binding_aware_us", us("mapping.binding_aware"), "us"});
  out.push_back({"mapping.self_us", t.perSpan(t.selfNs, per, per) / 1e3, "us"});
  out.push_back({"analysis.expand_us", us("analysis.expand"), "us"});
  out.push_back({"analysis.collapse_us", t.perSpan(t.counts, "analysis.collapse_ns", per) / 1e3,
                 "us"});
  out.push_back({"analysis.solve_us", t.perSpan(t.counts, "analysis.solve_ns", per) / 1e3, "us"});
  out.push_back({"analysis.growth_us", us("analysis.growth"), "us"});
  out.push_back({"analysis.computes", t.perSpan(t.counts, "analysis.computes", per), "count"});
  out.push_back(
      {"analysis.hsdf_actors", t.perSpan(t.counts, "analysis.hsdf_actors", per), "count"});
  const auto replays = t.spans.find(per);
  out.push_back({"mapping.replays",
                 replays == t.spans.end() ? 0.0 : static_cast<double>(replays->second), "count"});
}

/// Fixed order of the per-layer metrics; a workload that never runs a
/// layer reports 0 for it.
const char* const kLayerMetrics[][2] = {
    {"platform.generate_us", "us"},        {"platform.budget_copy_us", "us"},
    {"dse.self_us", "us"},                 {"mapping.map_us", "us"},
    {"mapping.bind_us", "us"},             {"mapping.schedule_us", "us"},
    {"mapping.route_us", "us"},            {"mapping.binding_aware_us", "us"},
    {"mapping.self_us", "us"},             {"mapping.replays", "count"},
    {"analysis.expand_us", "us"},          {"analysis.collapse_us", "us"},
    {"analysis.solve_us", "us"},           {"analysis.growth_us", "us"},
    {"analysis.computes", "count"},        {"analysis.hsdf_actors", "count"},
    {"admission.hit_us_p50", "us"},        {"admission.hit_us_p99", "us"},
    {"admission.depart_us_p50", "us"},     {"admission.miss_ms_p50", "ms"},
    {"admission.miss_ms_p99", "ms"},       {"admission.self_us", "us"},
    {"admission.plan_cache_hit_ratio", "share"}, {"admission.plan_cache_evictions", "count"},
    {"admission.recovery_ms", "ms"},       {"admission.recovery_ms_p90", "ms"},
    {"admission.recovered_share", "share"}, {"admission.evacuated", "count"},
    {"admission.repair_us", "us"},         {"trace.overhead_share", "share"},
};

std::vector<Metric> completeLayers(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    Metric m{name, 0.0, unit};
    for (const Metric& x : measured) {
      if (x.name == name) {
        m.value = x.value;
      }
    }
    out.push_back(m);
  }
  return out;
}

// ------------------------------------------------------------ dse_mjpeg

struct DseSetup {
  mjpeg::MjpegApp app;
  std::vector<mapping::DesignPoint> points;
  mapping::AppAnalysisCache cache;
};

/// The 120-point MJPEG sweep of bench/bench_dse.cpp. The seed picks the
/// synthetic sequence the actor WCETs are calibrated on.
std::unique_ptr<DseSetup> setupDse(std::uint64_t seed) {
  auto setup = std::make_unique<DseSetup>();
  const auto calibration =
      mjpeg::encodeSequence(mjpeg::makeSyntheticSequence(2, 64, 48, seed), {});
  setup->app = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(calibration));
  setup->app.model.setThroughputConstraint(Rational(1, 1'250'000));
  for (const auto serialization :
       {comm::SerializationMode::OnProcessor, comm::SerializationMode::CommAssist}) {
    for (const auto kind :
         {platform::InterconnectKind::Fsl, platform::InterconnectKind::NocMesh}) {
      for (std::uint32_t tiles = 1; tiles <= 5; ++tiles) {
        for (const std::uint32_t scale : {1u, 2u}) {
          for (const std::uint32_t wires : {8u, 4u, 2u}) {
            mapping::DesignPoint point;
            point.platform.tileCount = tiles;
            point.platform.interconnect = kind;
            point.options.serialization = serialization;
            point.options.initialBufferScale = scale;
            point.options.nocWiresPerConnection = wires;
            point.options.bufferGrowthRounds = 6;
            setup->points.push_back(point);
          }
        }
      }
    }
  }
  setup->cache = mapping::prepareApplication(setup->app.model);
  return setup;
}

/// The mapping step of one design point, exactly as the sweep runs it:
/// a fresh budget with the runtime layer, client 0.
platform::ResourceBudget freshBudget(const platform::Architecture& arch) {
  platform::ResourceBudget budget(arch);
  budget.commitBaseline(mapping::runtimeLayerInstrBytes(), mapping::runtimeLayerDataBytes());
  return budget;
}

/// The independent check of one point's guarantee: the state-space
/// engine on the final binding-aware model.
std::string stateSpaceMismatch(const mapping::MappingResult& m) {
  analysis::ThroughputOptions options;
  options.engine = analysis::ThroughputEngine::StateSpace;
  const analysis::ThroughputResult reference =
      analysis::computeThroughput(m.model.graph, m.model.resources, options);
  if (reference.status != m.throughput.status) {
    return "status";
  }
  if (m.throughput.ok() && reference.iterationsPerCycle != m.throughput.iterationsPerCycle) {
    return "rational " + m.throughput.iterationsPerCycle.toString() + " vs state-space " +
           reference.iterationsPerCycle.toString();
  }
  return {};
}

struct DsePhase {
  perfbench::FastestRepeat fastest;  ///< one repeat per sweep
  std::size_t points = 0;
  std::size_t met = 0;
  std::size_t sweeps = 0;
};

void runDse(const DseSetup& setup, double seconds, std::size_t minSweeps, Tracer& tracer,
            std::vector<std::optional<mapping::MappingResult>>& reference, Outcome& outcome,
            DsePhase& phase, std::vector<double>& selfUs, SetupClock* setups) {
  mapping::DseOptions serial;
  serial.threads = 1;
  const std::size_t n = setup.points.size();
  const auto start = Clock::now();
  while (phase.sweeps < minSweeps || (secondsSince(start) < seconds && !tracer.full())) {
    const std::uint64_t base = phase.sweeps * n;
    const std::int32_t sweepSpan = tracer.begin("dse.sweep", base);
    const auto t0 = Clock::now();
    mapping::DseResult result = mapping::exploreDesignSpace(setup.app.model, setup.points, serial);
    const double wall = secondsSince(t0);
    tracer.end(sweepSpan);
    ++phase.sweeps;
    perfbench::Repeat repeat;
    repeat.ops = n;
    double pointSeconds = 0.0;
    for (const mapping::DesignPointResult& p : result.points) {
      pointSeconds += p.seconds;
    }
    if (tracer.enabled()) {
      // Engine time outside the points' own timed regions (per-call
      // preparation, dispatch, result handling), per point.
      selfUs.push_back((wall - pointSeconds) * 1e6 / static_cast<double>(n));
    }

    // Checks, outside the timed call: the first sweep of the run against
    // the state-space engine, every later one against the first.
    const bool first = reference.empty();
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<mapping::MappingResult>& got = result.points[i].mapping;
      repeat.latencyMs.push_back(result.points[i].seconds * 1e3);
      ++phase.points;
      phase.met += got && got->meetsConstraint ? 1 : 0;
      if (first) {
        const std::string why = got ? stateSpaceMismatch(*got) : std::string();
        outcome.check(why.empty(), "point " + result.points[i].label + ": " + why);
      } else {
        const std::string why = perfbench::mappingMismatch(reference[i], got);
        outcome.check(why.empty(), "point " + result.points[i].label +
                                       " differs from the first sweep: " + why);
      }
    }
    // The sweep engine's own time outside the points.
    repeat.otherS.push_back(wall - pointSeconds);
    phase.fastest.add(0, repeat);
    if (setups != nullptr) {
      setups->between(secondsSince(start));
    }
    if (first) {
      for (auto& p : result.points) {
        reference.push_back(std::move(p.mapping));
      }
    }
    if (!tracer.enabled()) {
      continue;
    }

    // Traced: the layers of each point from outside, plus the stage
    // replay, which must match the real mapping step bit for bit.
    // Both chains carry a cross-point warm start, as the sweep does.
    analysis::SolverWarmStart warm;
    analysis::SolverWarmStart replayWarm;
    for (std::size_t i = 0; i < n; ++i) {
      const mapping::DesignPoint& point = setup.points[i];
      const std::uint64_t request = base + i;
      std::int32_t span = tracer.begin("platform.generate", request);
      const platform::Architecture arch = platform::generateFromTemplate(point.platform);
      tracer.end(span);
      platform::ResourceBudget budget = freshBudget(arch);
      platform::ResourceBudget replayBudget = budget;
      mapping::MappingOptions options = point.options;
      options.solverWarmStart = &warm;
      span = tracer.begin("mapping.map", request);
      const auto real = mapping::mapOntoBudget(setup.cache, arch, options, budget, 0);
      tracer.end(span);
      options.solverWarmStart = &replayWarm;
      const auto replay = perfbench::replayMapOntoBudget(setup.cache, arch, options,
                                                          replayBudget, 0, tracer, request);
      std::string why = perfbench::mappingMismatch(real, replay);
      if (why.empty() && !(budget == replayBudget)) {
        why = "budget";
      }
      outcome.check(why.empty(), "stage replay of point " + std::to_string(i) + ": " + why);
      const std::string sweepWhy = perfbench::mappingMismatch(reference[i], real);
      outcome.check(sweepWhy.empty(), "mapOntoBudget of point " + std::to_string(i) +
                                          " differs from the sweep: " + sweepWhy);
    }
  }
}

void dseWorkload(std::uint64_t seed, double seconds, bool traced, Outcome& outcome,
                 Report& report) {
  std::unique_ptr<DseSetup> setup;
  std::unique_ptr<DseSetup> spare;
  SetupClock setups(
      traced ? 1 : 31, seconds, [&] { (setup ? spare : setup) = setupDse(seed); },
      [&] { spare.reset(); });
  std::vector<std::optional<mapping::MappingResult>> reference;
  std::vector<double> selfUs;

  Tracer off(false);
  DsePhase untraced;
  runDse(*setup, traced ? seconds / 3 : seconds, 9, off, reference, outcome, untraced, selfUs,
         &setups);
  const double setupMedian = perfbench::median(setups.samples());
  const std::size_t n = setup->points.size();

  if (!traced) {
    const std::vector<double> pointMs = untraced.fastest.latencyMs();
    const double pointsPerS = untraced.fastest.opsPerS();
    const double share = perfbench::ratio(static_cast<double>(untraced.met),
                                          static_cast<double>(untraced.points));
    report.line("workload dse_mjpeg: %zu points x %zu serial sweeps, seed %llu", n,
                untraced.sweeps, static_cast<unsigned long long>(seed));
    report.line("setup_s = %.6g s (median of %zu)", setupMedian, setups.samples().size());
    report.line("points_per_s = %.6g 1/s (timed around exploreDesignSpace; each point and the "
                "engine's own time at its fastest of %zu sweeps)",
                pointsPerS, untraced.fastest.repeats());
    const double tail = tailPercentile(pointMs.size());
    printLatency(report, "point_ms", "ms", pointMs, tail);
    report.line("constraint_met_share = %.6g (%zu of %zu points)", share, untraced.met,
                untraced.points);
    report.endToEnd = {{"ops_per_s", pointsPerS, "1/s"},
                       {"op_ms_p50", perfbench::percentile(pointMs, 0.5), "ms"},
                       {"op_ms_tail", perfbench::percentile(pointMs, tail), "ms"},
                       {"ok_share", share, "share"},
                       {"setup_s", setupMedian, "s"}};
    return;
  }

  Tracer tracer(true);
  DsePhase tracedPhase;
  runDse(*setup, seconds - seconds / 3, 3, tracer, reference, outcome, tracedPhase, selfUs,
         nullptr);
  const SpanTotals t(tracer);
  std::vector<Metric> layers;
  layers.push_back({"platform.generate_us", t.perSpan(t.ns, "platform.generate",
                                                      "platform.generate") / 1e3, "us"});
  layers.push_back({"mapping.map_us", t.perSpan(t.ns, "mapping.map", "mapping.map") / 1e3, "us"});
  layers.push_back({"dse.self_us", perfbench::mean(selfUs), "us"});
  replayLayers(t, layers);
  layers.push_back({"trace.overhead_share",
                    perfbench::median(tracedPhase.fastest.latencyMs()) /
                            perfbench::median(untraced.fastest.latencyMs()) -
                        1.0,
                    "share"});
  report.line("workload dse_mjpeg (traced): %zu untraced + %zu traced sweeps, seed %llu",
              untraced.sweeps, tracedPhase.sweeps, static_cast<unsigned long long>(seed));
  report.layers = std::move(layers);
  report.tracer = std::make_unique<Tracer>(std::move(tracer));
}


// ------------------------------------------------------------ serving

struct ServeParams {
  std::size_t events = 1000;
  double faultChance = 0.0;
  double repairChance = 0.0;
  std::uint32_t spareTiles = 0;
  /// Recorded streams a run cycles through (each from its own seed).
  std::size_t streams = 1;
};

/// Chance that an event is a departure when residents exist (the mix of
/// suite::runChurnTrace).
constexpr double kDepartChance = 0.45;

/// One generated event. `pick` is the arriving application, the index of
/// the departing resident, the failing tile, or the index of the failed
/// tile to repair.
struct ServeEvent {
  enum class Kind { Arrival, Departure, Fault, Repair };
  Kind kind = Kind::Arrival;
  std::size_t pick = 0;
};

/// A recorded pass: the event stream plus every arrival's decision,
/// with the (large) binding-aware model dropped.
struct RecordedPass {
  std::vector<ServeEvent> events;
  std::vector<std::optional<mapping::MappingResult>> decisions;
};

struct ServeSetup {
  platform::Architecture arch;
  suite::ChurnWorkload workload;
  platform::ResourceBudget pristine;
  std::unique_ptr<mapping::AdmissionController> controller;
};

std::unique_ptr<ServeSetup> setupServe(const ServeParams& params) {
  auto setup = std::make_unique<ServeSetup>();
  setup->arch = platform::generateFromTemplate(platform::largeMeshPreset(12));
  setup->workload = suite::suiteChurnWorkload(2);
  setup->pristine = freshBudget(setup->arch);
  mapping::AdmissionOptions options;
  options.recovery.spareTiles = params.spareTiles;
  setup->controller = std::make_unique<mapping::AdmissionController>(setup->arch, options);
  return setup;
}

/// Samples of one serving phase (one or more passes).
struct ServePhase {
  /// One repeat per pass over a stream: admit latencies (the other
  /// library calls as other parts), and the recovery latencies of the
  /// injectFault calls that stranded someone.
  perfbench::FastestRepeat fastest;
  perfbench::FastestRepeat recovery;
  std::vector<double> recoveryMs;  ///< every pass's, pooled
  std::vector<double> hitUs;
  std::vector<double> missMs;
  std::vector<double> departUs;
  std::vector<double> repairUs;
  std::vector<double> admissionSelfUs;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t evacuated = 0;
  std::size_t recovered = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t passes = 0;
};

/// One pass of closed-loop serving on `controller`, which must be empty
/// and healthy, then the final drain. An empty `stream` is drawn from
/// `seed` (`params.events` events) and recorded; otherwise the pass
/// replays it and checks every decision against the recorded one.
void servePass(const ServeSetup& setup, mapping::AdmissionController& controller,
               const ServeParams& params, RecordedPass& stream, std::uint64_t seed,
               std::size_t group, Tracer& tracer, std::uint64_t& request, Outcome& outcome,
               ServePhase& phase) {
  const bool recording = stream.events.empty();
  RecordedPass* record = recording ? &stream : nullptr;
  const RecordedPass* replay = recording ? nullptr : &stream;
  Rng rng(seed);
  const suite::ChurnWorkload& w = setup.workload;
  const std::size_t tileCount = setup.arch.tileCount();
  const mapping::AdmissionStats before = controller.stats();
  std::vector<mapping::ClientId> residents;
  std::map<mapping::ClientId, std::size_t> clientApp;
  std::vector<platform::TileId> failed;
  std::size_t arrivalIndex = 0;
  mapping::ClientId nextClient = static_cast<mapping::ClientId>(before.arrivals);
  perfbench::Repeat repeat;
  perfbench::Repeat recovery;

  const auto meetsConstraint = [&](const mapping::MappingResult& m, std::size_t app) {
    const Rational& constraint = w.models[app].throughputConstraint();
    return m.throughput.ok() && m.throughput.iterationsPerCycle >= constraint;
  };
  // Times one library call from outside, under a span. Admits are
  // latency samples; every other call is an other part of the repeat.
  const auto timed = [&](const char* name, const auto& call) {
    const std::int32_t span = tracer.begin(name, request);
    const auto start = Clock::now();
    call();
    const double s = secondsSince(start);
    tracer.end(span);
    ++repeat.ops;
    return s;
  };

  const auto arrive = [&](std::size_t app) {
    const mapping::AppAnalysisCache& cache = w.caches[app];
    const mapping::MappingOptions& options = w.options[app];
    const mapping::ClientId client = nextClient++;
    std::optional<platform::ResourceBudget> pre;
    if (tracer.enabled()) {
      const std::int32_t span = tracer.begin("platform.budget_copy", request);
      pre.emplace(controller.budget());
      tracer.end(span);
    }
    mapping::AdmissionDecision decision;
    const double s = timed("admission.admit", [&] { decision = controller.admit(cache, options); });
    repeat.latencyMs.push_back(s * 1e3);
    if (tracer.enabled()) {
      (decision.planCacheHit ? phase.hitUs : phase.missMs)
          .push_back(decision.planCacheHit ? s * 1e6 : s * 1e3);
    }
    ++phase.arrivals;
    if (decision.admitted()) {
      ++phase.admitted;
      residents.push_back(*decision.client);
      clientApp[*decision.client] = app;
      outcome.check(*decision.client == client && meetsConstraint(*decision.result, app),
                    "admitted guarantee below its constraint (client " + std::to_string(client) +
                        ")");
    }
    if (pre && !decision.planCacheHit) {
      // Traced miss: the real mapping step and its stage replay, each
      // on a copy of the budget the decision saw.
      platform::ResourceBudget realBudget = *pre;
      platform::ResourceBudget replayBudget = *pre;
      std::optional<mapping::MappingResult> real;
      const std::int32_t span = tracer.begin("mapping.map", request);
      real = mapping::mapOntoBudget(cache, setup.arch, options, realBudget, client);
      const double mapUs = static_cast<double>(tracer.end(span)) / 1e3;
      phase.admissionSelfUs.push_back(s * 1e6 - mapUs);
      const auto replayed = perfbench::replayMapOntoBudget(cache, setup.arch, options,
                                                            replayBudget, client, tracer, request);
      std::string why = perfbench::mappingMismatch(real, replayed);
      if (why.empty() && !(realBudget == replayBudget)) {
        why = "budget";
      }
      if (why.empty() && decision.admitted()) {
        why = perfbench::mappingMismatch(real, decision.result);
      }
      outcome.check(why.empty(), "stage replay of event " + std::to_string(request) + ": " + why);
    }
    std::optional<mapping::MappingResult> digest;
    if (decision.admitted()) {
      digest = std::move(decision.result);
      digest->model = {};
      digest->usage.clear();
    }
    if (replay != nullptr) {
      const std::string why =
          perfbench::mappingMismatch(replay->decisions[arrivalIndex], digest);
      outcome.check(why.empty(),
                    "replayed decision " + std::to_string(arrivalIndex) + " differs: " + why);
    }
    if (record != nullptr) {
      record->decisions.push_back(std::move(digest));
    }
    ++arrivalIndex;
  };

  const auto depart = [&](std::size_t pick) {
    const mapping::ClientId client = residents[pick];
    const double s = timed("admission.depart", [&] { controller.depart(client); });
    repeat.otherS.push_back(s);
    if (tracer.enabled()) {
      phase.departUs.push_back(s * 1e6);
    }
    residents.erase(residents.begin() + static_cast<std::ptrdiff_t>(pick));
  };

  const auto repair = [&](std::size_t pick) {
    const platform::TileId tile = failed[pick];
    const mapping::FaultEvent event = mapping::FaultEvent::tileFailure(tile);
    const double s = timed("admission.repair", [&] { controller.repair(event); });
    repeat.otherS.push_back(s);
    if (tracer.enabled()) {
      phase.repairUs.push_back(s * 1e6);
    }
    failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(pick));
  };

  const auto fault = [&](platform::TileId tile) {
    mapping::RecoveryReport report;
    const double s = timed("admission.fault", [&] {
      report = controller.injectFault(mapping::FaultEvent::tileFailure(tile));
    });
    failed.push_back(tile);
    repeat.otherS.push_back(s);
    if (!report.stranded.empty()) {
      recovery.latencyMs.push_back(s * 1e3);
      ++recovery.ops;
      phase.recoveryMs.push_back(s * 1e3);
    }
    phase.evacuated += report.stranded.size();
    phase.recovered += report.recovered.size();
    bool ok = controller.budget().strandedClients().empty() &&
              report.stranded.size() == report.recovered.size() + report.degraded.size();
    for (const mapping::ClientId c : report.recovered) {
      ok = ok && meetsConstraint(controller.resident(c), clientApp.at(c));
    }
    outcome.check(ok, "fault on tile " + std::to_string(tile) + " left a stranded resident or "
                      "a recovered guarantee below its constraint");
    for (const mapping::ClientId lost : report.degraded) {
      residents.erase(std::remove(residents.begin(), residents.end(), lost), residents.end());
    }
  };

  const bool faults = params.faultChance > 0 || params.repairChance > 0;
  const std::size_t total = recording ? params.events : stream.events.size();
  for (std::size_t i = 0; i < total; ++i, ++request) {
    ServeEvent event;
    if (replay != nullptr) {
      event = replay->events[i];
    } else if (faults && !failed.empty() && rng.chance(params.repairChance)) {
      event = {ServeEvent::Kind::Repair, rng.below(failed.size())};
    } else if (faults && failed.size() + 1 < tileCount && rng.chance(params.faultChance)) {
      std::vector<platform::TileId> healthy;
      for (platform::TileId t = 0; t < tileCount; ++t) {
        if (!controller.budget().tileFailed(t)) {
          healthy.push_back(t);
        }
      }
      event = {ServeEvent::Kind::Fault, healthy[rng.below(healthy.size())]};
    } else if (!residents.empty() && rng.chance(kDepartChance)) {
      event = {ServeEvent::Kind::Departure, rng.below(residents.size())};
    } else {
      event = {ServeEvent::Kind::Arrival, rng.below(w.caches.size())};
    }
    if (record != nullptr) {
      record->events.push_back(event);
    }
    using Kind = ServeEvent::Kind;
    const bool valid = (event.kind == Kind::Arrival && event.pick < w.caches.size()) ||
                       (event.kind == Kind::Departure && event.pick < residents.size()) ||
                       (event.kind == Kind::Fault && event.pick < tileCount) ||
                       (event.kind == Kind::Repair && event.pick < failed.size());
    if (!valid) {
      outcome.check(false, "replayed stream diverged at event " + std::to_string(i));
      break;
    }
    switch (event.kind) {
      case ServeEvent::Kind::Arrival: arrive(event.pick); break;
      case ServeEvent::Kind::Departure: depart(event.pick); break;
      case ServeEvent::Kind::Fault: fault(static_cast<platform::TileId>(event.pick)); break;
      case ServeEvent::Kind::Repair: repair(event.pick); break;
    }
  }
  // Final drain: repair every outstanding fault, then every resident
  // leaves; the live budget must be bit-identical to pristine.
  while (!failed.empty()) {
    repair(failed.size() - 1);
    ++request;
  }
  while (!residents.empty()) {
    depart(residents.size() - 1);
    ++request;
  }
  outcome.check(controller.pristine() && controller.budget() == setup.pristine,
                "budget differs from pristine after the final drain");
  phase.fastest.add(group, repeat);
  phase.recovery.add(group, recovery);
  const mapping::AdmissionStats after = controller.stats();
  phase.hits += after.planCacheHits - before.planCacheHits;
  phase.misses += after.planCacheMisses - before.planCacheMisses;
  phase.evictions += after.planCacheEvictions - before.planCacheEvictions;
  ++phase.passes;
}

std::unique_ptr<mapping::AdmissionController> freshController(const ServeSetup& setup,
                                                              const ServeParams& params) {
  mapping::AdmissionOptions options;
  options.recovery.spareTiles = params.spareTiles;
  return std::make_unique<mapping::AdmissionController>(setup.arch, options);
}

/// Seed of the k-th stream of a run.
std::uint64_t streamSeed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : Rng(seed ^ (0xa0761d6478bd642fULL * k)).next();
}

/// Runs serving passes for `seconds` (and at least `minPasses`),
/// cycling through `streams`. A stream's first pass draws and records
/// it if it is still empty; every later pass replays it and checks each
/// decision. serve_faults starts each pass on a fresh controller;
/// serve_replay keeps the warm one.
void runServe(ServeSetup& setup, const ServeParams& params, std::vector<RecordedPass>& streams,
              bool freshEachPass, std::uint64_t seed, double seconds, std::size_t minPasses,
              Tracer& tracer, std::uint64_t& request, Outcome& outcome, ServePhase& phase,
              SetupClock* setups) {
  const auto start = Clock::now();
  while (phase.passes < minPasses || (secondsSince(start) < seconds && !tracer.full())) {
    if (freshEachPass) {
      setup.controller = freshController(setup, params);
    }
    const std::size_t k = phase.passes % streams.size();
    servePass(setup, *setup.controller, params, streams[k], streamSeed(seed, k), k, tracer,
              request, outcome, phase);
    if (setups != nullptr) {
      setups->between(secondsSince(start));
    }
  }
}

void serveWorkload(const std::string& name, std::uint64_t seed, double seconds, bool traced,
                   Outcome& outcome, Report& report) {
  const bool replay = name == "serve_replay";
  // serve_replay cycles through three recorded streams. serve_faults
  // replays one, so each of its calls has as many repeats as possible.
  ServeParams params;
  if (replay) {
    params.streams = 3;
  } else {
    params.events = 3000;
    params.faultChance = 0.10;
    params.repairChance = 0.15;
    params.spareTiles = 2;
  }
  std::vector<RecordedPass> streams(params.streams);
  std::vector<RecordedPass> spareStreams;
  std::unique_ptr<ServeSetup> setup;
  std::unique_ptr<ServeSetup> spare;
  Tracer off(false);
  std::uint64_t request = 0;
  // serve_replay's set-up ends with the cache-filling passes that record
  // the streams the timed passes replay.
  const auto setUp = [&] {
    const bool first = setup == nullptr;
    std::unique_ptr<ServeSetup>& target = first ? setup : spare;
    std::vector<RecordedPass>& recorded = first ? streams : spareStreams;
    target = setupServe(params);
    recorded.assign(params.streams, {});
    for (std::size_t k = 0; replay && k < recorded.size(); ++k) {
      ServePhase cold;
      servePass(*target, *target->controller, params, recorded[k], streamSeed(seed, k), 0, off,
                request, outcome, cold);
    }
  };
  SetupClock setups(traced ? 1 : (replay ? 3 : 31), seconds, setUp, [&] {
    spare.reset();
    spareStreams.clear();
  });

  ServePhase untraced;
  runServe(*setup, params, streams, !replay, seed, traced ? seconds / 3 : seconds,
           2 * streams.size(), off, request, outcome, untraced, &setups);
  const double setupMedian = perfbench::median(setups.samples());

  if (!traced) {
    const std::vector<double> admitMs = untraced.fastest.latencyMs();
    const double decisionsPerS = untraced.fastest.opsPerS();
    const double share = perfbench::ratio(static_cast<double>(untraced.admitted),
                                          static_cast<double>(untraced.arrivals));
    report.line("workload %s: %zu passes of %zu events on mesh12, seed %llu", name.c_str(),
                untraced.passes, params.events, static_cast<unsigned long long>(seed));
    report.line("setup_s = %.6g s (median of %zu)", setupMedian, setups.samples().size());
    report.line("decisions_per_s = %.6g 1/s (events incl. drain per second of library calls; "
                "each call at its fastest of %zu passes over its stream)",
                decisionsPerS, untraced.fastest.repeats());
    const double tail = tailPercentile(admitMs.size());
    printLatency(report, "admit_ms", "ms", admitMs, tail);
    report.line("admitted_share = %.6g (%zu of %zu arrivals)", share, untraced.admitted,
                untraced.arrivals);
    report.line("plan_cache_hit_ratio = %.6g (%zu hits of %zu decisions)",
                untraced.hits + untraced.misses == 0
                    ? 0.0
                    : perfbench::ratio(static_cast<double>(untraced.hits),
                                       static_cast<double>(untraced.hits + untraced.misses)),
                untraced.hits, untraced.hits + untraced.misses);
    if (!replay) {
      printLatency(report, "recovery_ms", "ms", untraced.recovery.latencyMs(), 0.9);
      report.line("recovered_share = %.6g (%zu of %zu evacuated residents)",
                  perfbench::ratio(static_cast<double>(untraced.recovered),
                                   static_cast<double>(untraced.evacuated)),
                  untraced.recovered, untraced.evacuated);
    }
    report.endToEnd = {{"ops_per_s", decisionsPerS, "1/s"},
                       {"op_ms_p50", perfbench::percentile(admitMs, 0.5), "ms"},
                       {"op_ms_tail", perfbench::percentile(admitMs, tail), "ms"},
                       {"ok_share", share, "share"},
                       {"setup_s", setupMedian, "s"}};
    return;
  }

  Tracer tracer(true);
  ServePhase phase;
  runServe(*setup, params, streams, !replay, seed, seconds - seconds / 3, 1, tracer, request,
           outcome, phase, nullptr);
  const std::vector<double>& recoveryMs = phase.recoveryMs;
  const SpanTotals t(tracer);
  const auto orZero = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : perfbench::percentile(v, p);
  };
  std::vector<Metric> layers;
  layers.push_back({"platform.budget_copy_us",
                    t.perSpan(t.ns, "platform.budget_copy", "platform.budget_copy") / 1e3, "us"});
  layers.push_back({"mapping.map_us", t.perSpan(t.ns, "mapping.map", "mapping.map") / 1e3, "us"});
  replayLayers(t, layers);
  layers.push_back({"admission.hit_us_p50", orZero(phase.hitUs, 0.5), "us"});
  layers.push_back({"admission.hit_us_p99", orZero(phase.hitUs, 0.99), "us"});
  layers.push_back({"admission.depart_us_p50", orZero(phase.departUs, 0.5), "us"});
  layers.push_back({"admission.miss_ms_p50", orZero(phase.missMs, 0.5), "ms"});
  layers.push_back({"admission.miss_ms_p99", orZero(phase.missMs, 0.99), "ms"});
  layers.push_back({"admission.self_us", perfbench::mean(phase.admissionSelfUs), "us"});
  layers.push_back({"admission.plan_cache_hit_ratio",
                    perfbench::ratio(static_cast<double>(phase.hits),
                                     static_cast<double>(phase.hits + phase.misses)),
                    "share"});
  layers.push_back(
      {"admission.plan_cache_evictions", static_cast<double>(phase.evictions), "count"});
  layers.push_back({"admission.recovery_ms", orZero(recoveryMs, 0.5), "ms"});
  layers.push_back({"admission.recovery_ms_p90", orZero(recoveryMs, 0.9), "ms"});
  layers.push_back({"admission.recovered_share",
                    phase.evacuated == 0
                        ? 0.0
                        : perfbench::ratio(static_cast<double>(phase.recovered),
                                           static_cast<double>(phase.evacuated)),
                    "share"});
  layers.push_back({"admission.evacuated", static_cast<double>(phase.evacuated), "count"});
  layers.push_back({"admission.repair_us", perfbench::mean(phase.repairUs), "us"});
  layers.push_back({"trace.overhead_share",
                    perfbench::median(phase.fastest.latencyMs()) /
                            perfbench::median(untraced.fastest.latencyMs()) -
                        1.0,
                    "share"});
  report.line("workload %s (traced): %zu untraced + %zu traced passes, seed %llu", name.c_str(),
              untraced.passes, phase.passes, static_cast<unsigned long long>(seed));
  report.layers = std::move(layers);
  report.tracer = std::make_unique<Tracer>(std::move(tracer));
}

// ------------------------------------------------------------ fingerprint

/// Receives spin() results, so the work cannot be optimized away.
volatile std::uint64_t spinSink = 0;

/// Spin for a fixed amount of integer work.
std::uint64_t spin(std::uint64_t rounds) {
  Rng rng(rounds);
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    acc ^= rng.next();
  }
  return acc;
}

/// Effective parallelism: the same work on one thread and on every
/// hardware thread at once; nproc * t1 / tN.
double measuredParallelism(unsigned nproc) {
  constexpr std::uint64_t kRounds = 20'000'000;
  auto start = Clock::now();
  spinSink = spin(kRounds);
  const double single = secondsSince(start);
  std::vector<std::uint64_t> results(nproc);
  start = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (unsigned i = 0; i < nproc; ++i) {
      pool.emplace_back([&results, i] { results[i] = spin(kRounds + i); });
    }
  }
  const double all = secondsSince(start);
  for (const std::uint64_t r : results) {
    spinSink = r;
  }
  return static_cast<double>(nproc) * single / all;
}

std::string fingerprint() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"measured_parallelism\": %.3f, \"compiler\": \"%s\", "
                "\"build\": \"%s\", \"non_release_build\": %s}",
                nproc, measuredParallelism(nproc), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                release ? "false" : "true");
  return buf;
}

// ------------------------------------------------------------ self-test

int selfTest() {
  Outcome t;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  t.check(perfbench::percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50");
  t.check(perfbench::percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  t.check(perfbench::percentile(hundred, 1.0) == 100, "p100 of 1..100 is 100");
  t.check(perfbench::percentile({7.0}, 0.99) == 7, "p99 of one sample is that sample");
  t.check(perfbench::percentile({}, 0.5) == 0, "empty samples give 0");
  t.check(perfbench::median({3, 1, 2}) == 2, "median of 3 samples");
  t.check(perfbench::samplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  t.check(perfbench::samplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  t.check(perfbench::samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  const std::vector<double> candidates = {0.5, 0.9, 0.99, 0.999};
  t.check(perfbench::highestSupportedPercentile(10000, candidates) == 0.999, "10000 -> p99.9");
  t.check(perfbench::highestSupportedPercentile(1000, candidates) == 0.99, "1000 -> p99");
  t.check(perfbench::highestSupportedPercentile(999, candidates) == 0.9, "999 -> p90");
  t.check(perfbench::highestSupportedPercentile(20, candidates) == 0.5, "20 -> p50");
  t.check(perfbench::highestSupportedPercentile(19, candidates) == 0.0, "19 -> none");
  t.check(perfbench::ratio(96, 120) == 0.8, "96 of 120 is 0.8");
  {
    // Group 0 repeats two latency operations and one other part; group 1
    // one latency operation. Minima are taken per operation, not per repeat.
    perfbench::FastestRepeat fastest;
    fastest.add(0, {{3.0, 1.0}, {0.002}, 3});
    fastest.add(0, {{1.0, 4.0}, {0.001}, 3});
    fastest.add(1, {{5.0}, {}, 1});
    t.check(fastest.repeats() == 3, "three repeats");
    t.check(fastest.latencyMs() == std::vector<double>{1.0, 1.0, 5.0},
            "each operation at its fastest repeat, groups in order");
    t.check(std::abs(fastest.opsPerS() - 4.0 / 0.008) < 1e-9,
            "4 operations over 1 + 1 + 5 ms plus 1 ms of other parts");
    bool mismatch = false;
    try {
      fastest.add(0, {{1.0}, {0.001}, 2});
    } catch (const std::invalid_argument&) {
      mismatch = true;
    }
    t.check(mismatch, "a repeat of another shape is refused");
  }
  bool threw = false;
  try {
    (void)perfbench::ratio(0, 0);
  } catch (const std::domain_error&) {
    threw = true;
  }
  t.check(threw, "a ratio with an empty base throws");

  // The stage-replay check must accept a faithful replay and trip on a
  // replay that skips a growth round.
  const std::unique_ptr<DseSetup> setup = setupDse(1);
  Tracer tracer(true);
  std::size_t perturbed = 0;
  for (std::size_t i = 0; i < setup->points.size(); ++i) {
    const mapping::DesignPoint& point = setup->points[i];
    const platform::Architecture arch = platform::generateFromTemplate(point.platform);
    platform::ResourceBudget realBudget = freshBudget(arch);
    platform::ResourceBudget replayBudget = realBudget;
    platform::ResourceBudget perturbedBudget = realBudget;
    const auto real = mapping::mapOntoBudget(setup->cache, arch, point.options, realBudget, 0);
    const auto replay = perfbench::replayMapOntoBudget(setup->cache, arch, point.options,
                                                        replayBudget, 0, tracer, i);
    t.check(perfbench::mappingMismatch(real, replay).empty() && realBudget == replayBudget,
            "faithful replay of point " + std::to_string(i) + " matches");
    const std::size_t before = tracer.counts().size();
    const auto skipped =
        perfbench::replayMapOntoBudget(setup->cache, arch, point.options, perturbedBudget, 0,
                                       tracer, i, {.skipFirstGrowth = true});
    bool grew = false;
    for (std::size_t c = before; c < tracer.counts().size(); ++c) {
      grew = grew || (std::strcmp(tracer.counts()[c].name, "analysis.computes") == 0 &&
                      c > before + 3);
    }
    if (grew) {
      ++perturbed;
      t.check(!perfbench::mappingMismatch(real, skipped).empty(),
              "replay without its first growth round of point " + std::to_string(i) +
                  " is caught");
    }
  }
  t.check(perturbed > 0, "the sweep has points with growth rounds to perturb");
  for (const std::string& f : t.failures) {
    std::fprintf(stderr, "self-test failed: %s\n", f.c_str());
  }
  std::printf("self-test: %zu checks, %zu failed (%zu perturbed replays)\n", t.attempted,
              t.failed, perturbed);
  return t.failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------ main

void printMetrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload dse_mjpeg|serve_replay|serve_faults "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       perfbench_driver --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool seedGiven = false;
  double seconds = 10;
  bool traced = false;
  std::string traceDir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      return selfTest();
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      seedGiven = true;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      traced = value == "1";
    } else if (arg == "--trace-dir") {
      traceDir = value;
    } else {
      return usage();
    }
  }
  if (workload != "dse_mjpeg" && workload != "serve_replay" && workload != "serve_faults") {
    return usage();
  }
  if (!seedGiven) {
    seed = workload == "dse_mjpeg" ? 1 : workload == "serve_replay" ? 42 : 7;
  }
  // Library warnings (one per rejected mapping) would put stderr writes
  // into the timed calls; the benchmark reports rejections as counts.
  setLogLevel(LogLevel::Off);
  keepFreedMemory();

  Outcome outcome;
  Report report;
  const std::string host = fingerprint();
  try {
    if (workload == "dse_mjpeg") {
      dseWorkload(seed, seconds, traced, outcome, report);
    } else {
      serveWorkload(workload, seed, seconds, traced, outcome, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n", workload.c_str(), e.what());
    return 3;
  }
  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("fingerprint = %s\n", host.c_str());
  for (const std::string& f : outcome.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::vector<Metric> metrics;
  if (traced) {
    if (report.tracer) {
      const std::string path = traceDir + "/trace-" + workload + ".jsonl";
      if (report.tracer->writeJsonl(path)) {
        std::printf("trace = %s (%zu spans)\n", path.c_str(), report.tracer->spans().size());
      }
    }
    // A stage replay that disagrees with the mapping step voids the
    // per-layer numbers.
    if (outcome.failed == 0) {
      metrics = completeLayers(report.layers);
    }
  } else {
    metrics = report.endToEnd;
    metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  }
  for (const Metric& m : metrics) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
              outcome.failed == 0 ? "true" : "false", outcome.attempted, outcome.failed);
  printMetrics(metrics);
  std::printf("}\n");
  return outcome.failed == 0 ? 0 : 1;
}
