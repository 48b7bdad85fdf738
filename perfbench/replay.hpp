// Stage-by-stage replay of mapping::mapOntoBudget built only from the
// library's public functions, so the traced run can time each stage of
// the mapping step from outside: bind, schedule, route (with the same
// global wire-halving retry), TDM inflation from public budget queries,
// the binding-aware model, the incremental analysis context, and the
// buffer-growth rounds (patched through BindingAwareModel::capacityEdges).
//
// A replay is only trusted when mappingMismatch() finds it bit-identical
// to the real mapOntoBudget result on a copy of the same budget.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mapping/flow.hpp"
#include "platform/resource_budget.hpp"
#include "trace.hpp"

namespace perfbench {

/// Deliberate deviations from mapOntoBudget, for the self-test that
/// proves mappingMismatch() catches a wrong replay.
struct ReplayPerturbation {
  /// Skip the buffer enlargement of the first growth round.
  bool skipFirstGrowth = false;
};

/// Replay the mapping step for `client` on `budget` (advanced only on
/// success, like mapOntoBudget). Stage spans and the analysis counts
/// (collapse/solve nanoseconds, computes, HSDF actors) go to `tracer`
/// under `request`. Requires options.incrementalAnalysis; a warm-start
/// handle in `options` is adopted and exported like the mapping step does.
std::optional<mamps::mapping::MappingResult> replayMapOntoBudget(
    const mamps::mapping::AppAnalysisCache& cache, const mamps::platform::Architecture& arch,
    const mamps::mapping::MappingOptions& options, mamps::platform::ResourceBudget& budget,
    std::uint32_t client, Tracer& tracer, std::uint64_t request,
    const ReplayPerturbation& perturbation = {});

/// Empty when `a` and `b` agree on feasibility, status, rational,
/// constraint verdict, binding, schedules, TDM shares, buffer tokens and
/// routes; otherwise the first field that differs.
std::string mappingMismatch(const std::optional<mamps::mapping::MappingResult>& a,
                            const std::optional<mamps::mapping::MappingResult>& b);

}  // namespace perfbench
