// Summary statistics for the benchmark driver: nearest-rank
// percentiles, the choice of the highest percentile a sample set can
// support, and ratios that refuse an empty base.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least a share
/// `p` of all samples at or below it. `p` in (0, 1]; empty input gives 0.
double percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
std::size_t samplesBeyond(std::size_t n, double p);

/// The highest of `candidates` (ascending order not required) whose
/// nearest-rank percentile has at least `minBeyond` samples above it, or
/// 0 when none qualifies.
double highestSupportedPercentile(std::size_t n, const std::vector<double>& candidates,
                                  std::size_t minBeyond = 10);

/// num / base; throws std::domain_error when `base` is 0, so a share is
/// never reported against an empty base.
double ratio(double num, double base);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// One repeat of identical work (a sweep, or a pass over a recorded
/// serving stream): the latency of each operation that is a latency
/// sample, the time of every other timed part, and the operations made.
struct Repeat {
  std::vector<double> latencyMs;
  std::vector<double> otherS;
  std::size_t ops = 0;
};

/// The fastest repeat of each operation. Repeats of one group run the
/// same operations in the same order, so operation k of every repeat is
/// the same work and its minimum over the repeats is its cost on a quiet
/// host, whatever the host's speed did in between. Only the running
/// minima are kept, so memory does not grow with the run.
class FastestRepeat {
 public:
  /// Adds one repeat of `group`. Throws std::invalid_argument when its
  /// shape differs from the group's first repeat: then the repeats were
  /// not identical work.
  void add(std::size_t group, const Repeat& repeat);

  /// Repeats added, over all groups.
  [[nodiscard]] std::size_t repeats() const { return repeats_; }

  /// Each latency operation's fastest time, over all groups (ms).
  [[nodiscard]] std::vector<double> latencyMs() const;

  /// Operations per second of the fastest times: one repeat of every
  /// group, each part at its minimum.
  [[nodiscard]] double opsPerS() const;

 private:
  std::map<std::size_t, Repeat> minima_;
  std::size_t repeats_ = 0;
};

}  // namespace perfbench
