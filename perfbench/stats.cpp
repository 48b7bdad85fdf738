#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

// 1-based nearest rank ceil(p * n), clamped to [1, n]. The small epsilon
// keeps p * n that is integral in exact arithmetic (0.99 * 1000) from
// rounding up to the next rank.
std::size_t nearestRank(std::size_t n, double p) {
  const double exact = p * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t rank = nearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearestRank(n, p);
}

double highestSupportedPercentile(std::size_t n, const std::vector<double>& candidates,
                                  std::size_t minBeyond) {
  double best = 0.0;
  for (const double p : candidates) {
    if (p > best && samplesBeyond(n, p) >= minBeyond) {
      best = p;
    }
  }
  return best;
}

double ratio(double num, double base) {
  if (base == 0.0) {
    throw std::domain_error("ratio with an empty base");
  }
  return num / base;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void FastestRepeat::add(std::size_t group, const Repeat& repeat) {
  ++repeats_;
  const auto [it, first] = minima_.try_emplace(group, repeat);
  if (first) {
    return;
  }
  Repeat& m = it->second;
  if (m.latencyMs.size() != repeat.latencyMs.size() || m.otherS.size() != repeat.otherS.size() ||
      m.ops != repeat.ops) {
    throw std::invalid_argument("a repeat differs in shape from the first of its group");
  }
  for (std::size_t k = 0; k < m.latencyMs.size(); ++k) {
    m.latencyMs[k] = std::min(m.latencyMs[k], repeat.latencyMs[k]);
  }
  for (std::size_t k = 0; k < m.otherS.size(); ++k) {
    m.otherS[k] = std::min(m.otherS[k], repeat.otherS[k]);
  }
}

std::vector<double> FastestRepeat::latencyMs() const {
  std::vector<double> out;
  for (const auto& [group, m] : minima_) {
    out.insert(out.end(), m.latencyMs.begin(), m.latencyMs.end());
  }
  return out;
}

double FastestRepeat::opsPerS() const {
  double seconds = 0.0;
  std::size_t ops = 0;
  for (const auto& [group, m] : minima_) {
    seconds += std::accumulate(m.latencyMs.begin(), m.latencyMs.end(), 0.0) / 1e3;
    seconds += std::accumulate(m.otherS.begin(), m.otherS.end(), 0.0);
    ops += m.ops;
  }
  return ratio(static_cast<double>(ops), seconds);
}

}  // namespace perfbench
