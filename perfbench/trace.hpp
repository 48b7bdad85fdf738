// In-memory span and counter recorder for the traced benchmark run.
// Spans are recorded by the driver around calls into the library's
// public functions (the library itself is not instrumented); each span
// has a name, start and end on the steady clock, the enclosing span as
// parent, and a request id (design-point or event index). Everything is
// kept in memory and written out as JSON lines when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };
  struct Count {
    const char* name = "";
    std::uint64_t request = 0;
    double value = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Traced phases stop once this many spans are held, which bounds the
  /// memory and the written trace (about 100 bytes a span).
  static constexpr std::size_t kSpanBudget = 250'000;
  [[nodiscard]] bool full() const { return spans_.size() >= kSpanBudget; }

  /// Open a span under the innermost open one; -1 when disabled.
  std::int32_t begin(const char* name, std::uint64_t request) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.request = request;
    span.parent = open_.empty() ? -1 : open_.back();
    span.startNs = now();
    spans_.push_back(span);
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return open_.back();
  }

  /// Close the innermost open span (`id` from begin()); returns its
  /// duration in nanoseconds, 0 when disabled.
  std::int64_t end(std::int32_t id) {
    if (id < 0) {
      return 0;
    }
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.endNs = now();
    open_.pop_back();
    return span.endNs - span.startNs;
  }

  /// Record a count at a layer boundary (ignored when disabled).
  void count(const char* name, std::uint64_t request, double value) {
    if (enabled_) {
      counts_.push_back({name, request, value});
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

  /// Per-span self time: duration minus the time its direct children cover.
  [[nodiscard]] std::vector<std::int64_t> selfNs() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].endNs - spans_[i].startNs;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.endNs - span.startNs;
      }
    }
    return self;
  }

  /// Write every span and count as one JSON object per line.
  bool writeJsonl(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request)
        : tracer_(tracer), id_(tracer.begin(name, request)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t id_;
  };

 private:
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<Count> counts_;
};

}  // namespace perfbench
