// In-memory span tracing for the benchmark (bench-side only: the spans
// wrap calls INTO the owlcl libraries, nothing inside them is changed).
//
// A span is one timed call at a layer boundary: name, start, end, the
// span that caused it, and the request / classification id it belongs
// to. Spans are appended to per-thread buffers owned by the Tracer and
// read back only when every traced thread is quiescent (after the run),
// so recording is one steady_clock read plus a vector push_back.
//
// Self time of a span = its duration minus the part of its interval that
// its children cover (children may run concurrently on other threads, so
// the covered part is the union of their intervals, clipped to the
// parent's interval).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      ///< static string: "<layer>.<call>"
  std::uint64_t startNs = 0;  ///< steady-clock ns since the tracer's epoch
  std::uint64_t endNs = 0;
  std::uint32_t id = 0;       ///< unique per tracer, never 0
  std::uint32_t parent = 0;   ///< 0 = root
  std::uint64_t req = 0;      ///< request / classification id
  std::int64_t value = 0;     ///< call-specific payload (e.g. a verdict)

  std::uint64_t durationNs() const { return endNs - startNs; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// A disabled tracer records nothing; decorators stay installed, so a
  /// run can compare the same object graph with and without recording.
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Reserves a span id (so children can name their parent before the
  /// parent span ends).
  std::uint32_t newId() {
    return nextId_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a finished span to the calling thread's buffer.
  void record(const Span& span);

  /// All recorded spans, in no particular order. Quiescent-only.
  std::vector<Span> spans() const;

  /// Drops every span. Quiescent-only.
  void clear();

  /// The innermost span open on the calling thread (0 = none): the
  /// implicit parent of the next span this thread opens.
  static std::uint32_t current();

 private:
  friend class ScopedSpan;
  std::vector<Span>& local();

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> instance_;  // fresh per clear(): threads re-register
  std::atomic<std::uint32_t> nextId_{1};
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span on the calling thread. A null or disabled tracer records
/// nothing, so one code path serves traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t req = 0,
             std::uint32_t parent = kImplicitParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }
  void setValue(std::int64_t v) { span_.value = v; }

  static constexpr std::uint32_t kImplicitParent = ~std::uint32_t{0};

 private:
  Tracer* tracer_;
  Span span_;
  std::uint32_t savedCurrent_ = 0;
};

/// Self time per span id: duration minus the union of its children's
/// intervals clipped to its own interval.
std::map<std::uint32_t, std::uint64_t> selfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
