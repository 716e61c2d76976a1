// Span recorder for the benchmark's traced runs. Spans are recorded only by
// the benchmark, around its calls into the library's public functions; the
// library itself is not instrumented by this file.
//
// Each span has a name of the form "<layer>.<operation>" (ledger.insert,
// storage.get, crypto.block_tree, ...). Spans nest per thread: the
// outermost span of a thread is its end-to-end region (layer "e2e"), and a
// span's self time is its duration minus the time covered by its direct
// children. Aggregates cover every span; the Chrome trace export keeps the
// first kMaxExportedPerThread spans of each thread and counts the rest as
// dropped.
//
// Disabled (the default), a ScopedSpan reads no clock and records nothing,
// so untraced runs measure the library without tracing overhead.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNanos();

/// Turns span recording on or off for spans opened from now on. Call only
/// while no span is open on any thread.
void SetSpansEnabled(bool enabled);
bool SpansEnabled();

class ScopedSpan {
 public:
  /// `name` must be a string literal ("<layer>.<operation>").
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// Totals of every span with one name.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / count;
  }
};

/// Self time of each layer inside one end-to-end region, summed over the
/// threads that ran it. The region's own self time is its residual: time
/// inside the region not covered by any layer span.
struct RegionBudget {
  uint64_t count = 0;   // region spans
  int64_t total_ns = 0; // summed region durations
  std::map<std::string, int64_t> layer_self_ns;  // includes "e2e" residual
};

struct SpanReport {
  std::map<std::string, SpanTotals> by_name;
  std::map<std::string, RegionBudget> by_region;
  uint64_t dropped = 0;
};

/// Aggregates all recorded spans. Call after every recording thread has
/// been joined.
SpanReport CollectSpans();

/// Writes the recorded spans as Chrome trace-event JSON (the format of the
/// library's Tracer, checked by scripts/check_trace.py). Returns false on
/// I/O failure.
bool WriteChromeTrace(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
