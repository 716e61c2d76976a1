#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr size_t kMaxExportedPerThread = 200000;

struct Frame {
  const char* name;
  int64_t start_ns;
  int64_t child_ns;
};

struct Event {
  const char* name;
  int64_t start_ns;
  int64_t dur_ns;
};

struct PairHash {
  size_t operator()(const std::pair<const char*, const char*>& p) const {
    return std::hash<const void*>()(p.first) * 31 +
           std::hash<const void*>()(p.second);
  }
};

// One recording thread's spans. Only its own thread touches it until
// CollectSpans/WriteChromeTrace run after the thread has been joined.
struct ThreadBuf {
  uint32_t tid = 0;
  std::vector<Frame> stack;
  std::vector<Event> events;
  uint64_t dropped = 0;
  std::unordered_map<const char*, SpanTotals> by_name;
  // (region name, span name) -> self ns of that span inside the region.
  std::unordered_map<std::pair<const char*, const char*>, int64_t, PairHash>
      region_self;
  std::unordered_map<const char*, RegionBudget> regions;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::shared_ptr<ThreadBuf>> g_threads;  // guarded by g_mu

ThreadBuf* CurrentBuf() {
  thread_local std::shared_ptr<ThreadBuf> buf;
  if (!buf) {
    buf = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lock(g_mu);
    buf->tid = static_cast<uint32_t>(g_threads.size() + 1);
    g_threads.push_back(buf);
  }
  return buf.get();
}

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; s++) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetSpansEnabled(bool enabled) { g_enabled.store(enabled); }
bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name) : active_(SpansEnabled()) {
  if (active_) CurrentBuf()->stack.push_back(Frame{name, NowNanos(), 0});
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end = NowNanos();
  ThreadBuf* buf = CurrentBuf();
  const Frame frame = buf->stack.back();
  buf->stack.pop_back();
  const int64_t dur = end - frame.start_ns;
  const int64_t self = dur - frame.child_ns;
  const char* region =
      buf->stack.empty() ? frame.name : buf->stack.front().name;
  if (!buf->stack.empty()) {
    buf->stack.back().child_ns += dur;
  } else {
    RegionBudget& r = buf->regions[frame.name];
    r.count++;
    r.total_ns += dur;
  }
  SpanTotals& totals = buf->by_name[frame.name];
  totals.count++;
  totals.total_ns += dur;
  totals.self_ns += self;
  buf->region_self[{region, frame.name}] += self;
  if (buf->events.size() < kMaxExportedPerThread) {
    buf->events.push_back(Event{frame.name, frame.start_ns, dur});
  } else {
    buf->dropped++;
  }
}

SpanReport CollectSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  SpanReport report;
  for (const auto& buf : g_threads) {
    report.dropped += buf->dropped;
    for (const auto& [name, t] : buf->by_name) {
      SpanTotals& out = report.by_name[name];
      out.count += t.count;
      out.total_ns += t.total_ns;
      out.self_ns += t.self_ns;
    }
    for (const auto& [name, r] : buf->regions) {
      RegionBudget& out = report.by_region[name];
      out.count += r.count;
      out.total_ns += r.total_ns;
    }
    for (const auto& [key, self] : buf->region_self) {
      const std::string layer = key.first == key.second ? std::string("e2e")
                                                        : LayerOf(key.second);
      report.by_region[key.first].layer_self_ns[layer] += self;
    }
  }
  return report;
}

bool WriteChromeTrace(const std::string& path) {
  struct Out {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    uint32_t tid;
  };
  std::vector<Out> all;
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& buf : g_threads) {
      dropped += buf->dropped;
      for (const Event& e : buf->events)
        all.push_back(Out{e.name, e.start_ns, e.dur_ns, buf->tid});
    }
  }
  // Start order, enclosing span first: per-thread timestamps then never go
  // backwards, which is what the trace checker requires.
  std::sort(all.begin(), all.end(), [](const Out& a, const Out& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  const int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < all.size(); i++) {
    const Out& e = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":%u}",
                 i == 0 ? "" : ",", JsonEscape(e.name).c_str(),
                 JsonEscape(LayerOf(e.name).c_str()).c_str(),
                 static_cast<long long>((e.start_ns - t0) / 1000),
                 static_cast<long long>(e.dur_ns / 1000), e.tid);
  }
  std::fprintf(f,
               "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
               "\"dropped_events\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
