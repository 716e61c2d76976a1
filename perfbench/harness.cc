#include "harness.h"

#include <fcntl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "crypto/sha256.h"

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      args->reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->data_dir.empty() || args->seconds < 1 ||
      (!args->reference && args->workload.empty())) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload <tpcc|commit-durable|audit> "
                 "--seed N --seconds S --trace 0|1 --data-dir DIR "
                 "[--trace-out FILE]\n"
                 "       ledger_bench --reference --seconds S --data-dir "
                 "DIR\n");
    return false;
  }
  return true;
}

unsigned WorkerThreads() {
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  return std::min(4u, cores);
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kTransaction: return "transaction";
    case Op::kDigest: return "digest";
    case Op::kVerification: return "verification";
    case Op::kReceipt: return "receipt";
    case Op::kReopen: return "reopen";
  }
  return "?";
}

void OpTally::Fail(Op op, const std::string& why) {
  failed_[static_cast<int>(op)].fetch_add(1);
  if (printed_.fetch_add(1) < 10)
    std::fprintf(stderr, "failed %s: %s\n", OpName(op), why.c_str());
}

uint64_t OpTally::total_attempted() const {
  uint64_t n = 0;
  for (const auto& a : attempted_) n += a.load();
  return n;
}

uint64_t OpTally::total_failed() const {
  uint64_t n = 0;
  for (const auto& f : failed_) n += f.load();
  return n;
}

void OpTally::Print() const {
  for (int i = 0; i < kOpTypes; i++) {
    std::printf("ops: %-12s attempted %10llu  failed %llu\n",
                OpName(static_cast<Op>(i)),
                static_cast<unsigned long long>(attempted_[i].load()),
                static_cast<unsigned long long>(failed_[i].load()));
  }
}

void Checks::Expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    passed_++;
    return;
  }
  failures_.push_back(what);
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

bool Checks::all_passed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty();
}

namespace {

const char* FilesystemName(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: return "other";
  }
}

// Median of 64 write+fsync rounds of one 4 KiB block, in microseconds.
double RawFsyncP50Micros(const std::string& dir) {
  const std::string path = dir + "/fsync_probe";
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return -1;
  char block[4096];
  std::memset(block, 'f', sizeof(block));
  Samples samples;
  for (int i = 0; i < 64; i++) {
    const int64_t start = NowNanos();
    if (::pwrite(fd, block, sizeof(block), 0) !=
            static_cast<ssize_t>(sizeof(block)) ||
        ::fsync(fd) != 0) {
      ::close(fd);
      ::unlink(path.c_str());
      return -1;
    }
    samples.Add(static_cast<double>(NowNanos() - start) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return samples.Median();
}

}  // namespace

void PrintMachineStamp(const std::string& dir) {
  std::printf("machine: cores=%u sha256_kernel=%s filesystem=%s "
              "raw_fsync_p50_us=%.1f\n",
              std::thread::hardware_concurrency(), Sha256::KernelName(),
              FilesystemName(dir), RawFsyncP50Micros(dir));
}

void RegistryDelta::AddDiff(const MetricsSnapshot& before,
                            const MetricsSnapshot& after) {
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    counters_[name] += v - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, h] : after.histograms) {
    auto it = before.histograms.find(name);
    uint64_t count = h.count, sum = h.sum;
    if (it != before.histograms.end()) {
      count -= it->second.count;
      sum -= it->second.sum;
    }
    hists_[name].first += count;
    hists_[name].second += sum;
  }
}

uint64_t RegistryDelta::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryDelta::hist_mean(const std::string& name) const {
  auto it = hists_.find(name);
  if (it == hists_.end() || it->second.first == 0) return 0.0;
  return static_cast<double>(it->second.second) / it->second.first;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < items_.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", items_[i].first.c_str(),
                  items_[i].second.first);
    out += buf;
    out += "\"unit\": \"" + items_[i].second.second + "\"}";
  }
  return out + "}";
}

void PrintResult(bool correct, const OpTally& ops, const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.total_attempted()),
              static_cast<unsigned long long>(ops.total_failed()),
              metrics.ToJson().c_str());
  std::fflush(stdout);
}

Result<Transaction*> Client::Begin(const std::string& user) {
  ScopedSpan span("txn.begin");
  return db_->Begin(user);
}

Status Client::Commit(Transaction* txn) {
  ScopedSpan span("ledger.commit");
  return db_->Commit(txn);
}

void Client::Abort(Transaction* txn) {
  ScopedSpan span("txn.abort");
  db_->Abort(txn);
}

Status Client::Insert(Transaction* txn, const std::string& table,
                      const Row& row) {
  ScopedSpan span(SpansEnabled() && IsLedger(table) ? "ledger.insert"
                                                    : "storage.insert");
  return db_->Insert(txn, table, row);
}

Status Client::Update(Transaction* txn, const std::string& table,
                      const Row& row) {
  ScopedSpan span(SpansEnabled() && IsLedger(table) ? "ledger.update"
                                                    : "storage.update");
  return db_->Update(txn, table, row);
}

Status Client::Delete(Transaction* txn, const std::string& table,
                      const KeyTuple& key) {
  ScopedSpan span(SpansEnabled() && IsLedger(table) ? "ledger.delete"
                                                    : "storage.delete");
  return db_->Delete(txn, table, key);
}

Result<Row> Client::Get(Transaction* txn, const std::string& table,
                        const KeyTuple& key) {
  ScopedSpan span("storage.get");
  return db_->Get(txn, table, key);
}

Result<Row> Client::SeekFirst(Transaction* txn, const std::string& table,
                              const KeyTuple& prefix) {
  ScopedSpan span("storage.seek");
  return db_->SeekFirst(txn, table, prefix);
}

Result<std::vector<Row>> Client::Scan(Transaction* txn,
                                      const std::string& table) {
  ScopedSpan span("storage.scan");
  return db_->Scan(txn, table);
}

}  // namespace perfbench
