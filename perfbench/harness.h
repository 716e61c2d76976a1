// Shared pieces of the ledger benchmark: arguments, latency samples,
// per-operation tallies, correctness checks, the machine stamp, registry
// deltas, the result line, and Client — the benchmark's only path into
// LedgerDatabase DML, which wraps every call in a span.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ledger/ledger_database.h"
#include "spans.h"

namespace perfbench {

using namespace sqlledger;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;   // scratch directory owned by this run
  std::string trace_out;  // Chrome trace path (traced runs)
  bool reference = false; // print the enable_ledger reference figures
};

/// Parses argv; returns false (after printing usage) on bad input.
bool ParseArgs(int argc, char** argv, Args* args);

/// Worker threads: min(4, cores).
unsigned WorkerThreads();

double SecondsSince(int64_t start_ns);

/// Timing samples in any unit.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Percentile by linear interpolation between closest ranks (p in
  /// [0, 100]); 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }

 private:
  std::vector<double> values_;
};

/// Operation types whose attempts and failures every run reports.
enum class Op { kTransaction, kDigest, kVerification, kReceipt, kReopen };
constexpr int kOpTypes = 5;
const char* OpName(Op op);

class OpTally {
 public:
  void Attempt(Op op) { attempted_[static_cast<int>(op)].fetch_add(1); }
  /// Counts a failed operation and prints the first few reasons.
  void Fail(Op op, const std::string& why);
  uint64_t total_attempted() const;
  uint64_t total_failed() const;
  void Print() const;

 private:
  std::atomic<uint64_t> attempted_[kOpTypes] = {};
  std::atomic<uint64_t> failed_[kOpTypes] = {};
  std::atomic<int> printed_{0};
};

/// Correctness checks: each failed check is printed and makes the run's
/// `correct` false.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_passed() const;
  size_t passed() const { return passed_; }

 private:
  mutable std::mutex mu_;
  size_t passed_ = 0;
  std::vector<std::string> failures_;
};

/// Prints cores, SHA-256 kernel, filesystem of `dir` and a raw fsync p50
/// measured on the benchmark's own file in `dir`.
void PrintMachineStamp(const std::string& dir);

/// Counter and histogram deltas of a MetricRegistry, summed over several
/// database instances (a reopen replaces the registry).
class RegistryDelta {
 public:
  void AddDiff(const MetricsSnapshot& before, const MetricsSnapshot& after);
  uint64_t counter(const std::string& name) const;
  /// Mean of the histogram's recorded values; 0 when nothing was recorded.
  double hist_mean(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists_;  // count, sum
};

/// The result line's metrics, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Prints the final line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, const OpTally& ops, const MetricSet& metrics);

/// The benchmark's door into LedgerDatabase. Each call runs inside a span
/// named after the layer it exercises: DML on ledger tables is "ledger.*",
/// the same calls on regular tables and all reads are "storage.*", and
/// Begin/Abort are "txn.*".
class Client {
 public:
  Client(LedgerDatabase* db, const std::set<std::string>* ledger_tables)
      : db_(db), ledger_tables_(ledger_tables) {}

  Result<Transaction*> Begin(const std::string& user);
  Status Commit(Transaction* txn);
  void Abort(Transaction* txn);
  Status Insert(Transaction* txn, const std::string& table, const Row& row);
  Status Update(Transaction* txn, const std::string& table, const Row& row);
  Status Delete(Transaction* txn, const std::string& table,
                const KeyTuple& key);
  Result<Row> Get(Transaction* txn, const std::string& table,
                  const KeyTuple& key);
  Result<Row> SeekFirst(Transaction* txn, const std::string& table,
                        const KeyTuple& prefix);
  Result<std::vector<Row>> Scan(Transaction* txn, const std::string& table);
  LedgerDatabase* db() const { return db_; }

 private:
  bool IsLedger(const std::string& table) const {
    return ledger_tables_->count(table) != 0;
  }
  LedgerDatabase* db_;
  const std::set<std::string>* ledger_tables_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
