// The pieces every workload shares: Ledger (one durable database plus its
// on-disk digest store), RunState (the samples a run collects), AuditMix
// (the fig9-shaped transactions: five 260-byte rows each, a mix of inserts,
// updates and deletes) and RunAuditPass, which audits whatever ledger a
// workload wrote: a small append with digests, incremental and full
// verification, receipts and their offline checks, a checkpoint and a
// reopen.

#ifndef PERFBENCH_AUDIT_PASS_H_
#define PERFBENCH_AUDIT_PASS_H_

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "ledger/digest_store.h"
#include "util/random.h"

namespace perfbench {

/// Samples and tallies of one run.
struct RunState {
  Args args;
  OpTally ops;
  Checks checks;
  RegistryDelta registry;

  // End to end.
  Samples setup_s;
  Samples txn_us;          // Begin -> Commit of the workload's txns
  Samples txn_rate;        // per window: commits per second of txn time
  Samples txn_window_p99;  // per window: p99 of Begin -> Commit
  Samples digest_us;
  Samples verify_full_rows_per_s;
  Samples verify_parallel_rows_per_s;
  Samples verify_incremental_ms;
  Samples receipt_make_us;
  Samples receipt_verify_us;
  Samples recovery_s;
  Samples stored_bytes_per_row_version;

  // Per layer (traced runs).
  Samples verify_reanchor_ms, verify_tree_hash_ms, verify_view_check_ms,
      verify_residual_ms;
  Samples snapshot_ms, scan_rows_per_s, leaf_hash_per_s, recovery_ms;
  uint64_t verify_row_versions = 0, verify_blocks = 0,
           verify_incremental_row_versions = 0;

  // Tracing overhead: txn rate with spans off / on within a traced run.
  double untraced_txns = 0, untraced_s = 0, traced_txns = 0, traced_s = 0;
  /// Closes one measurement window of a txn-issuing phase: the latencies
  /// of its commits and the seconds spent issuing them, digests excluded
  /// (digest_us times those). Per-window figures, reported as medians over
  /// windows, keep a stall of the shared host to the windows it hit.
  void AddTxnWindow(const Samples& latencies_us, double busy_s) {
    const double txns = static_cast<double>(latencies_us.size());
    txn_rate.Add(txns / busy_s);
    txn_window_p99.Add(latencies_us.Percentile(99));
    txn_us.Append(latencies_us);
    (SpansEnabled() ? traced_txns : untraced_txns) += txns;
    (SpansEnabled() ? traced_s : untraced_s) += busy_s;
  }
};

/// One database under a data directory, with digest protection into an
/// ImmutableBlobDigestStore beside it. Digests are taken synchronously:
/// GenerateAndSubmit, then DrainFully.
class Ledger {
 public:
  static std::unique_ptr<Ledger> Create(const std::string& root, bool sync_wal,
                                        RunState* rs);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  LedgerDatabase* db() const { return db_.get(); }
  const std::string& dir() const { return options_.data_dir; }
  const LedgerDatabaseOptions& options() const { return options_; }
  /// Tables whose DML Client times as "ledger.*".
  std::set<std::string>* ledger_tables() { return &ledger_tables_; }
  Client client() { return Client(db_.get(), &ledger_tables_); }

  /// One digest generated, made durable in the outbox and uploaded; adds
  /// its latency to `samples` when given.
  Status Digest(Samples* samples);
  /// This incarnation's digests, as listed from the blob store.
  std::vector<DatabaseDigest> Digests() const;
  /// Closes and reopens the database (recovery); records recovery_s and
  /// recovery_ms. Fatal on failure.
  void Reopen();
  /// Adds the registry's change since the last harvest to rs->registry.
  void Harvest();
  /// Bytes of the newest checkpoint plus the live WAL.
  uint64_t StoredBytes() const;
  /// Row versions the verifier counts in system ledger tables (schema
  /// metadata), read from their stores.
  uint64_t SystemRowVersions();

 private:
  Ledger(LedgerDatabaseOptions options, std::string store_dir, RunState* rs);
  bool Open();

  LedgerDatabaseOptions options_;
  std::string store_dir_;
  RunState* rs_;
  std::unique_ptr<ImmutableBlobDigestStore> store_;
  std::unique_ptr<LedgerDatabase> db_;
  std::set<std::string> ledger_tables_;
  MetricsSnapshot baseline_;
};

/// Fig9-shaped transactions on the updateable ledger table "audit_rows"
/// (bucket, id, a, payload: 260 bytes of cells), plus one update of the
/// regular table "audit_meta" per transaction. The mix keeps its own model
/// of the live rows, so it knows which row a prefix seek must return and how
/// many row versions the verifier must count.
class AuditMix {
 public:
  static constexpr int kBuckets = 16;
  static constexpr int kRowsPerTxn = 5;
  static constexpr size_t kPayloadBytes = 236;

  explicit AuditMix(Checks* checks) : checks_(checks) {}
  Status Create(Ledger* ledger);
  /// One transaction of five row operations.
  Status RunOne(Client* client, Random* rng);

  /// 1 per insert, 2 per update, 1 per delete.
  uint64_t ledger_row_versions() const {
    return inserts_ + 2 * updates_ + deletes_;
  }
  uint64_t live_rows() const { return inserts_ - deletes_; }
  uint64_t history_rows() const { return updates_ + deletes_; }

 private:
  Checks* checks_;
  std::vector<std::deque<int64_t>> live_;  // per bucket, ascending ids
  std::vector<int64_t> next_id_;
  uint64_t inserts_ = 0, updates_ = 0, deletes_ = 0;
};

struct PassConfig {
  /// Rounds of (append, incremental verification).
  int incremental_rounds = 1;
  int append_txns = 1000;  // per round, with a digest every 100
  /// Full verifications on 1 thread and on WorkerThreads() threads.
  int verify_repeats = 1;
  int reopens = 1;
};

/// Verifies with VerifyLedgerIncremental so the next pass's incremental
/// run has a watermark to resume from.
void SeedIncrementalWatermark(RunState* rs, Ledger* ledger);

/// One audit pass (see the file comment). `user_row_versions` returns the
/// row versions the workload's generators wrote to user ledger tables.
void RunAuditPass(RunState* rs, Ledger* ledger, AuditMix* mix, Random* rng,
                  const PassConfig& config,
                  const std::function<uint64_t()>& user_row_versions);

/// Negative control on a throwaway copy of the database: one flipped byte
/// in an audit_rows row must produce an invariant-4 violation.
void TamperControl(RunState* rs, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_AUDIT_PASS_H_
