// Ledger benchmark driver: one command, three workloads (tpcc,
// commit-durable, audit), end-to-end metrics with spans off (--trace 0) or
// per-layer metrics with spans on (--trace 1). See README.md.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "audit_pass.h"
#include "harness.h"
#include "tpcc_mix.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// Workload sizes. Each run does the same work for the same --seconds
// (about that long on a 4-core machine), so the ledgers the audit passes read
// have the same size whatever the speed of the code under test.
constexpr uint64_t kTpccTxnsPerSecond = 8000;
constexpr int kTpccWarmupTxns = 2000;
constexpr int kTpccDigestEvery = 1000;
constexpr uint64_t kDurableTxnsPerSessionSecond = 2000;
constexpr int kDurableWarmupTxns = 100;   // per session
constexpr int kDurableDigestEvery = 500;  // per session-0 commits
constexpr int kAuditSetupTxns = 20000;
constexpr int kAuditSetupDigestEvery = 1000;
constexpr int kAuditPassSeconds = 2;  // one audit pass per 2 s of --seconds
constexpr double kWindowSeconds = 0.25;  // txn_per_s measurement window

/// The audit pass that closes the tpcc and commit-durable runs: five rounds
/// of incremental verification, three full verifications of each kind and
/// five reopens, so each figure is a median.
PassConfig TailPass() {
  PassConfig pass;
  pass.incremental_rounds = 5;
  pass.append_txns = 200;
  pass.verify_repeats = 3;
  pass.reopens = 5;
  return pass;
}

/// Seeded generator for one purpose of one run.
Random Rng(const Args& args, uint64_t purpose) {
  return Random(args.seed * 0x9E3779B97F4A7C15ULL + purpose);
}

/// Runs `make` `repeats` times in fresh directories, records the median as
/// setup_s, and keeps the last result.
template <typename T, typename Fn>
T RepeatedSetup(RunState* rs, int repeats, Fn make) {
  T kept{};
  for (int i = 0; i < repeats; i++) {
    const std::string dir = rs->args.data_dir + "/setup-" + std::to_string(i);
    const int64_t start = NowNanos();
    T made = make(dir);
    rs->setup_s.Add(SecondsSince(start));
    if (i + 1 < repeats) {
      made = T{};
      std::error_code ec;
      fs::remove_all(dir, ec);
    } else {
      kept = std::move(made);
    }
  }
  return kept;
}

/// A traced run alternates quarters of the measured phase with spans off and
/// on, so it can report the tracing overhead; returns the transactions of
/// each part. Spans are on in the odd-numbered parts.
std::vector<uint64_t> PhaseSplits(const Args& args, uint64_t txns) {
  if (!args.trace) return {txns};
  return {txns / 4, txns / 4, txns / 4, txns - 3 * (txns / 4)};
}

// ---- tpcc ----

struct TpccSetup {
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<TpccMix> mix;
};

void RunTpcc(RunState* rs) {
  Random rng = Rng(rs->args, 1);
  TpccSetup s = RepeatedSetup<TpccSetup>(rs, 5, [&](const std::string& dir) {
    TpccSetup out;
    out.ledger = Ledger::Create(dir, /*sync_wal=*/false, rs);
    for (const std::string& t : TpccMix::LedgerTables())
      out.ledger->ledger_tables()->insert(t);
    out.mix = std::make_unique<TpccMix>();
    Random load_rng = Rng(rs->args, 2);
    Client c = out.ledger->client();
    Status st = out.mix->Load(&c, &load_rng);
    rs->checks.Expect(st.ok(), "tpcc load failed: " + st.ToString());
    Random warm = Rng(rs->args, 3);
    for (int i = 0; i < kTpccWarmupTxns; i++)
      rs->checks.Expect(out.mix->RunOne(&c, &warm).ok(),
                        "tpcc warm-up transaction failed");
    (void)out.ledger->Digest(nullptr);
    return out;
  });
  Ledger* ledger = s.ledger.get();
  ledger->Harvest();

  // Closed loop, one session; a digest every kTpccDigestEvery commits.
  uint64_t since_digest = 0;
  const std::vector<uint64_t> phases =
      PhaseSplits(rs->args, kTpccTxnsPerSecond * rs->args.seconds);
  for (size_t phase = 0; phase < phases.size(); phase++) {
    const uint64_t phase_txns = phases[phase];
    SetSpansEnabled(phase % 2 == 1);
    ScopedSpan region("e2e.txn_loop");
    Client c = ledger->client();
    // kWindowSeconds windows; a last partial window counts if it is at
    // least 40% of a window long.
    Samples window_us;
    int64_t window_start = NowNanos();
    int64_t window_digest_ns = 0;
    auto close_window = [&](int64_t now) {
      rs->AddTxnWindow(window_us, static_cast<double>(now - window_start -
                                                      window_digest_ns) /
                                      1e9);
      window_us = Samples();
      window_start = now;
      window_digest_ns = 0;
    };
    for (uint64_t i = 0; i < phase_txns; i++) {
      rs->ops.Attempt(Op::kTransaction);
      const int64_t t0 = NowNanos();
      Status st = s.mix->RunOne(&c, &rng);
      const int64_t t1 = NowNanos();
      if (!st.ok()) {
        rs->ops.Fail(Op::kTransaction, st.ToString());
        continue;
      }
      window_us.Add(static_cast<double>(t1 - t0) / 1e3);
      int64_t now = t1;
      if (++since_digest == kTpccDigestEvery) {
        since_digest = 0;
        (void)ledger->Digest(&rs->digest_us);
        now = NowNanos();
        window_digest_ns += now - t1;
      }
      if (static_cast<double>(now - window_start) / 1e9 >= kWindowSeconds)
        close_window(now);
    }
    const int64_t now = NowNanos();
    if (static_cast<double>(now - window_start) / 1e9 >= 0.4 * kWindowSeconds)
      close_window(now);
  }
  SetSpansEnabled(rs->args.trace);

  AuditMix audit(&rs->checks);
  rs->checks.Expect(audit.Create(ledger).ok(), "audit table creation failed");
  SeedIncrementalWatermark(rs, ledger);
  RunAuditPass(rs, ledger, &audit, &rng, TailPass(), [&] {
    return s.mix->ledger_row_versions() + audit.ledger_row_versions();
  });
  {
    ScopedSpan region("e2e.consistency_check");
    Client c = ledger->client();
    for (const std::string& problem : s.mix->CheckConsistency(&c))
      rs->checks.Expect(false, "tpcc consistency: " + problem);
  }
  ledger->Harvest();
}

// ---- commit-durable ----

Schema CommitRowsSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("session", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 32);
  s.SetPrimaryKey({0});
  return s;
}

constexpr int64_t kSessionKeySpan = int64_t{1} << 40;

void RunCommitDurable(RunState* rs) {
  const unsigned sessions = WorkerThreads();
  std::vector<int64_t> acked(sessions, 0);  // keys 0..acked-1 per session
  auto commit_one = [&](Client* c, unsigned session, Random* rng,
                        Samples* lat) {
    rs->ops.Attempt(Op::kTransaction);
    const int64_t t0 = NowNanos();
    const int64_t id =
        static_cast<int64_t>(session) * kSessionKeySpan + acked[session];
    auto txn = c->Begin("durable");
    Status st = txn.status();
    if (st.ok()) {
      st = c->Insert(*txn, "commit_rows",
                     {Value::BigInt(id), Value::BigInt(session),
                      Value::Varchar(rng->AlphaString(32))});
      if (st.ok()) {
        st = c->Commit(*txn);
      } else {
        c->Abort(*txn);
      }
    }
    if (!st.ok()) {
      rs->ops.Fail(Op::kTransaction, st.ToString());
      return false;
    }
    if (lat != nullptr) lat->Add(static_cast<double>(NowNanos() - t0) / 1e3);
    acked[session]++;
    return true;
  };

  std::unique_ptr<Ledger> owned =
      RepeatedSetup<std::unique_ptr<Ledger>>(rs, 5, [&](const std::string& dir) {
        std::fill(acked.begin(), acked.end(), 0);
        auto ledger = Ledger::Create(dir, /*sync_wal=*/true, rs);
        Status st = ledger->db()->CreateTable("commit_rows", CommitRowsSchema(),
                                              TableKind::kUpdateable);
        rs->checks.Expect(st.ok(), "commit_rows creation failed");
        ledger->ledger_tables()->insert("commit_rows");
        Random warm = Rng(rs->args, 3);
        Client c = ledger->client();
        for (unsigned s = 0; s < sessions; s++)
          for (int i = 0; i < kDurableWarmupTxns; i++)
            commit_one(&c, s, &warm, nullptr);
        (void)ledger->Digest(nullptr);
        return ledger;
      });
  Ledger* ledger = owned.get();
  ledger->Harvest();

  const std::vector<uint64_t> phases =
      PhaseSplits(rs->args, kDurableTxnsPerSessionSecond * rs->args.seconds);
  for (size_t phase = 0; phase < phases.size(); phase++) {
    const uint64_t phase_txns = phases[phase];
    SetSpansEnabled(phase % 2 == 1);
    std::vector<Samples> lat(sessions), digests(sessions);
    const int64_t start = NowNanos();
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < sessions; s++) {
      threads.emplace_back([&, s] {
        ScopedSpan region("e2e.txn_loop");
        Random rng = Rng(rs->args, 100 + 10 * phase + s);
        Client c = ledger->client();
        uint64_t mine = 0;
        for (uint64_t i = 0; i < phase_txns; i++) {
          if (!commit_one(&c, s, &rng, &lat[s])) continue;
          if (++mine % kDurableDigestEvery == 0 && s == 0)
            (void)ledger->Digest(&digests[s]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    // One window per phase: sessions run concurrently, so per-session
    // latencies pool into the phase's wall time.
    Samples phase_us;
    for (unsigned s = 0; s < sessions; s++) {
      phase_us.Append(lat[s]);
      rs->digest_us.Append(digests[s]);
    }
    rs->AddTxnWindow(phase_us, SecondsSince(start));
  }
  SetSpansEnabled(rs->args.trace);

  // Durability: after a close and reopen (WAL replay, no checkpoint) every
  // acknowledged key is present and the row count equals the acks.
  {
    ScopedSpan region("e2e.reopen");
    ledger->Reopen();
  }
  {
    ScopedSpan region("e2e.durability_check");
    Client c = ledger->client();
    int64_t total_acked = 0, missing = 0;
    for (unsigned s = 0; s < sessions; s++) {
      total_acked += acked[s];
      for (int64_t i = 0; i < acked[s]; i += 1000) {
        auto txn = c.Begin("check");
        if (!txn.ok()) break;
        for (int64_t k = i; k < std::min<int64_t>(acked[s], i + 1000); k++) {
          auto row = c.Get(*txn, "commit_rows",
                           {Value::BigInt(s * kSessionKeySpan + k)});
          if (!row.ok()) missing++;
        }
        (void)c.Commit(*txn);
      }
    }
    rs->checks.Expect(missing == 0, std::to_string(missing) +
                                        " acknowledged keys missing after "
                                        "reopen");
    TableStore* store = ledger->db()->GetStoreForTesting("commit_rows");
    rs->checks.Expect(store != nullptr && static_cast<int64_t>(
                                              store->row_count()) ==
                                              total_acked,
                      "row count differs from acknowledged commits");
  }

  Random rng = Rng(rs->args, 1);
  AuditMix audit(&rs->checks);
  rs->checks.Expect(audit.Create(ledger).ok(), "audit table creation failed");
  SeedIncrementalWatermark(rs, ledger);
  RunAuditPass(rs, ledger, &audit, &rng, TailPass(), [&] {
    uint64_t n = 0;
    for (int64_t a : acked) n += static_cast<uint64_t>(a);
    return n + audit.ledger_row_versions();
  });
  ledger->Harvest();
}

// ---- audit ----

struct AuditSetup {
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<AuditMix> mix;
  Random rng{0};
};

void RunAudit(RunState* rs) {
  AuditSetup s = RepeatedSetup<AuditSetup>(rs, 3, [&](const std::string& dir) {
    AuditSetup out{Ledger::Create(dir, /*sync_wal=*/false, rs),
                   std::make_unique<AuditMix>(&rs->checks), Rng(rs->args, 1)};
    rs->checks.Expect(out.mix->Create(out.ledger.get()).ok(),
                      "audit table creation failed");
    // The setup's commits are the workload's timed transactions: one
    // window per digest interval.
    Client c = out.ledger->client();
    Samples window_us;
    int64_t window_start = NowNanos();
    for (int i = 0; i < kAuditSetupTxns; i++) {
      rs->ops.Attempt(Op::kTransaction);
      const int64_t t0 = NowNanos();
      Status st = out.mix->RunOne(&c, &out.rng);
      if (!st.ok()) {
        rs->ops.Fail(Op::kTransaction, st.ToString());
      } else {
        window_us.Add(static_cast<double>(NowNanos() - t0) / 1e3);
      }
      if ((i + 1) % kAuditSetupDigestEvery == 0) {
        rs->AddTxnWindow(window_us, SecondsSince(window_start));
        window_us = Samples();
        (void)out.ledger->Digest(&rs->digest_us);
        window_start = NowNanos();
      }
    }
    {
      ScopedSpan span("storage.checkpoint");
      rs->checks.Expect(out.ledger->db()->Checkpoint().ok(),
                        "setup checkpoint failed");
    }
    SeedIncrementalWatermark(rs, out.ledger.get());
    return out;
  });
  Ledger* ledger = s.ledger.get();
  ledger->Harvest();

  PassConfig pass;
  pass.incremental_rounds = 2;
  const int passes = std::max(2, rs->args.seconds / kAuditPassSeconds);
  for (int i = 0; i < passes; i++) {
    // Traced runs alternate untraced and traced passes for the overhead
    // figure.
    SetSpansEnabled(rs->args.trace && i % 2 == 1);
    RunAuditPass(rs, ledger, s.mix.get(), &s.rng, pass,
                 [&] { return s.mix->ledger_row_versions(); });
  }
  TableStore* main = ledger->db()->GetStoreForTesting("audit_rows");
  TableStore* history = ledger->db()->GetStoreForTesting("audit_rows", true);
  rs->checks.Expect(main != nullptr && history != nullptr &&
                        main->row_count() == s.mix->live_rows() &&
                        history->row_count() == s.mix->history_rows(),
                    "audit_rows live/history counts differ from the mix");
  ledger->Harvest();
  TamperControl(rs, ledger);
}

// ---- report ----

void PrintBudget(const SpanReport& spans) {
  std::printf("\nper-layer self time by end-to-end region (ms; residual = "
              "region time not inside any layer span):\n");
  std::printf("%-24s %10s %10s %10s %10s %10s %10s\n", "region", "total",
              "ledger", "storage", "crypto", "txn", "residual");
  for (const auto& [region, b] : spans.by_region) {
    auto self = [&](const char* layer) {
      auto it = b.layer_self_ns.find(layer);
      return it == b.layer_self_ns.end() ? 0.0
                                         : static_cast<double>(it->second) / 1e6;
    };
    std::printf("%-24s %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                region.c_str(), static_cast<double>(b.total_ns) / 1e6,
                self("ledger"), self("storage"), self("crypto"), self("txn"),
                self("e2e"));
  }
  std::printf("\nspans (count, mean us, self ms):\n");
  for (const auto& [name, t] : spans.by_name) {
    std::printf("  %-28s %10llu %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.mean_us(),
                static_cast<double>(t.self_ns) / 1e6);
  }
}

MetricSet EndToEnd(const RunState& rs) {
  MetricSet m;
  m.Set("setup_s", rs.setup_s.Median(), "s");
  m.Set("txn_per_s", rs.txn_rate.Median(), "1/s");
  m.Set("txn_p50_us", rs.txn_us.Percentile(50), "us");
  m.Set("verify_full_rows_per_s", rs.verify_full_rows_per_s.Median(), "1/s");
  m.Set("verify_parallel_rows_per_s", rs.verify_parallel_rows_per_s.Median(),
        "1/s");
  m.Set("verify_incremental_ms", rs.verify_incremental_ms.Median(), "ms");
  m.Set("receipt_make_p50_us", rs.receipt_make_us.Median(), "us");
  m.Set("receipt_verify_p50_us", rs.receipt_verify_us.Median(), "us");
  m.Set("recovery_s", rs.recovery_s.Median(), "s");
  m.Set("stored_bytes_per_row_version",
        rs.stored_bytes_per_row_version.Median(), "bytes");
  return m;
}

MetricSet PerLayer(const RunState& rs, const SpanReport& spans) {
  auto mean_us = [&](const char* name) {
    auto it = spans.by_name.find(name);
    return it == spans.by_name.end() ? 0.0 : it->second.mean_us();
  };
  const RegistryDelta& reg = rs.registry;
  const double txns =
      static_cast<double>(std::max<uint64_t>(1, reg.counter("commit.txns_total")));
  MetricSet m;
  m.Set("ledger.insert_us", mean_us("ledger.insert"), "us");
  m.Set("ledger.update_us", mean_us("ledger.update"), "us");
  m.Set("ledger.delete_us", mean_us("ledger.delete"), "us");
  m.Set("storage.update_us", mean_us("storage.update"), "us");
  m.Set("storage.get_us", mean_us("storage.get"), "us");
  m.Set("storage.seek_us", mean_us("storage.seek"), "us");
  m.Set("ledger.commit_us", mean_us("ledger.commit"), "us");
  m.Set("storage.wal_bytes_per_txn",
        static_cast<double>(reg.counter("wal.bytes_total")) / txns, "bytes");
  m.Set("storage.wal_append_us", reg.hist_mean("wal.append_micros"), "us");
  m.Set("ledger.commit_wait_us", reg.hist_mean("commit.wait_micros"), "us");
  m.Set("ledger.digest_submit_us", mean_us("ledger.digest_submit"), "us");
  m.Set("ledger.digest_drain_us", mean_us("ledger.digest_drain"), "us");
  m.Set("ledger.verify_reanchor_ms", rs.verify_reanchor_ms.Median(), "ms");
  m.Set("ledger.verify_tree_hash_ms", rs.verify_tree_hash_ms.Median(), "ms");
  m.Set("ledger.verify_view_check_ms", rs.verify_view_check_ms.Median(), "ms");
  m.Set("ledger.verify_residual_ms", rs.verify_residual_ms.Median(), "ms");
  m.Set("ledger.snapshot_ms", rs.snapshot_ms.Median(), "ms");
  m.Set("storage.scan_rows_per_s", rs.scan_rows_per_s.Median(), "1/s");
  m.Set("crypto.leaf_hash_per_s", rs.leaf_hash_per_s.Median(), "1/s");
  m.Set("ledger.verify_row_versions",
        static_cast<double>(rs.verify_row_versions), "count");
  m.Set("ledger.verify_blocks", static_cast<double>(rs.verify_blocks),
        "count");
  m.Set("ledger.verify_incremental_row_versions",
        static_cast<double>(rs.verify_incremental_row_versions), "count");
  m.Set("ledger.find_entry_us", mean_us("ledger.find_entry"), "us");
  m.Set("ledger.prove_us", mean_us("ledger.prove"), "us");
  m.Set("crypto.block_tree_us", mean_us("crypto.block_tree"), "us");
  m.Set("storage.checkpoint_ms", mean_us("storage.checkpoint") / 1e3, "ms");
  m.Set("storage.recovery_ms", rs.recovery_ms.Median(), "ms");
  return m;
}

// ---- reference figures (README) ----

template <typename Workload, typename Config, typename Stats>
double ReferenceTps(const Args& args, bool ledger, const char* name) {
  LedgerDatabaseOptions options;
  options.enable_ledger = ledger;
  options.block_size = 1000;
  options.data_dir = args.data_dir + "/" + name + (ledger ? "-ledger" : "-plain");
  auto db = LedgerDatabase::Open(options);
  if (!db.ok()) return 0;
  Config config;
  config.ledger_tables = ledger;
  Workload workload(db->get(), config);
  if (!workload.Setup().ok()) return 0;
  Random rng(args.seed);
  Stats stats;
  for (int i = 0; i < 500; i++) (void)workload.RunTransaction(&rng, &stats);
  stats = Stats{};
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  while (NowNanos() < deadline) {
    if (!workload.RunTransaction(&rng, &stats).ok()) return 0;
  }
  return static_cast<double>(stats.committed) / SecondsSince(start);
}

int RunReference(const Args& args) {
  PrintMachineStamp(args.data_dir);
  const double c_ledger =
      ReferenceTps<TpccWorkload, TpccConfig, TpccStats>(args, true, "tpcc");
  const double c_plain =
      ReferenceTps<TpccWorkload, TpccConfig, TpccStats>(args, false, "tpcc");
  const double e_ledger =
      ReferenceTps<TpceWorkload, TpceConfig, TpceStats>(args, true, "tpce");
  const double e_plain =
      ReferenceTps<TpceWorkload, TpceConfig, TpceStats>(args, false, "tpce");
  std::printf("reference (1 session, WAL without fsync, %d s each):\n",
              args.seconds);
  std::printf("  TPC-C  ledger %9.0f tps  plain %9.0f tps  overhead %6.1f%%\n",
              c_ledger, c_plain, (c_ledger - c_plain) / c_plain * 100);
  std::printf("  TPC-E  ledger %9.0f tps  plain %9.0f tps  overhead %6.1f%%\n",
              e_ledger, e_plain, (e_ledger - e_plain) / e_plain * 100);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 64;
  std::error_code ec;
  fs::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.data_dir.c_str());
    return 1;
  }
  if (args.reference) return RunReference(args);

  RunState rs;
  rs.args = args;
  PrintMachineStamp(args.data_dir);
  std::printf("workload=%s seed=%llu seconds=%d trace=%d threads=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, WorkerThreads());
  if (args.workload == "tpcc") {
    RunTpcc(&rs);
  } else if (args.workload == "commit-durable") {
    RunCommitDurable(&rs);
  } else if (args.workload == "audit") {
    RunAudit(&rs);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 64;
  }
  SetSpansEnabled(false);

  rs.ops.Print();
  std::printf("checks passed: %zu\n", rs.checks.passed());
  std::printf("txn_per_s over %zu windows: p10 %.0f  p50 %.0f  p90 %.0f\n",
              rs.txn_rate.size(), rs.txn_rate.Percentile(10),
              rs.txn_rate.Percentile(50), rs.txn_rate.Percentile(90));
  // Not result metrics: on a shared host the transaction tail follows the
  // host's scheduling and the digest its disk (see README).
  std::printf("txn latency over %zu txns: p50 %.1f us  p99 %.1f us "
              "(median of per-window p99)\n",
              rs.txn_us.size(), rs.txn_us.Median(), rs.txn_window_p99.Median());
  std::printf("digest latency over %zu digests: p50 %.0f us  p99 %.0f us\n",
              rs.digest_us.size(), rs.digest_us.Median(),
              rs.digest_us.Percentile(99));
  MetricSet metrics;
  if (args.trace) {
    const SpanReport spans = CollectSpans();
    PrintBudget(spans);
    if (rs.traced_s > 0 && rs.untraced_s > 0) {
      const double untraced = rs.untraced_txns / rs.untraced_s;
      const double traced = rs.traced_txns / rs.traced_s;
      std::printf("\ntracing overhead: txn_per_s untraced %.1f, traced %.1f "
                  "(%.1f%%)\n",
                  untraced, traced, (untraced - traced) / untraced * 100);
    } else {
      std::printf("\ntracing overhead: n/a (the timed transactions all ran "
                  "with spans off)\n");
    }
    // fsync and group-commit figures: only commit-durable, which is not in
    // the gated set (see README), gives them non-trivial values.
    const RegistryDelta& reg = rs.registry;
    const double txns = static_cast<double>(
        std::max<uint64_t>(1, reg.counter("commit.txns_total")));
    std::printf("group commit: wal_sync_us %.1f  wal_syncs_per_txn %.3f  "
                "commit_group_size %.2f\n",
                reg.hist_mean("wal.sync_micros"),
                static_cast<double>(reg.counter("wal.syncs_total")) / txns,
                reg.hist_mean("commit.group_size"));
    if (!args.trace_out.empty() && !WriteChromeTrace(args.trace_out))
      rs.checks.Expect(false, "cannot write " + args.trace_out);
    metrics = PerLayer(rs, spans);
  } else {
    metrics = EndToEnd(rs);
  }
  PrintResult(rs.checks.all_passed(), rs.ops, metrics);
  return 0;
}
