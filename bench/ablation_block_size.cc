// §3.3.1 ablation: the Database Ledger block size. The paper picks 100K
// transactions per block so that block-hash computation and block-row
// storage amortize over many transactions, while Merkle proofs keep
// per-transaction verification cheap.
//
// This bench sweeps the block size and reports commit throughput and the
// per-transaction proof size, exposing the trade-off the paper describes.

#include <benchmark/benchmark.h>

#include "ledger/ledger_database.h"
#include "ledger/receipt.h"

using namespace sqlledger;

namespace {

Schema SmallSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 64);
  s.SetPrimaryKey({0});
  return s;
}

/// Commit throughput as a function of the ledger block size.
void BM_CommitThroughput(benchmark::State& state) {
  LedgerDatabaseOptions options;
  options.block_size = static_cast<uint64_t>(state.range(0));
  auto opened = LedgerDatabase::Open(std::move(options));
  if (!opened.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto db = std::move(*opened);
  if (!db->CreateTable("t", SmallSchema(), TableKind::kUpdateable).ok()) {
    state.SkipWithError("create failed");
    return;
  }
  const std::string payload(64, 'p');
  int64_t id = 0;
  for (auto _ : state) {
    auto txn = db->Begin("bench");
    Status st =
        db->Insert(*txn, "t", {Value::BigInt(id++), Value::Varchar(payload)});
    if (st.ok()) st = db->Commit(*txn);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["blocks_closed"] = static_cast<double>(
      db->database_ledger()->closed_block_count());
}

/// Merkle proof size (receipt size driver) as a function of block size.
void BM_ProofSize(benchmark::State& state) {
  uint64_t block_size = static_cast<uint64_t>(state.range(0));
  LedgerDatabaseOptions options;
  options.block_size = block_size;
  auto opened = LedgerDatabase::Open(std::move(options));
  auto db = std::move(*opened);
  if (!db->CreateTable("t", SmallSchema(), TableKind::kUpdateable).ok()) {
    state.SkipWithError("create failed");
    return;
  }
  // Fill exactly one block.
  uint64_t target_txn = 0;
  for (uint64_t i = 0; i < block_size; i++) {
    auto txn = db->Begin("bench");
    if (i == block_size / 2) target_txn = (*txn)->id();
    (void)db->Insert(*txn, "t",
                     {Value::BigInt(static_cast<int64_t>(i) + 1000),
                      Value::Varchar("x")});
    (void)db->Commit(*txn);
  }
  (void)db->GenerateDigest();

  size_t proof_steps = 0;
  for (auto _ : state) {
    auto proof = db->database_ledger()->ProveTransaction(target_txn);
    if (!proof.ok()) {
      state.SkipWithError(proof.status().ToString().c_str());
      return;
    }
    proof_steps = proof->proof.steps.size();
    benchmark::DoNotOptimize(proof);
  }
  state.counters["proof_steps"] = static_cast<double>(proof_steps);
  state.counters["proof_bytes"] = static_cast<double>(proof_steps * 33);
}

BENCHMARK(BM_CommitThroughput)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ProofSize)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
