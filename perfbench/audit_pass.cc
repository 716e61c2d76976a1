#include "audit_pass.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "crypto/merkle.h"
#include "ledger/receipt.h"
#include "ledger/verifier.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr int kAppendDigestEvery = 100;
constexpr int kReceiptsPerPass = 32;
constexpr int kVerifiesPerReceipt = 16;

Value B(int64_t v) { return Value::BigInt(v); }

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "fatal: %s\n", what.c_str());
  std::exit(1);
}

uint64_t HistSum(const MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

}  // namespace

// ---- Ledger ----

Ledger::Ledger(LedgerDatabaseOptions options, std::string store_dir,
               RunState* rs)
    : options_(std::move(options)), store_dir_(std::move(store_dir)), rs_(rs) {}

Ledger::~Ledger() {
  if (db_ != nullptr) db_->StopDigestProtection();
}

std::unique_ptr<Ledger> Ledger::Create(const std::string& root, bool sync_wal,
                                       RunState* rs) {
  LedgerDatabaseOptions options;
  options.data_dir = root + "/db";
  options.database_id = "perfbench";
  options.block_size = 1000;
  options.sync_wal = sync_wal;
  options.signing_key = {'p', 'e', 'r', 'f', '-', 'k', 'e', 'y'};
  options.signing_key_id = "perf-key-1";
  std::unique_ptr<Ledger> ledger(
      new Ledger(std::move(options), root + "/digests", rs));
  auto store = ImmutableBlobDigestStore::Open(ledger->store_dir_);
  if (!store.ok()) Fatal("digest store: " + store.status().ToString());
  ledger->store_ = std::move(*store);
  if (!ledger->Open()) Fatal("cannot open database in " + root);
  return ledger;
}

bool Ledger::Open() {
  auto opened = LedgerDatabase::Open(options_);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return false;
  }
  db_ = std::move(*opened);
  Status st = db_->StartDigestProtection(store_.get());
  if (!st.ok()) {
    std::fprintf(stderr, "digest protection: %s\n", st.ToString().c_str());
    return false;
  }
  baseline_ = db_->MetricsSnapshot();
  return true;
}

Status Ledger::Digest(Samples* samples) {
  rs_->ops.Attempt(Op::kDigest);
  DigestUploadPipeline* pipeline = db_->digest_pipeline();
  const int64_t start = NowNanos();
  Status st;
  {
    ScopedSpan span("ledger.digest_submit");
    st = pipeline->GenerateAndSubmit();
  }
  if (st.ok()) {
    ScopedSpan span("ledger.digest_drain");
    st = pipeline->DrainFully();
  }
  const double us = static_cast<double>(NowNanos() - start) / 1e3;
  if (st.ok() && pipeline->status().outbox_pending != 0)
    st = Status::IOError("digest outbox not drained");
  if (!st.ok()) {
    rs_->ops.Fail(Op::kDigest, st.ToString());
    return st;
  }
  if (samples != nullptr) samples->Add(us);
  return st;
}

std::vector<DatabaseDigest> Ledger::Digests() const {
  std::vector<DatabaseDigest> out;
  auto all = store_->ListAll();
  if (!all.ok()) return out;
  for (DatabaseDigest& d : *all) {
    if (d.database_id == options_.database_id &&
        d.database_create_time == db_->create_time())
      out.push_back(std::move(d));
  }
  return out;
}

void Ledger::Harvest() {
  MetricsSnapshot now = db_->MetricsSnapshot();
  rs_->registry.AddDiff(baseline_, now);
  baseline_ = std::move(now);
}

void Ledger::Reopen() {
  Harvest();
  {
    ScopedSpan span("ledger.close");
    db_->StopDigestProtection();
    db_.reset();
  }
  rs_->ops.Attempt(Op::kReopen);
  const int64_t start = NowNanos();
  bool ok;
  {
    ScopedSpan span("storage.recovery");
    ok = Open();
  }
  const double seconds = SecondsSince(start);
  if (!ok) {
    rs_->ops.Fail(Op::kReopen, "reopen of " + options_.data_dir);
    Fatal("reopen failed");
  }
  rs_->recovery_s.Add(seconds);
  rs_->recovery_ms.Add(static_cast<double>(HistSum(
                           baseline_, "recovery.duration_micros")) /
                       1e3);
}

uint64_t Ledger::StoredBytes() const {
  uint64_t bytes = 0;
  for (const char* name : {"checkpoint.sldb", "wal.log"}) {
    std::error_code ec;
    const uintmax_t size = fs::file_size(fs::path(dir()) / name, ec);
    if (!ec) bytes += size;
  }
  return bytes;
}

uint64_t Ledger::SystemRowVersions() {
  uint64_t versions = 0;
  for (CatalogEntry* entry : db_->AllTables()) {
    if (!entry->is_system || entry->kind == TableKind::kRegular) continue;
    versions += entry->main->row_count();
    if (entry->history != nullptr) versions += 2 * entry->history->row_count();
  }
  return versions;
}

// ---- AuditMix ----

Status AuditMix::Create(Ledger* ledger) {
  ScopedSpan region("e2e.create_audit_tables");
  Schema rows;
  rows.AddColumn("bucket", DataType::kBigInt, false);
  rows.AddColumn("id", DataType::kBigInt, false);
  rows.AddColumn("a", DataType::kBigInt, false);
  rows.AddColumn("payload", DataType::kVarchar, false, kPayloadBytes);
  rows.SetPrimaryKey({0, 1});
  Schema meta;
  meta.AddColumn("bucket", DataType::kBigInt, false);
  meta.AddColumn("txns", DataType::kBigInt, false);
  meta.AddColumn("live", DataType::kBigInt, false);
  meta.SetPrimaryKey({0});
  LedgerDatabase* db = ledger->db();
  {
    ScopedSpan span("ledger.create_table");
    SL_RETURN_IF_ERROR(
        db->CreateTable("audit_rows", rows, TableKind::kUpdateable));
    SL_RETURN_IF_ERROR(
        db->CreateTable("audit_meta", meta, TableKind::kRegular));
  }
  ledger->ledger_tables()->insert("audit_rows");
  live_.assign(kBuckets, {});
  next_id_.assign(kBuckets, 1);
  Client c = ledger->client();
  auto txn = c.Begin("audit");
  if (!txn.ok()) return txn.status();
  for (int b = 0; b < kBuckets; b++) {
    Status st = c.Insert(*txn, "audit_meta", {B(b), B(0), B(0)});
    if (!st.ok()) {
      c.Abort(*txn);
      return st;
    }
  }
  return c.Commit(*txn);
}

Status AuditMix::RunOne(Client* c, Random* rng) {
  auto txn = c->Begin("audit");
  if (!txn.ok()) return txn.status();
  Transaction* t = *txn;
  auto body = [&]() -> Status {
    const int64_t first_bucket = static_cast<int64_t>(rng->Uniform(kBuckets));
    for (int k = 0; k < kRowsPerTxn; k++) {
      const int64_t b =
          k == 0 ? first_bucket : static_cast<int64_t>(rng->Uniform(kBuckets));
      std::deque<int64_t>& live = live_[b];
      const uint64_t roll = rng->Uniform(100);
      if (roll < 50 || live.empty()) {
        const int64_t id = next_id_[b]++;
        SL_RETURN_IF_ERROR(c->Insert(
            t, "audit_rows",
            {B(b), B(id), B(static_cast<int64_t>(rng->Uniform(1000000000))),
             Value::Varchar(rng->AlphaString(kPayloadBytes))}));
        live.push_back(id);
        inserts_++;
      } else if (roll < 80) {
        const int64_t id = live[rng->Uniform(live.size())];
        auto row = c->Get(t, "audit_rows", {B(b), B(id)});
        if (!row.ok()) return row.status();
        checks_->Expect((*row)[1].AsInt64() == id,
                        "point lookup returned the wrong audit row");
        Row updated = std::move(*row);
        updated[2] = B(static_cast<int64_t>(rng->Uniform(1000000000)));
        updated[3] = Value::Varchar(rng->AlphaString(kPayloadBytes));
        SL_RETURN_IF_ERROR(c->Update(t, "audit_rows", updated));
        updates_++;
      } else {
        auto oldest = c->SeekFirst(t, "audit_rows", {B(b)});
        if (!oldest.ok()) return oldest.status();
        const int64_t id = (*oldest)[1].AsInt64();
        checks_->Expect(id == live.front(),
                        "prefix seek did not return the bucket's oldest row");
        SL_RETURN_IF_ERROR(c->Delete(t, "audit_rows", {B(b), B(id)}));
        live.pop_front();
        deletes_++;
      }
    }
    auto meta = c->Get(t, "audit_meta", {B(first_bucket)});
    if (!meta.ok()) return meta.status();
    Row m = std::move(*meta);
    m[1] = B(m[1].AsInt64() + 1);
    m[2] = B(static_cast<int64_t>(live_[first_bucket].size()));
    return c->Update(t, "audit_meta", m);
  };
  Status st = body();
  if (!st.ok()) {
    c->Abort(t);
    return st;
  }
  return c->Commit(t);
}

// ---- Audit pass ----

void SeedIncrementalWatermark(RunState* rs, Ledger* ledger) {
  ScopedSpan region("e2e.verify_seed");
  if (!ledger->Digest(nullptr).ok()) return;
  const std::vector<DatabaseDigest> digests = ledger->Digests();
  rs->ops.Attempt(Op::kVerification);
  ScopedSpan span("ledger.verify_incremental");
  auto report = VerifyLedgerIncremental(ledger->db(), digests);
  if (!report.ok()) {
    rs->ops.Fail(Op::kVerification, report.status().ToString());
    return;
  }
  rs->checks.Expect(report->ok(), "seed verification reported violations: " +
                                      report->Summary());
}

namespace {

// Layer probes of the verification path that the verifier itself does not
// expose: ordered store scans and batched 260-byte leaf hashing.
void ProbeVerifyLayers(RunState* rs, Ledger* ledger, Random* rng) {
  ScopedSpan region("e2e.layer_probes");
  uint64_t rows = 0;
  const int64_t scan_start = NowNanos();
  for (const std::string& table : *ledger->ledger_tables()) {
    for (bool history : {false, true}) {
      TableStore* store = ledger->db()->GetStoreForTesting(table, history);
      if (store == nullptr) continue;
      ScopedSpan span("storage.scan_store");
      for (BTree::Iterator it = store->Scan(); it.Valid(); it.Next()) rows++;
    }
  }
  rs->scan_rows_per_s.Add(static_cast<double>(rows) / SecondsSince(scan_start));

  constexpr size_t kLeaves = 16384;
  constexpr size_t kLeafBytes = 260;
  std::string arena = rng->AlphaString(kLeaves * kLeafBytes);
  std::vector<Slice> leaves;
  for (size_t i = 0; i < kLeaves; i++)
    leaves.emplace_back(
        reinterpret_cast<const uint8_t*>(arena.data()) + i * kLeafBytes,
        kLeafBytes);
  std::vector<Hash256> out(kLeaves);
  const int64_t hash_start = NowNanos();
  {
    ScopedSpan span("crypto.leaf_hash");
    MerkleLeafHashMany(leaves.data(), kLeaves, out.data());
  }
  rs->leaf_hash_per_s.Add(static_cast<double>(kLeaves) /
                          SecondsSince(hash_start));
  rs->checks.Expect(out[0] == MerkleLeafHash(leaves[0]),
                    "batched leaf hash differs from the one-shot hash");
}

void RunReceipts(RunState* rs, Ledger* ledger, Random* rng, int receipts) {
  ScopedSpan region("e2e.receipts");
  LedgerDatabase* db = ledger->db();
  DatabaseLedger* dl = db->database_ledger();
  const int64_t snap_start = NowNanos();
  DatabaseLedger::LedgerSnapshot snap;
  {
    ScopedSpan span("ledger.snapshot");
    snap = dl->Snapshot();
  }
  rs->snapshot_ms.Add(static_cast<double>(NowNanos() - snap_start) / 1e6);

  std::map<uint64_t, std::vector<TransactionEntry>> by_block;
  for (TransactionEntry& e : snap.entries) {
    if (e.block_id < snap.open_block_id)
      by_block[e.block_id].push_back(std::move(e));
  }
  for (auto& [id, entries] : by_block) {
    std::sort(entries.begin(), entries.end(),
              [](const TransactionEntry& a, const TransactionEntry& b) {
                return a.block_ordinal < b.block_ordinal;
              });
  }
  std::vector<const BlockRecord*> blocks;
  for (const BlockRecord& b : snap.blocks) {
    if (b.transaction_count > 1) blocks.push_back(&b);
  }
  if (blocks.empty()) {
    rs->checks.Expect(false, "no closed block to issue receipts from");
    return;
  }
  const HmacSigner signer(ledger->options().signing_key_id,
                          ledger->options().signing_key);
  const bool probe = SpansEnabled();
  for (int r = 0; r < receipts; r++) {
    const BlockRecord& block = *blocks[rng->Uniform(blocks.size())];
    const std::vector<TransactionEntry>& entries = by_block[block.block_id];
    if (entries.size() != block.transaction_count) {
      rs->checks.Expect(false, "block " + std::to_string(block.block_id) +
                                   " entry count differs from its record");
      continue;
    }
    const uint64_t txn_id = entries[rng->Uniform(entries.size())].txn_id;
    if (probe) {
      {
        ScopedSpan span("ledger.find_entry");
        auto entry = dl->FindEntry(txn_id);
        rs->checks.Expect(entry.ok() && entry->txn_id == txn_id,
                          "FindEntry missed a committed transaction");
      }
      {
        ScopedSpan span("ledger.prove");
        rs->checks.Expect(dl->ProveTransaction(txn_id).ok(),
                          "ProveTransaction failed");
      }
      ScopedSpan span("crypto.block_tree");
      MerkleTree tree(TransactionLeafHashes(entries));
      rs->checks.Expect(tree.Root() == block.transactions_root,
                        "rebuilt block tree root differs from the block's");
    }
    rs->ops.Attempt(Op::kReceipt);
    const int64_t start = NowNanos();
    Result<TransactionReceipt> receipt = Status::Internal("unset");
    {
      ScopedSpan span("ledger.receipt_make");
      receipt = MakeTransactionReceipt(db, txn_id);
    }
    const double make_us = static_cast<double>(NowNanos() - start) / 1e3;
    if (!receipt.ok()) {
      rs->ops.Fail(Op::kReceipt, receipt.status().ToString());
      continue;
    }
    rs->receipt_make_us.Add(make_us);
    auto recorded = dl->FindBlock(block.block_id);
    rs->checks.Expect(receipt->entry.txn_id == txn_id && recorded.ok() &&
                          receipt->transactions_root ==
                              recorded->transactions_root,
                      "receipt root differs from FindBlock's root");
    for (int v = 0; v < kVerifiesPerReceipt; v++) {
      const int64_t vstart = NowNanos();
      bool ok;
      {
        ScopedSpan span("ledger.receipt_verify");
        ok = VerifyTransactionReceipt(*receipt, signer);
      }
      rs->receipt_verify_us.Add(static_cast<double>(NowNanos() - vstart) /
                                1e3);
      rs->checks.Expect(ok, "receipt failed offline verification");
    }
    TransactionReceipt forged = *receipt;
    if (forged.proof.steps.empty()) {
      rs->checks.Expect(false, "receipt proof has no sibling to flip");
    } else {
      forged.proof.steps[0].sibling.bytes[0] ^= 0x01;
      rs->checks.Expect(!VerifyTransactionReceipt(forged, signer),
                        "receipt with a flipped sibling still verified");
    }
  }
}

}  // namespace

void RunAuditPass(RunState* rs, Ledger* ledger, AuditMix* mix, Random* rng,
                  const PassConfig& config,
                  const std::function<uint64_t()>& user_row_versions) {
  // 1. Rounds of a small append of fig9-shaped transactions (with digests)
  // followed by an incremental re-verification.
  for (int round = 0; round < config.incremental_rounds; round++) {
    {
      ScopedSpan region("e2e.append");
      Client c = ledger->client();
      for (int i = 0; i < config.append_txns; i++) {
        rs->ops.Attempt(Op::kTransaction);
        Status st = mix->RunOne(&c, rng);
        if (!st.ok()) rs->ops.Fail(Op::kTransaction, st.ToString());
        if ((i + 1) % kAppendDigestEvery == 0) (void)ledger->Digest(nullptr);
      }
    }
    ScopedSpan region("e2e.verify_incremental");
    const std::vector<DatabaseDigest> digests = ledger->Digests();
    const uint64_t expected =
        user_row_versions() + ledger->SystemRowVersions();
    rs->ops.Attempt(Op::kVerification);
    const int64_t start = NowNanos();
    Result<VerificationReport> r = Status::Internal("unset");
    {
      ScopedSpan span("ledger.verify_incremental");
      r = VerifyLedgerIncremental(ledger->db(), digests);
    }
    const double ms = static_cast<double>(NowNanos() - start) / 1e6;
    if (!r.ok()) {
      rs->ops.Fail(Op::kVerification, r.status().ToString());
      continue;
    }
    rs->verify_incremental_ms.Add(ms);
    rs->verify_incremental_row_versions = r->row_versions_checked;
    rs->checks.Expect(r->ok() && !r->fell_back_to_full,
                      "incremental verification failed or fell back: " +
                          r->Summary() + " " + r->fallback_reason);
    rs->checks.Expect(
        r->row_versions_checked + r->row_versions_skipped == expected,
        "incremental verification covered " +
            std::to_string(r->row_versions_checked + r->row_versions_skipped) +
            " row versions; the generators wrote " + std::to_string(expected));
  }

  // 2. Full verification on 1 thread and on WorkerThreads() threads, over
  // the same digests as the last incremental run: same verdict, same
  // counts.
  LedgerDatabase* db = ledger->db();
  const std::vector<DatabaseDigest> digests = ledger->Digests();
  const uint64_t expected = user_row_versions() + ledger->SystemRowVersions();
  for (int rep = 0; rep < config.verify_repeats; rep++) {
    for (int p = 0; p < 2; p++) {
      ScopedSpan region(p == 0 ? "e2e.verify_full" : "e2e.verify_parallel");
      VerificationOptions vopts;
      vopts.parallelism = p == 0 ? 1 : WorkerThreads();
      rs->ops.Attempt(Op::kVerification);
      const MetricsSnapshot before = db->MetricsSnapshot();
      const int64_t start = NowNanos();
      Result<VerificationReport> r = Status::Internal("unset");
      {
        ScopedSpan span("ledger.verify_full");
        r = VerifyLedger(db, digests, vopts);
      }
      const double seconds = SecondsSince(start);
      if (!r.ok()) {
        rs->ops.Fail(Op::kVerification, r.status().ToString());
        continue;
      }
      rs->checks.Expect(r->ok(),
                        "verification reported violations: " + r->Summary());
      rs->checks.Expect(r->row_versions_checked == expected,
                        "verified " + std::to_string(r->row_versions_checked) +
                            " row versions; the generators wrote " +
                            std::to_string(expected));
      const double rows_per_s =
          static_cast<double>(r->row_versions_checked) / seconds;
      if (p == 1) {
        rs->verify_parallel_rows_per_s.Add(rows_per_s);
        continue;
      }
      rs->verify_full_rows_per_s.Add(rows_per_s);
      const MetricsSnapshot after = db->MetricsSnapshot();
      auto phase_ms = [&](const char* name) {
        return static_cast<double>(HistSum(after, name) -
                                   HistSum(before, name)) /
               1e3;
      };
      const double reanchor = phase_ms("verify.reanchor_micros");
      const double tree = phase_ms("verify.tree_hash_micros");
      const double view = phase_ms("verify.view_check_micros");
      rs->verify_reanchor_ms.Add(reanchor);
      rs->verify_tree_hash_ms.Add(tree);
      rs->verify_view_check_ms.Add(view);
      rs->verify_residual_ms.Add(seconds * 1e3 - reanchor - tree - view);
      rs->verify_row_versions = r->row_versions_checked;
      rs->verify_blocks = r->blocks_checked;
    }
  }

  // 3. Checkpoint; the state on disk is then checkpoint + (empty) WAL.
  {
    ScopedSpan region("e2e.checkpoint");
    Status st;
    {
      ScopedSpan span("storage.checkpoint");
      st = db->Checkpoint();
    }
    rs->checks.Expect(st.ok(), "checkpoint failed: " + st.ToString());
    rs->stored_bytes_per_row_version.Add(
        static_cast<double>(ledger->StoredBytes()) /
        static_cast<double>(expected));
  }

  // 4. Receipts for transactions drawn over all closed blocks.
  if (SpansEnabled()) ProbeVerifyLayers(rs, ledger, rng);
  RunReceipts(rs, ledger, rng, kReceiptsPerPass);

  // 5. Reopen (recovery from the checkpoint).
  for (int i = 0; i < config.reopens; i++) {
    ScopedSpan region("e2e.reopen");
    ledger->Reopen();
  }
}

void TamperControl(RunState* rs, Ledger* ledger) {
  const std::string copy_root = ledger->dir() + "-tamper";
  std::error_code ec;
  fs::remove_all(copy_root, ec);
  fs::copy(ledger->dir(), copy_root, fs::copy_options::recursive, ec);
  if (ec) {
    rs->checks.Expect(false, "cannot copy the database: " + ec.message());
    return;
  }
  LedgerDatabaseOptions options = ledger->options();
  options.data_dir = copy_root;
  const std::vector<DatabaseDigest> digests = ledger->Digests();
  {
    auto opened = LedgerDatabase::Open(options);
    if (!opened.ok()) {
      rs->checks.Expect(false, "cannot open the copy for the tamper control");
      return;
    }
    std::unique_ptr<LedgerDatabase> copy = std::move(*opened);
    TableStore* store = copy->GetStoreForTesting("audit_rows");
    BTree* tree = store == nullptr ? nullptr : store->mutable_clustered();
    bool flipped = false;
    if (tree != nullptr && !tree->empty()) {
      const KeyTuple key = tree->Begin().key();
      Row* row = tree->MutableGet(key);
      std::string payload = (*row)[3].string_value();
      payload[payload.size() / 2] ^= 0x01;
      (*row)[3] = Value::Varchar(payload);
      flipped = true;
    }
    rs->ops.Attempt(Op::kVerification);
    auto report = VerifyLedger(copy.get(), digests);
    bool inv4 = false;
    if (report.ok()) {
      for (const Violation& v : report->violations) inv4 |= v.invariant == 4;
    } else {
      rs->ops.Fail(Op::kVerification, report.status().ToString());
    }
    rs->checks.Expect(flipped && inv4,
                      "a flipped row byte did not produce an invariant-4 "
                      "violation");
  }
  fs::remove_all(copy_root, ec);
}

}  // namespace perfbench
