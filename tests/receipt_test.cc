// Transaction receipt tests (paper §5.1): offline verification, JSON
// round-trip, non-repudiation after the ledger is destroyed, refusal to
// issue receipts from tampered blocks, and byte-equivalence of the indexed
// proof path with a full-scan rebuild of each block.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "ledger/receipt.h"
#include "ledger/truncation.h"
#include "test_util.h"

namespace sqlledger {
namespace {

class ReceiptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/4);
    ASSERT_TRUE(
        db_->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
            .ok());
    for (int i = 0; i < 6; i++) {
      uint64_t txn_id;
      ASSERT_TRUE(
          InsertOne(db_.get(), "t", i, "row" + std::to_string(i), &txn_id)
              .ok());
      txn_ids_.push_back(txn_id);
    }
    // Close the open block so receipts can be issued for all transactions.
    ASSERT_TRUE(db_->GenerateDigest().ok());
  }

  // Flips one bit of a table root inside a stored entry (the entry must be
  // drained into the transactions table first). Returns the original value.
  Value FlipStoredTableRoot(uint64_t txn_id) {
    TableStore* txns = db_->database_ledger()->transactions_table_for_testing();
    Row* row = txns->mutable_clustered()->MutableGet(
        KeyTuple{Value::BigInt(static_cast<int64_t>(txn_id))});
    EXPECT_NE(row, nullptr);
    if (row == nullptr) return Value();
    Value old = (*row)[5];
    std::vector<uint8_t> bytes(old.string_value().begin(),
                               old.string_value().end());
    bytes.back() ^= 0x40;  // last byte of the last root hash
    (*row)[5] = Value::Varbinary(std::move(bytes));
    return old;
  }

  std::unique_ptr<LedgerDatabase> db_;
  std::vector<uint64_t> txn_ids_;
};

TEST_F(ReceiptTest, IssueAndVerify) {
  for (uint64_t txn_id : txn_ids_) {
    auto receipt = MakeTransactionReceipt(db_.get(), txn_id);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    EXPECT_EQ(receipt->entry.txn_id, txn_id);
    EXPECT_TRUE(VerifyTransactionReceipt(*receipt, db_->signer()));
  }
}

TEST_F(ReceiptTest, JsonRoundTripStillVerifies) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[2]);
  ASSERT_TRUE(receipt.ok());
  std::string json = receipt->ToJson();
  auto parsed = TransactionReceipt::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(VerifyTransactionReceipt(*parsed, db_->signer()));
  EXPECT_EQ(parsed->entry.user_name, receipt->entry.user_name);
  EXPECT_EQ(parsed->entry.commit_ts_micros, receipt->entry.commit_ts_micros);
}

TEST_F(ReceiptTest, SurvivesLedgerDestruction) {
  // Non-repudiation: the receipt keeps verifying after the attacker wipes
  // the entire ledger.
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[1]);
  ASSERT_TRUE(receipt.ok());
  std::string json = receipt->ToJson();

  TableStore* txns = db_->database_ledger()->transactions_table_for_testing();
  TableStore* blocks = db_->database_ledger()->blocks_table_for_testing();
  txns->mutable_clustered()->Clear();
  blocks->mutable_clustered()->Clear();

  auto parsed = TransactionReceipt::FromJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(VerifyTransactionReceipt(*parsed, db_->signer()));
}

TEST_F(ReceiptTest, TamperedEntryFails) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  ASSERT_TRUE(receipt.ok());
  TransactionReceipt forged = *receipt;
  forged.entry.user_name = "someone-else";
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
  forged = *receipt;
  forged.entry.commit_ts_micros += 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
  forged = *receipt;
  ASSERT_FALSE(forged.entry.table_roots.empty());
  forged.entry.table_roots[0].second.bytes[0] ^= 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
}

TEST_F(ReceiptTest, TamperedProofFails) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  ASSERT_TRUE(receipt.ok());
  TransactionReceipt forged = *receipt;
  if (!forged.proof.steps.empty()) {
    forged.proof.steps[0].sibling.bytes[3] ^= 1;
    EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
  }
  forged = *receipt;
  forged.proof.leaf_index ^= 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
}

TEST_F(ReceiptTest, ForgedSignatureFails) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  ASSERT_TRUE(receipt.ok());
  TransactionReceipt forged = *receipt;
  forged.signature[0] ^= 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));

  // A receipt signed under a different key does not verify either.
  HmacSigner other("other", {9, 9, 9});
  EXPECT_FALSE(VerifyTransactionReceipt(*receipt, other));
}

TEST_F(ReceiptTest, OpenBlockTransactionIsBusy) {
  uint64_t txn_id;
  ASSERT_TRUE(InsertOne(db_.get(), "t", 100, "late", &txn_id).ok());
  auto receipt = MakeTransactionReceipt(db_.get(), txn_id);
  EXPECT_EQ(receipt.status().code(), StatusCode::kBusy);
  // After a digest closes the block, the receipt can be issued.
  ASSERT_TRUE(db_->GenerateDigest().ok());
  receipt = MakeTransactionReceipt(db_.get(), txn_id);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(VerifyTransactionReceipt(*receipt, db_->signer()));
}

TEST_F(ReceiptTest, UnknownTransactionIsNotFound) {
  EXPECT_TRUE(
      MakeTransactionReceipt(db_.get(), 987654).status().IsNotFound());
}

TEST_F(ReceiptTest, OneSignaturePerBlockAmortization) {
  // All receipts from one block carry the identical signed root — one
  // signing operation amortized over the block (paper §5.1).
  auto r0 = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  auto r1 = MakeTransactionReceipt(db_.get(), txn_ids_[1]);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r0->entry.block_id, r1->entry.block_id);
  EXPECT_EQ(r0->transactions_root, r1->transactions_root);
  EXPECT_EQ(r0->signature, r1->signature);
}

TEST_F(ReceiptTest, TamperedNeighbourEntryRefusesReceipt) {
  // A receipt rebuilds its whole block. If another entry of the block was
  // tampered with, the rebuilt root differs from the stored one, and the
  // receipt would fail VerifyTransactionReceipt: refuse it instead.
  DatabaseLedger* ledger = db_->database_ledger();
  ASSERT_TRUE(ledger->DrainQueue().ok());
  auto target = ledger->FindEntry(txn_ids_[4]);
  auto neighbour = ledger->FindEntry(txn_ids_[5]);
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(neighbour.ok());
  ASSERT_EQ(target->block_id, neighbour->block_id);
  ASSERT_LT(target->block_id, ledger->open_block_id());

  Value original = FlipStoredTableRoot(neighbour->txn_id);
  auto receipt = MakeTransactionReceipt(db_.get(), target->txn_id);
  EXPECT_EQ(receipt.status().code(), StatusCode::kCorruption)
      << (receipt.ok() ? "issued; verifies=" +
                             std::to_string(VerifyTransactionReceipt(
                                 *receipt, db_->signer()))
                       : receipt.status().ToString());
  EXPECT_EQ(MakeTransactionReceipt(db_.get(), neighbour->txn_id)
                .status()
                .code(),
            StatusCode::kCorruption);

  // Reverted, the block issues verifiable receipts again.
  TableStore* txns = ledger->transactions_table_for_testing();
  (*txns->mutable_clustered()->MutableGet(KeyTuple{Value::BigInt(
      static_cast<int64_t>(neighbour->txn_id))}))[5] = original;
  receipt = MakeTransactionReceipt(db_.get(), target->txn_id);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(VerifyTransactionReceipt(*receipt, db_->signer()));
}

TEST_F(ReceiptTest, OrdinalPastBlockRefusesReceipt) {
  DatabaseLedger* ledger = db_->database_ledger();
  ASSERT_TRUE(ledger->DrainQueue().ok());
  TableStore* txns = ledger->transactions_table_for_testing();
  Row* row = txns->mutable_clustered()->MutableGet(
      KeyTuple{Value::BigInt(static_cast<int64_t>(txn_ids_[0]))});
  ASSERT_NE(row, nullptr);
  (*row)[2] = Value::BigInt(99);  // block_ordinal
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  EXPECT_EQ(receipt.status().code(), StatusCode::kCorruption)
      << receipt.status().ToString();
}

// Receipts from the ordinal index must equal, byte for byte, proofs built
// the full-scan way: every stored and pending entry of the block, sorted
// by ordinal, proved from a freshly built tree.
class ReceiptEquivalenceTest : public TempDirTest {
 protected:
  std::unique_ptr<LedgerDatabase> Open() {
    LedgerDatabaseOptions options;
    options.data_dir = Path("db");
    options.database_id = "receiptdb";
    options.block_size = 5;
    options.clock = [this] { return ++clock_; };
    auto db = LedgerDatabase::Open(std::move(options));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  void Commit(LedgerDatabase* db, int n) {
    for (int i = 0; i < n; i++)
      ASSERT_TRUE(InsertOne(db, "t", next_key_++, "v").ok());
  }

  void Digest(LedgerDatabase* db) {
    auto digest = db->GenerateDigest();
    ASSERT_TRUE(digest.ok()) << digest.status().ToString();
    digest_ = *digest;
  }

  static std::string ProofBytes(const MerkleProof& proof) {
    std::string out = std::to_string(proof.leaf_index) + "/" +
                      std::to_string(proof.leaf_count);
    for (const MerkleProofStep& step : proof.steps)
      out += (step.sibling_is_left ? ":L" : ":R") + step.sibling.ToHex();
    return out;
  }

  // Checks every closed-block transaction; returns how many of them were
  // still in the undrained queue (not yet in the transactions table).
  size_t ExpectReceiptsMatchFullScan(LedgerDatabase* db) {
    DatabaseLedger* ledger = db->database_ledger();
    DatabaseLedger::LedgerSnapshot snap = ledger->Snapshot();
    std::map<uint64_t, std::vector<TransactionEntry>> by_block;
    std::set<uint64_t> seen;
    for (const TransactionEntry& e : snap.entries) {
      seen.insert(e.txn_id);
      by_block[e.block_id].push_back(e);
    }
    size_t queued = 0;
    for (const TransactionEntry& e : ledger->PendingEntries()) {
      if (!seen.insert(e.txn_id).second) continue;
      by_block[e.block_id].push_back(e);
      if (e.block_id < snap.open_block_id) queued++;
    }
    size_t checked = 0;
    for (auto& [block_id, entries] : by_block) {
      if (block_id >= snap.open_block_id) continue;
      std::sort(entries.begin(), entries.end(),
                [](const TransactionEntry& a, const TransactionEntry& b) {
                  return a.block_ordinal < b.block_ordinal;
                });
      MerkleTree tree(TransactionLeafHashes(entries));
      auto block = ledger->FindBlock(block_id);
      EXPECT_TRUE(block.ok()) << block.status().ToString();
      if (!block.ok()) continue;
      EXPECT_EQ(tree.Root(), block->transactions_root) << "block " << block_id;
      for (const TransactionEntry& e : entries) {
        auto receipt = MakeTransactionReceipt(db, e.txn_id);
        EXPECT_TRUE(receipt.ok()) << "txn " << e.txn_id << ": "
                                  << receipt.status().ToString();
        if (!receipt.ok()) continue;
        EXPECT_EQ(ProofBytes(receipt->proof),
                  ProofBytes(tree.Prove(e.block_ordinal)))
            << "txn " << e.txn_id << " in block " << block_id;
        EXPECT_EQ(receipt->transactions_root, block->transactions_root);
        EXPECT_TRUE(VerifyTransactionReceipt(*receipt, db->signer()));
        checked++;
      }
    }
    EXPECT_GT(checked, 0u);
    return queued;
  }

  int64_t clock_ = 1000000;
  int64_t next_key_ = 0;
  DatabaseDigest digest_;
};

TEST_F(ReceiptEquivalenceTest, MatchesFullScanAcrossReopenAndTruncation) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    // Blocks of uneven size: digest-driven closes between size-driven ones.
    Commit(db.get(), 2);
    Digest(db.get());
    Commit(db.get(), 7);
    Digest(db.get());
    Commit(db.get(), 1);
    Digest(db.get());
    Commit(db.get(), 2);
    // Drain into the table; the open block keeps its first two entries
    // there and gets the rest from the WAL tail after the crash.
    ASSERT_TRUE(db->Checkpoint().ok());
    Commit(db.get(), 2);
    Digest(db.get());
    Commit(db.get(), 8);
    Digest(db.get());
    Commit(db.get(), 3);  // stays open
    // Crash: no checkpoint, so reopen replays the WAL tail into the queue.
  }
  auto db = Open();
  EXPECT_GT(ExpectReceiptsMatchFullScan(db.get()), 0u);

  Digest(db.get());
  ASSERT_TRUE(TruncateLedger(db.get(), 3, {digest_}).ok());
  Commit(db.get(), 6);
  Digest(db.get());
  Commit(db.get(), 1);
  EXPECT_GT(ExpectReceiptsMatchFullScan(db.get()), 0u);
}

}  // namespace
}  // namespace sqlledger
