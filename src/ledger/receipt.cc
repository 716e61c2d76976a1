#include "ledger/receipt.h"

#include "util/hex.h"
#include "util/json.h"

namespace sqlledger {

std::string TransactionReceipt::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("transaction_id", JsonValue::Int(static_cast<int64_t>(entry.txn_id)));
  doc.Set("block_id", JsonValue::Int(static_cast<int64_t>(entry.block_id)));
  doc.Set("block_ordinal",
          JsonValue::Int(static_cast<int64_t>(entry.block_ordinal)));
  doc.Set("commit_ts", JsonValue::Int(entry.commit_ts_micros));
  doc.Set("user_name", JsonValue::Str(entry.user_name));
  JsonValue roots = JsonValue::Array();
  for (const auto& [table_id, root] : entry.table_roots) {
    JsonValue r = JsonValue::Object();
    r.Set("table_id", JsonValue::Int(table_id));
    r.Set("root", JsonValue::Str(root.ToHex()));
    roots.Append(std::move(r));
  }
  doc.Set("table_roots", std::move(roots));

  JsonValue steps = JsonValue::Array();
  for (const MerkleProofStep& step : proof.steps) {
    JsonValue s = JsonValue::Object();
    s.Set("sibling", JsonValue::Str(step.sibling.ToHex()));
    s.Set("left", JsonValue::Bool(step.sibling_is_left));
    steps.Append(std::move(s));
  }
  JsonValue p = JsonValue::Object();
  p.Set("leaf_index", JsonValue::Int(static_cast<int64_t>(proof.leaf_index)));
  p.Set("leaf_count", JsonValue::Int(static_cast<int64_t>(proof.leaf_count)));
  p.Set("steps", std::move(steps));
  doc.Set("proof", std::move(p));

  doc.Set("transactions_root", JsonValue::Str(transactions_root.ToHex()));
  doc.Set("key_id", JsonValue::Str(key_id));
  doc.Set("signature", JsonValue::Str(HexEncode(Slice(signature))));
  return doc.Dump();
}

Result<TransactionReceipt> TransactionReceipt::FromJson(
    const std::string& json) {
  auto parsed = JsonValue::Parse(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = *parsed;
  if (!doc.is_object())
    return Status::InvalidArgument("receipt JSON is not an object");

  TransactionReceipt r;
  auto txn_id = doc.GetInt("transaction_id");
  if (!txn_id.ok()) return txn_id.status();
  r.entry.txn_id = static_cast<uint64_t>(*txn_id);
  auto block_id = doc.GetInt("block_id");
  if (!block_id.ok()) return block_id.status();
  r.entry.block_id = static_cast<uint64_t>(*block_id);
  auto ordinal = doc.GetInt("block_ordinal");
  if (!ordinal.ok()) return ordinal.status();
  r.entry.block_ordinal = static_cast<uint64_t>(*ordinal);
  auto ts = doc.GetInt("commit_ts");
  if (!ts.ok()) return ts.status();
  r.entry.commit_ts_micros = *ts;
  auto user = doc.GetString("user_name");
  if (!user.ok()) return user.status();
  r.entry.user_name = *user;

  const JsonValue& roots = doc.Get("table_roots");
  if (!roots.is_array())
    return Status::InvalidArgument("receipt missing table_roots");
  for (size_t i = 0; i < roots.size(); i++) {
    auto table_id = roots[i].GetInt("table_id");
    if (!table_id.ok()) return table_id.status();
    auto root_hex = roots[i].GetString("root");
    if (!root_hex.ok()) return root_hex.status();
    Hash256 root;
    if (!Hash256::FromHex(*root_hex, &root))
      return Status::InvalidArgument("malformed root hash in receipt");
    r.entry.table_roots.emplace_back(static_cast<uint32_t>(*table_id), root);
  }

  const JsonValue& p = doc.Get("proof");
  if (!p.is_object()) return Status::InvalidArgument("receipt missing proof");
  auto leaf_index = p.GetInt("leaf_index");
  if (!leaf_index.ok()) return leaf_index.status();
  r.proof.leaf_index = static_cast<uint64_t>(*leaf_index);
  auto leaf_count = p.GetInt("leaf_count");
  if (!leaf_count.ok()) return leaf_count.status();
  r.proof.leaf_count = static_cast<uint64_t>(*leaf_count);
  const JsonValue& steps = p.Get("steps");
  if (!steps.is_array())
    return Status::InvalidArgument("receipt proof missing steps");
  for (size_t i = 0; i < steps.size(); i++) {
    auto sibling_hex = steps[i].GetString("sibling");
    if (!sibling_hex.ok()) return sibling_hex.status();
    MerkleProofStep step;
    if (!Hash256::FromHex(*sibling_hex, &step.sibling))
      return Status::InvalidArgument("malformed sibling hash in receipt");
    step.sibling_is_left = steps[i].Get("left").bool_value();
    r.proof.steps.push_back(step);
  }

  auto root_hex = doc.GetString("transactions_root");
  if (!root_hex.ok()) return root_hex.status();
  if (!Hash256::FromHex(*root_hex, &r.transactions_root))
    return Status::InvalidArgument("malformed transactions_root in receipt");
  auto key_id = doc.GetString("key_id");
  if (!key_id.ok()) return key_id.status();
  r.key_id = *key_id;
  auto sig_hex = doc.GetString("signature");
  if (!sig_hex.ok()) return sig_hex.status();
  auto sig = HexDecode(*sig_hex);
  if (!sig.ok()) return sig.status();
  r.signature = std::move(*sig);
  return r;
}

Result<TransactionReceipt> MakeTransactionReceipt(LedgerDatabase* db,
                                                  uint64_t txn_id) {
  DatabaseLedger* ledger = db->database_ledger();
  if (ledger == nullptr)
    return Status::NotSupported("ledger is disabled for this database");
  auto proven = ledger->ProveTransaction(txn_id);
  if (!proven.ok()) return proven.status();

  TransactionReceipt receipt;
  receipt.entry = std::move(proven->entry);
  receipt.proof = std::move(proven->proof);
  receipt.transactions_root = proven->transactions_root;
  receipt.key_id = db->signer().KeyId();
  receipt.signature = db->signer().Sign(receipt.transactions_root);
  return receipt;
}

bool VerifyTransactionReceipt(const TransactionReceipt& receipt,
                              const Signer& signer) {
  if (!signer.Verify(receipt.transactions_root, Slice(receipt.signature)))
    return false;
  if (receipt.proof.leaf_index != receipt.entry.block_ordinal) return false;
  return MerkleTree::VerifyProof(receipt.entry.LeafHash(), receipt.proof,
                                 receipt.transactions_root);
}

}  // namespace sqlledger
