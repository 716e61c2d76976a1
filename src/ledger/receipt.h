// Transaction receipts (paper §5.1): cryptographic, self-contained proof
// that a transaction is part of the ledger, verifiable even if the ledger
// is later tampered with or destroyed (non-repudiation). A receipt bundles
//   - the transaction entry itself,
//   - the Merkle proof of the entry in its block's transaction tree, and
//   - one signature over the block's transactions root — a single signing
//     operation amortized over every transaction in the block.

#ifndef SQLLEDGER_LEDGER_RECEIPT_H_
#define SQLLEDGER_LEDGER_RECEIPT_H_

#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "ledger/ledger_database.h"
#include "ledger/types.h"
#include "util/result.h"

namespace sqlledger {

struct TransactionReceipt {
  TransactionEntry entry;
  /// Merkle proof of the entry in the block's transaction tree.
  MerkleProof proof;
  /// The signed transactions root of the entry's block.
  Hash256 transactions_root;
  std::string key_id;
  std::vector<uint8_t> signature;

  /// JSON interchange form (hashes hex-encoded).
  std::string ToJson() const;
  static Result<TransactionReceipt> FromJson(const std::string& json);
};

/// Issues a receipt for a committed transaction. The transaction's block
/// must be closed — generate a digest first if it is still open (Busy
/// otherwise). Corruption when the block's stored entries no longer rebuild
/// its stored root: a receipt is issued only if it verifies.
Result<TransactionReceipt> MakeTransactionReceipt(LedgerDatabase* db,
                                                  uint64_t txn_id);

/// Verifies a receipt offline: recomputes the entry's leaf hash, replays
/// the Merkle proof to the signed root, and checks the signature. Needs no
/// database access.
bool VerifyTransactionReceipt(const TransactionReceipt& receipt,
                              const Signer& signer);

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_RECEIPT_H_
