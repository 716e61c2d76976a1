// The TPC-C-like transaction mix of src/workload/tpcc.cc (New-Order /
// Payment / Delivery / Order-Status / Stock-Level at 45/43/4/4/4, the four
// order tables as updateable ledger tables), issued by the benchmark through
// Client so that every DML call is timed: TpccWorkload makes its calls
// internally, where no span can reach them. Inputs come from the run's seed.
// The mix also counts the ledger row versions it writes, for the verifier
// cross-check, and checks the TPC-C consistency conditions at the end.

#ifndef PERFBENCH_TPCC_MIX_H_
#define PERFBENCH_TPCC_MIX_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "util/random.h"

namespace perfbench {

class TpccMix {
 public:
  static constexpr int kWarehouses = 1;
  static constexpr int kDistricts = 10;
  static constexpr int kCustomers = 30;  // per district
  static constexpr int kItems = 100;

  /// The four order/payment tables, which are ledger tables.
  static const std::set<std::string>& LedgerTables();

  /// Creates the nine tables and loads the initial population.
  Status Load(Client* client, Random* rng);
  /// Runs one transaction drawn from the mix. A non-OK status is a failed
  /// transaction (the transaction was aborted).
  Status RunOne(Client* client, Random* rng);

  /// Row versions written to ledger tables by committed transactions, as
  /// the verifier counts them: 1 per insert, 2 per update, 1 per delete.
  uint64_t ledger_row_versions() const { return ledger_row_versions_; }

  /// The TPC-C consistency conditions: W_YTD = sum(D_YTD) =
  /// sum(C_YTD_PAYMENT) = sum(H_AMOUNT); D_NEXT_O_ID - 1 = max(O_ID) per
  /// district; each order's order-line count = O_OL_CNT. Returns one line
  /// per violated condition.
  std::vector<std::string> CheckConsistency(Client* client);

 private:
  Status NewOrder(Client* c, Random* rng, uint64_t* versions);
  Status Payment(Client* c, Random* rng, uint64_t* versions);
  Status Delivery(Client* c, Random* rng, uint64_t* versions);
  Status OrderStatus(Client* c, Random* rng);
  Status StockLevel(Client* c, Random* rng);

  int64_t next_history_id_ = 1;
  uint64_t ledger_row_versions_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TPCC_MIX_H_
