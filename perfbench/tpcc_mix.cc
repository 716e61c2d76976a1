#include "tpcc_mix.h"

#include <cmath>
#include <functional>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

Value B(int64_t v) { return Value::BigInt(v); }

Schema MakeSchema(
    const std::vector<std::tuple<const char*, DataType, bool, uint32_t>>& cols,
    const std::vector<size_t>& key) {
  Schema s;
  for (const auto& [name, type, nullable, len] : cols)
    s.AddColumn(name, type, nullable, len);
  s.SetPrimaryKey(key);
  return s;
}

constexpr DataType kBig = DataType::kBigInt;
constexpr DataType kDbl = DataType::kDouble;
constexpr DataType kStr = DataType::kVarchar;
constexpr DataType kTs = DataType::kTimestamp;

// Runs `body` inside one transaction: commits on success, aborts on error.
Status InTxn(Client* c, const std::function<Status(Transaction*)>& body) {
  auto txn = c->Begin("tpcc");
  if (!txn.ok()) return txn.status();
  Status st = body(*txn);
  if (!st.ok()) {
    c->Abort(*txn);
    return st;
  }
  return c->Commit(*txn);
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

}  // namespace

const std::set<std::string>& TpccMix::LedgerTables() {
  static const std::set<std::string> tables = {"new_order", "orders",
                                               "order_line", "history"};
  return tables;
}

Status TpccMix::Load(Client* c, Random* rng) {
  LedgerDatabase* db = c->db();
  // Creation order is the lock-acquisition order every transaction follows.
  const std::vector<std::tuple<const char*, Schema, bool>> tables = {
      {"warehouse",
       MakeSchema({{"w_id", kBig, false, 0}, {"w_name", kStr, false, 10},
                   {"w_ytd", kDbl, false, 0}},
                  {0}),
       false},
      {"district",
       MakeSchema({{"d_w_id", kBig, false, 0}, {"d_id", kBig, false, 0},
                   {"d_name", kStr, false, 10}, {"d_next_o_id", kBig, false, 0},
                   {"d_ytd", kDbl, false, 0}},
                  {0, 1}),
       false},
      {"customer",
       MakeSchema({{"c_w_id", kBig, false, 0}, {"c_d_id", kBig, false, 0},
                   {"c_id", kBig, false, 0}, {"c_name", kStr, false, 16},
                   {"c_balance", kDbl, false, 0},
                   {"c_ytd_payment", kDbl, false, 0},
                   {"c_payment_cnt", kBig, false, 0}},
                  {0, 1, 2}),
       false},
      {"item",
       MakeSchema({{"i_id", kBig, false, 0}, {"i_name", kStr, false, 24},
                   {"i_price", kDbl, false, 0}},
                  {0}),
       false},
      {"stock",
       MakeSchema({{"s_w_id", kBig, false, 0}, {"s_i_id", kBig, false, 0},
                   {"s_quantity", kBig, false, 0}, {"s_ytd", kBig, false, 0},
                   {"s_order_cnt", kBig, false, 0}},
                  {0, 1}),
       false},
      {"new_order",
       MakeSchema({{"no_w_id", kBig, false, 0}, {"no_d_id", kBig, false, 0},
                   {"no_o_id", kBig, false, 0}},
                  {0, 1, 2}),
       true},
      {"orders",
       MakeSchema({{"o_w_id", kBig, false, 0}, {"o_d_id", kBig, false, 0},
                   {"o_id", kBig, false, 0}, {"o_c_id", kBig, false, 0},
                   {"o_entry_d", kTs, false, 0}, {"o_carrier_id", kBig, true, 0},
                   {"o_ol_cnt", kBig, false, 0}},
                  {0, 1, 2}),
       true},
      {"order_line",
       MakeSchema({{"ol_w_id", kBig, false, 0}, {"ol_d_id", kBig, false, 0},
                   {"ol_o_id", kBig, false, 0}, {"ol_number", kBig, false, 0},
                   {"ol_i_id", kBig, false, 0}, {"ol_quantity", kBig, false, 0},
                   {"ol_amount", kDbl, false, 0},
                   {"ol_delivery_d", kTs, true, 0}},
                  {0, 1, 2, 3}),
       true},
      {"history",
       MakeSchema({{"h_id", kBig, false, 0}, {"h_w_id", kBig, false, 0},
                   {"h_d_id", kBig, false, 0}, {"h_c_id", kBig, false, 0},
                   {"h_date", kTs, false, 0}, {"h_amount", kDbl, false, 0}},
                  {0}),
       true},
  };
  for (const auto& [name, schema, ledger] : tables) {
    SL_RETURN_IF_ERROR(db->CreateTable(
        name, schema, ledger ? TableKind::kUpdateable : TableKind::kRegular));
  }
  return InTxn(c, [&](Transaction* t) -> Status {
    for (int w = 1; w <= kWarehouses; w++) {
      SL_RETURN_IF_ERROR(c->Insert(
          t, "warehouse",
          {B(w), Value::Varchar("WH" + std::to_string(w)), Value::Double(0)}));
      for (int d = 1; d <= kDistricts; d++) {
        SL_RETURN_IF_ERROR(c->Insert(
            t, "district",
            {B(w), B(d), Value::Varchar("D" + std::to_string(d)), B(1),
             Value::Double(0)}));
        for (int cu = 1; cu <= kCustomers; cu++) {
          SL_RETURN_IF_ERROR(c->Insert(
              t, "customer",
              {B(w), B(d), B(cu), Value::Varchar(rng->AlphaString(12)),
               Value::Double(0), Value::Double(0), B(0)}));
        }
      }
      for (int i = 1; i <= kItems; i++) {
        SL_RETURN_IF_ERROR(c->Insert(
            t, "stock",
            {B(w), B(i), B(50 + static_cast<int64_t>(rng->Uniform(50))), B(0),
             B(0)}));
      }
    }
    for (int i = 1; i <= kItems; i++) {
      SL_RETURN_IF_ERROR(c->Insert(
          t, "item",
          {B(i), Value::Varchar(rng->AlphaString(16)),
           Value::Double(1.0 + static_cast<double>(rng->Uniform(9900)) / 100)}));
    }
    return Status::OK();
  });
}

Status TpccMix::NewOrder(Client* c, Random* rng, uint64_t* versions) {
  const int64_t w = rng->UniformRange(1, kWarehouses);
  const int64_t d = rng->UniformRange(1, kDistricts);
  const int64_t cu = rng->UniformRange(1, kCustomers);
  const int64_t ol_cnt = rng->UniformRange(5, 15);
  std::vector<int64_t> item_ids, qtys;
  for (int64_t ol = 0; ol < ol_cnt; ol++) {
    item_ids.push_back(rng->NonUniform(255, 1, kItems));
    qtys.push_back(rng->UniformRange(1, 10));
  }
  return InTxn(c, [&](Transaction* t) -> Status {
    // Lock order: district -> item -> stock -> new_order -> orders ->
    // order_line.
    auto district = c->Get(t, "district", {B(w), B(d)});
    if (!district.ok()) return district.status();
    const int64_t o_id = (*district)[3].AsInt64();
    Row new_district = *district;
    new_district[3] = B(o_id + 1);
    SL_RETURN_IF_ERROR(c->Update(t, "district", new_district));
    std::vector<double> amounts;
    for (int64_t ol = 0; ol < ol_cnt; ol++) {
      auto item = c->Get(t, "item", {B(item_ids[ol])});
      if (!item.ok()) return item.status();
      amounts.push_back((*item)[2].double_value() * qtys[ol]);
    }
    for (int64_t ol = 0; ol < ol_cnt; ol++) {
      auto stock = c->Get(t, "stock", {B(w), B(item_ids[ol])});
      if (!stock.ok()) return stock.status();
      Row s = *stock;
      int64_t q = s[2].AsInt64() - qtys[ol];
      if (q < 10) q += 91;
      s[2] = B(q);
      s[3] = B(s[3].AsInt64() + qtys[ol]);
      s[4] = B(s[4].AsInt64() + 1);
      SL_RETURN_IF_ERROR(c->Update(t, "stock", s));
    }
    SL_RETURN_IF_ERROR(c->Insert(t, "new_order", {B(w), B(d), B(o_id)}));
    SL_RETURN_IF_ERROR(c->Insert(
        t, "orders",
        {B(w), B(d), B(o_id), B(cu), Value::Timestamp(c->db()->NowMicros()),
         Value::Null(DataType::kBigInt), B(ol_cnt)}));
    for (int64_t ol = 0; ol < ol_cnt; ol++) {
      SL_RETURN_IF_ERROR(c->Insert(
          t, "order_line",
          {B(w), B(d), B(o_id), B(ol + 1), B(item_ids[ol]), B(qtys[ol]),
           Value::Double(amounts[ol]), Value::Null(DataType::kTimestamp)}));
    }
    *versions += 2 + ol_cnt;
    return Status::OK();
  });
}

Status TpccMix::Payment(Client* c, Random* rng, uint64_t* versions) {
  const int64_t w = rng->UniformRange(1, kWarehouses);
  const int64_t d = rng->UniformRange(1, kDistricts);
  const int64_t cu = rng->UniformRange(1, kCustomers);
  const double amount = 1.0 + static_cast<double>(rng->Uniform(500000)) / 100;
  const int64_t h_id = next_history_id_;
  Status st = InTxn(c, [&](Transaction* t) -> Status {
    // Lock order: warehouse -> district -> customer -> history.
    auto warehouse = c->Get(t, "warehouse", {B(w)});
    if (!warehouse.ok()) return warehouse.status();
    Row wh = *warehouse;
    wh[2] = Value::Double(wh[2].double_value() + amount);
    SL_RETURN_IF_ERROR(c->Update(t, "warehouse", wh));
    auto district = c->Get(t, "district", {B(w), B(d)});
    if (!district.ok()) return district.status();
    Row di = *district;
    di[4] = Value::Double(di[4].double_value() + amount);
    SL_RETURN_IF_ERROR(c->Update(t, "district", di));
    auto customer = c->Get(t, "customer", {B(w), B(d), B(cu)});
    if (!customer.ok()) return customer.status();
    Row cr = *customer;
    cr[4] = Value::Double(cr[4].double_value() - amount);
    cr[5] = Value::Double(cr[5].double_value() + amount);
    cr[6] = B(cr[6].AsInt64() + 1);
    SL_RETURN_IF_ERROR(c->Update(t, "customer", cr));
    SL_RETURN_IF_ERROR(c->Insert(
        t, "history",
        {B(h_id), B(w), B(d), B(cu), Value::Timestamp(c->db()->NowMicros()),
         Value::Double(amount)}));
    *versions += 1;
    return Status::OK();
  });
  if (st.ok()) next_history_id_++;
  return st;
}

Status TpccMix::Delivery(Client* c, Random* rng, uint64_t* versions) {
  const int64_t w = rng->UniformRange(1, kWarehouses);
  const int64_t carrier = rng->UniformRange(1, 10);
  return InTxn(c, [&](Transaction* t) -> Status {
    // Lock order: new_order -> orders -> order_line. Up to three districts
    // per delivery (scaled down from TPC-C's ten).
    int delivered = 0;
    for (int64_t d = 1; d <= kDistricts && delivered < 3; d++) {
      auto oldest = c->SeekFirst(t, "new_order", {B(w), B(d)});
      if (!oldest.ok()) {
        if (oldest.status().IsNotFound()) continue;
        return oldest.status();
      }
      const int64_t o_id = (*oldest)[2].AsInt64();
      SL_RETURN_IF_ERROR(c->Delete(t, "new_order", {B(w), B(d), B(o_id)}));
      auto order = c->Get(t, "orders", {B(w), B(d), B(o_id)});
      if (!order.ok()) return order.status();
      Row o = *order;
      o[5] = B(carrier);
      SL_RETURN_IF_ERROR(c->Update(t, "orders", o));
      const int64_t ol_cnt = (*order)[6].AsInt64();
      for (int64_t ol = 1; ol <= ol_cnt; ol++) {
        auto line = c->Get(t, "order_line", {B(w), B(d), B(o_id), B(ol)});
        if (!line.ok()) return line.status();
        Row l = *line;
        l[7] = Value::Timestamp(c->db()->NowMicros());
        SL_RETURN_IF_ERROR(c->Update(t, "order_line", l));
      }
      *versions += 1 + 2 + 2 * ol_cnt;
      delivered++;
    }
    return Status::OK();
  });
}

Status TpccMix::OrderStatus(Client* c, Random* rng) {
  const int64_t w = rng->UniformRange(1, kWarehouses);
  const int64_t d = rng->UniformRange(1, kDistricts);
  const int64_t cu = rng->UniformRange(1, kCustomers);
  return InTxn(c, [&](Transaction* t) -> Status {
    auto customer = c->Get(t, "customer", {B(w), B(d), B(cu)});
    if (!customer.ok()) return customer.status();
    auto order = c->SeekFirst(t, "orders", {B(w), B(d)});
    if (!order.ok()) {
      return order.status().IsNotFound() ? Status::OK() : order.status();
    }
    const int64_t o_id = (*order)[2].AsInt64();
    const int64_t ol_cnt = (*order)[6].AsInt64();
    for (int64_t ol = 1; ol <= ol_cnt; ol++) {
      auto line = c->Get(t, "order_line", {B(w), B(d), B(o_id), B(ol)});
      if (!line.ok()) return line.status();
    }
    return Status::OK();
  });
}

Status TpccMix::StockLevel(Client* c, Random* rng) {
  const int64_t w = rng->UniformRange(1, kWarehouses);
  const int64_t d = rng->UniformRange(1, kDistricts);
  std::vector<int64_t> item_ids;
  for (int i = 0; i < 20; i++) item_ids.push_back(rng->UniformRange(1, kItems));
  return InTxn(c, [&](Transaction* t) -> Status {
    auto district = c->Get(t, "district", {B(w), B(d)});
    if (!district.ok()) return district.status();
    for (int64_t i_id : item_ids) {
      auto stock = c->Get(t, "stock", {B(w), B(i_id)});
      if (!stock.ok()) return stock.status();
    }
    return Status::OK();
  });
}

Status TpccMix::RunOne(Client* c, Random* rng) {
  const uint64_t roll = rng->Uniform(100);
  uint64_t versions = 0;
  Status st;
  if (roll < 45) {
    st = NewOrder(c, rng, &versions);
  } else if (roll < 88) {
    st = Payment(c, rng, &versions);
  } else if (roll < 92) {
    st = Delivery(c, rng, &versions);
  } else if (roll < 96) {
    st = OrderStatus(c, rng);
  } else {
    st = StockLevel(c, rng);
  }
  if (st.ok()) ledger_row_versions_ += versions;
  return st;
}

std::vector<std::string> TpccMix::CheckConsistency(Client* c) {
  std::vector<std::string> problems;
  std::map<int64_t, double> w_ytd, d_ytd_sum, c_ytd_sum, h_sum;
  std::map<std::pair<int64_t, int64_t>, int64_t> next_o_id, max_o_id;
  std::map<std::tuple<int64_t, int64_t, int64_t>, int64_t> ol_cnt, ol_seen;
  Status st = InTxn(c, [&](Transaction* t) -> Status {
    auto scan = [&](const char* table,
                    const std::function<void(const Row&)>& fn) -> Status {
      auto rows = c->Scan(t, table);
      if (!rows.ok()) return rows.status();
      for (const Row& r : *rows) fn(r);
      return Status::OK();
    };
    SL_RETURN_IF_ERROR(scan("warehouse", [&](const Row& r) {
      w_ytd[r[0].AsInt64()] = r[2].double_value();
    }));
    SL_RETURN_IF_ERROR(scan("district", [&](const Row& r) {
      d_ytd_sum[r[0].AsInt64()] += r[4].double_value();
      next_o_id[{r[0].AsInt64(), r[1].AsInt64()}] = r[3].AsInt64();
      max_o_id[{r[0].AsInt64(), r[1].AsInt64()}] = 0;
    }));
    SL_RETURN_IF_ERROR(scan("customer", [&](const Row& r) {
      c_ytd_sum[r[0].AsInt64()] += r[5].double_value();
    }));
    SL_RETURN_IF_ERROR(scan("history", [&](const Row& r) {
      h_sum[r[1].AsInt64()] += r[5].double_value();
    }));
    SL_RETURN_IF_ERROR(scan("orders", [&](const Row& r) {
      int64_t& m = max_o_id[{r[0].AsInt64(), r[1].AsInt64()}];
      m = std::max(m, r[2].AsInt64());
      ol_cnt[{r[0].AsInt64(), r[1].AsInt64(), r[2].AsInt64()}] =
          r[6].AsInt64();
    }));
    return scan("order_line", [&](const Row& r) {
      ol_seen[{r[0].AsInt64(), r[1].AsInt64(), r[2].AsInt64()}]++;
    });
  });
  if (!st.ok()) return {"consistency scan failed: " + st.ToString()};
  for (const auto& [w, ytd] : w_ytd) {
    if (!Near(ytd, d_ytd_sum[w]) || !Near(ytd, c_ytd_sum[w]) ||
        !Near(ytd, h_sum[w])) {
      problems.push_back("warehouse " + std::to_string(w) +
                         ": W_YTD, sum(D_YTD), sum(C_YTD_PAYMENT) and "
                         "sum(H_AMOUNT) differ");
    }
  }
  for (const auto& [key, next] : next_o_id) {
    if (next - 1 != max_o_id[key]) {
      problems.push_back("district " + std::to_string(key.second) +
                         ": D_NEXT_O_ID - 1 != max(O_ID)");
    }
  }
  for (const auto& [key, cnt] : ol_cnt) {
    if (ol_seen[key] != cnt) {
      problems.push_back("order " + std::to_string(std::get<2>(key)) +
                         ": order-line count != O_OL_CNT");
    }
  }
  if (ol_seen.size() != ol_cnt.size())
    problems.push_back("order lines reference missing orders");
  return problems;
}

}  // namespace perfbench
