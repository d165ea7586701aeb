#include "tpcc/tpcc.h"

#include <algorithm>
#include <mutex>
#include <thread>

namespace aedb::tpcc {

using types::Value;

const char* EncryptionName(Encryption e) {
  switch (e) {
    case Encryption::kPlaintext: return "plaintext";
    case Encryption::kDeterministic: return "DET";
    case Encryption::kRandomized: return "RND";
  }
  return "?";
}

std::string LastName(int num) {
  static constexpr const char* kSyllables[] = {
      "BAR", "OUGHT", "ABLE", "PRI", "PRES",
      "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  return std::string(kSyllables[(num / 100) % 10]) + kSyllables[(num / 10) % 10] +
         kSyllables[num % 10];
}

namespace {
constexpr int64_t kCLoadLast = 157;  // load-time NURand constant

std::string EncClause(const TpccConfig& config) {
  if (config.encryption == Encryption::kPlaintext) return "";
  std::string kind = config.encryption == Encryption::kDeterministic
                         ? "Deterministic"
                         : "Randomized";
  return " ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = " + config.cek_name +
         ", ENCRYPTION_TYPE = " + kind +
         ", ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')";
}
}  // namespace

Status TpccLoader::CreateSchema() {
  const std::string enc = EncClause(config_);
  const char* kPlainTables[] = {
      "CREATE TABLE Warehouse (W_ID INT NOT NULL, W_NAME VARCHAR(10), "
      "W_TAX DOUBLE, W_YTD DOUBLE)",
      "CREATE TABLE District (D_ID INT NOT NULL, D_W_ID INT NOT NULL, "
      "D_NAME VARCHAR(10), D_TAX DOUBLE, D_YTD DOUBLE, D_NEXT_O_ID INT)",
      "CREATE TABLE History (H_C_ID INT, H_C_D_ID INT, H_C_W_ID INT, "
      "H_D_ID INT, H_W_ID INT, H_DATE BIGINT, H_AMOUNT DOUBLE, "
      "H_DATA VARCHAR(24))",
      "CREATE TABLE NewOrder (NO_O_ID INT NOT NULL, NO_D_ID INT NOT NULL, "
      "NO_W_ID INT NOT NULL)",
      "CREATE TABLE Orders (O_ID INT NOT NULL, O_D_ID INT NOT NULL, "
      "O_W_ID INT NOT NULL, O_C_ID INT, O_ENTRY_D BIGINT, O_CARRIER_ID INT, "
      "O_OL_CNT INT)",
      "CREATE TABLE OrderLine (OL_O_ID INT NOT NULL, OL_D_ID INT NOT NULL, "
      "OL_W_ID INT NOT NULL, OL_NUMBER INT, OL_I_ID INT, OL_DELIVERY_D BIGINT, "
      "OL_QUANTITY INT, OL_AMOUNT DOUBLE)",
      "CREATE TABLE Item (I_ID INT NOT NULL, I_NAME VARCHAR(24), "
      "I_PRICE DOUBLE, I_DATA VARCHAR(50))",
      "CREATE TABLE Stock (S_I_ID INT NOT NULL, S_W_ID INT NOT NULL, "
      "S_QUANTITY INT, S_YTD DOUBLE, S_ORDER_CNT INT)",
  };
  for (const char* ddl : kPlainTables) {
    AEDB_RETURN_IF_ERROR(driver_->ExecuteDdl(ddl));
  }
  // CUSTOMER: the six PII columns carry the configured encryption (§5.3).
  AEDB_RETURN_IF_ERROR(driver_->ExecuteDdl(
      "CREATE TABLE Customer (C_ID INT NOT NULL, C_D_ID INT NOT NULL, "
      "C_W_ID INT NOT NULL, "
      "C_FIRST VARCHAR(16)" + enc + ", "
      "C_MIDDLE CHAR(2), "
      "C_LAST VARCHAR(16)" + enc + ", "
      "C_STREET_1 VARCHAR(20)" + enc + ", "
      "C_STREET_2 VARCHAR(20)" + enc + ", "
      "C_CITY VARCHAR(20)" + enc + ", "
      "C_STATE CHAR(2)" + enc + ", "
      "C_ZIP CHAR(9), C_PHONE CHAR(16), C_CREDIT CHAR(2), "
      "C_CREDIT_LIM DOUBLE, C_DISCOUNT DOUBLE, C_BALANCE DOUBLE, "
      "C_YTD_PAYMENT DOUBLE, C_PAYMENT_CNT INT, C_DELIVERY_CNT INT)"));

  const char* kIndexes[] = {
      "CREATE INDEX W_PK ON Warehouse (W_ID)",
      "CREATE INDEX D_W ON District (D_W_ID)",
      "CREATE INDEX C_PK ON Customer (C_ID)",
      "CREATE INDEX NO_W ON NewOrder (NO_W_ID)",
      "CREATE INDEX O_C ON Orders (O_C_ID)",
      "CREATE INDEX OL_O ON OrderLine (OL_O_ID)",
      "CREATE INDEX I_PK ON Item (I_ID)",
      "CREATE INDEX S_I ON Stock (S_I_ID)",
  };
  for (const char* ddl : kIndexes) {
    AEDB_RETURN_IF_ERROR(driver_->ExecuteDdl(ddl));
  }
  // CUSTOMER_NC1 analog: the last-name access path (the paper creates a
  // non-unique index; ours is single-column on C_LAST). Equality index for
  // DET, enclave range index for RND, plain range index otherwise.
  return driver_->ExecuteDdl("CREATE INDEX CUSTOMER_NC1 ON Customer (C_LAST)");
}

Status TpccLoader::LoadWarehouse(int w) {
  Xoshiro256 rng(config_.seed * 7919 + w);
  uint64_t txn = driver_->Begin();
  auto exec = [&](const std::string& sql,
                  const client::Driver::NamedParams& params) -> Status {
    auto r = driver_->Query(sql, params, txn);
    return r.status();
  };
  Status st = exec(
      "INSERT INTO Warehouse (W_ID, W_NAME, W_TAX, W_YTD) VALUES "
      "(@w, @n, @t, @y)",
      {{"w", Value::Int32(w)},
       {"n", Value::String("W" + std::to_string(w))},
       {"t", Value::Double(rng.Uniform(0, 2000) / 10000.0)},
       {"y", Value::Double(300000.0)}});
  for (int d = 1; st.ok() && d <= config_.districts_per_warehouse; ++d) {
    st = exec(
        "INSERT INTO District (D_ID, D_W_ID, D_NAME, D_TAX, D_YTD, "
        "D_NEXT_O_ID) VALUES (@d, @w, @n, @t, @y, @o)",
        {{"d", Value::Int32(d)},
         {"w", Value::Int32(w)},
         {"n", Value::String("D" + std::to_string(d))},
         {"t", Value::Double(rng.Uniform(0, 2000) / 10000.0)},
         {"y", Value::Double(30000.0)},
         {"o", Value::Int32(config_.initial_orders_per_district + 1)}});
    for (int c = 1; st.ok() && c <= config_.customers_per_district; ++c) {
      // Spec: first customers get sequential last names, the rest NURand.
      int64_t max_name =
          std::min<int64_t>(999, config_.customers_per_district * 3);
      int name_num = c <= std::min<int64_t>(config_.customers_per_district,
                                            max_name + 1) &&
                             c <= 1000
                         ? c - 1
                         : static_cast<int>(rng.NURand(255, 0, max_name,
                                                       kCLoadLast));
      st = exec(
          "INSERT INTO Customer (C_ID, C_D_ID, C_W_ID, C_FIRST, C_MIDDLE, "
          "C_LAST, C_STREET_1, C_STREET_2, C_CITY, C_STATE, C_ZIP, C_PHONE, "
          "C_CREDIT, C_CREDIT_LIM, C_DISCOUNT, C_BALANCE, C_YTD_PAYMENT, "
          "C_PAYMENT_CNT, C_DELIVERY_CNT) VALUES (@c, @d, @w, @first, 'OE', "
          "@last, @s1, @s2, @city, @state, @zip, @phone, @credit, 50000.0, "
          "@disc, -10.0, 10.0, 1, 0)",
          {{"c", Value::Int32(c)},
           {"d", Value::Int32(d)},
           {"w", Value::Int32(w)},
           {"first", Value::String("First" + std::to_string(rng.Uniform(1, 9999)))},
           {"last", Value::String(LastName(name_num))},
           {"s1", Value::String("Street" + std::to_string(rng.Uniform(1, 999)))},
           {"s2", Value::String("Apt" + std::to_string(rng.Uniform(1, 999)))},
           {"city", Value::String("City" + std::to_string(rng.Uniform(1, 99)))},
           {"state", Value::String(std::string(1, 'A' + static_cast<char>(rng.Uniform(0, 25))) +
                                   std::string(1, 'A' + static_cast<char>(rng.Uniform(0, 25))))},
           {"zip", Value::String(std::to_string(rng.Uniform(10000, 99999)) + "1111")},
           {"phone", Value::String(std::to_string(rng.Uniform(1000000000LL, 9999999999LL)))},
           {"credit", Value::String(rng.Uniform(1, 10) == 1 ? "BC" : "GC")},
           {"disc", Value::Double(rng.Uniform(0, 5000) / 10000.0)}});
    }
    // Initial orders + new-orders + order lines.
    for (int o = 1; st.ok() && o <= config_.initial_orders_per_district; ++o) {
      int ol_cnt = static_cast<int>(rng.Uniform(5, 15));
      st = exec(
          "INSERT INTO Orders (O_ID, O_D_ID, O_W_ID, O_C_ID, O_ENTRY_D, "
          "O_CARRIER_ID, O_OL_CNT) VALUES (@o, @d, @w, @c, @e, @cr, @n)",
          {{"o", Value::Int32(o)},
           {"d", Value::Int32(d)},
           {"w", Value::Int32(w)},
           {"c", Value::Int32(static_cast<int>(
                     rng.Uniform(1, config_.customers_per_district)))},
           {"e", Value::Int64(1000000 + o)},
           {"cr", o <= config_.initial_orders_per_district * 7 / 10
                      ? Value::Int32(static_cast<int>(rng.Uniform(1, 10)))
                      : Value::Null(types::TypeId::kInt32)},
           {"n", Value::Int32(ol_cnt)}});
      if (st.ok() && o > config_.initial_orders_per_district * 7 / 10) {
        st = exec(
            "INSERT INTO NewOrder (NO_O_ID, NO_D_ID, NO_W_ID) VALUES "
            "(@o, @d, @w)",
            {{"o", Value::Int32(o)}, {"d", Value::Int32(d)},
             {"w", Value::Int32(w)}});
      }
      for (int l = 1; st.ok() && l <= ol_cnt; ++l) {
        st = exec(
            "INSERT INTO OrderLine (OL_O_ID, OL_D_ID, OL_W_ID, OL_NUMBER, "
            "OL_I_ID, OL_DELIVERY_D, OL_QUANTITY, OL_AMOUNT) VALUES "
            "(@o, @d, @w, @l, @i, @dd, 5, @a)",
            {{"o", Value::Int32(o)},
             {"d", Value::Int32(d)},
             {"w", Value::Int32(w)},
             {"l", Value::Int32(l)},
             {"i", Value::Int32(static_cast<int>(rng.Uniform(1, config_.items)))},
             {"dd", Value::Int64(1000000 + o)},
             {"a", Value::Double(rng.Uniform(1, 999999) / 100.0)}});
      }
    }
  }
  if (!st.ok()) {
    (void)driver_->Rollback(txn);
    return st;
  }
  return driver_->Commit(txn);
}

Status TpccLoader::Load() {
  Xoshiro256 rng(config_.seed);
  uint64_t txn = driver_->Begin();
  Status st = Status::OK();
  for (int i = 1; st.ok() && i <= config_.items; ++i) {
    auto r = driver_->Query(
        "INSERT INTO Item (I_ID, I_NAME, I_PRICE, I_DATA) VALUES "
        "(@i, @n, @p, @dta)",
        {{"i", Value::Int32(i)},
         {"n", Value::String("Item" + std::to_string(i))},
         {"p", Value::Double(rng.Uniform(100, 10000) / 100.0)},
         {"dta", Value::String("data" + std::to_string(rng.Uniform(1, 9999)))}},
        txn);
    st = r.status();
  }
  for (int w = 1; st.ok() && w <= config_.warehouses; ++w) {
    for (int i = 1; st.ok() && i <= config_.items; ++i) {
      auto r = driver_->Query(
          "INSERT INTO Stock (S_I_ID, S_W_ID, S_QUANTITY, S_YTD, "
          "S_ORDER_CNT) VALUES (@i, @w, @q, 0.0, 0)",
          {{"i", Value::Int32(i)},
           {"w", Value::Int32(w)},
           {"q", Value::Int32(static_cast<int>(rng.Uniform(10, 100)))}},
          txn);
      st = r.status();
    }
  }
  if (!st.ok()) {
    (void)driver_->Rollback(txn);
    return st;
  }
  AEDB_RETURN_IF_ERROR(driver_->Commit(txn));
  for (int w = 1; w <= config_.warehouses; ++w) {
    AEDB_RETURN_IF_ERROR(LoadWarehouse(w));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transactions

Result<int> TpccTerminal::CustomerByLastName(uint64_t txn, int w, int d,
                                             const std::string& last) {
  sql::ResultSet rs;
  AEDB_ASSIGN_OR_RETURN(
      rs, driver_->Query(
              "SELECT C_ID, C_FIRST FROM Customer WHERE C_W_ID = @w AND "
              "C_D_ID = @d AND C_LAST = @last",
              {{"w", Value::Int32(w)},
               {"d", Value::Int32(d)},
               {"last", Value::String(last)}},
              txn));
  if (rs.rows.empty()) return Status::NotFound("no customer with that name");
  // Client-side sort on C_FIRST; pick the median (replaces ORDER BY, §5.3).
  std::sort(rs.rows.begin(), rs.rows.end(),
            [](const auto& a, const auto& b) { return a[1].str() < b[1].str(); });
  return rs.rows[rs.rows.size() / 2][0].i32();
}

Status TpccTerminal::NewOrder() {
  int w = static_cast<int>(rng_.Uniform(1, config_.warehouses));
  int d = static_cast<int>(rng_.Uniform(1, config_.districts_per_warehouse));
  int c = RandomCustomerId();
  int ol_cnt = static_cast<int>(rng_.Uniform(5, 15));
  bool rollback = rng_.Uniform(1, 100) == 1;  // spec: 1% invalid item
  // Remote order: the lines' stock comes from another warehouse, so under
  // warehouse sharding this transaction writes two shards and commits by 2PC.
  int supply_w = PickRemote() ? RemoteWarehouse(w) : w;

  uint64_t txn = driver_->Begin();
  auto fail = [&](const Status& st) { return FailTxn(txn, st); };

  auto district = driver_->Query(
      "SELECT D_TAX, D_NEXT_O_ID FROM District WHERE D_W_ID = @w AND "
      "D_ID = @d",
      {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}}, txn);
  if (!district.ok()) return fail(district.status());
  if (district->rows.empty()) return fail(Status::Internal("missing district"));
  int o_id = district->rows[0][1].i32();

  auto upd = driver_->Query(
      "UPDATE District SET D_NEXT_O_ID = D_NEXT_O_ID + 1 WHERE D_W_ID = @w "
      "AND D_ID = @d",
      {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}}, txn);
  if (!upd.ok()) return fail(upd.status());

  auto cust = driver_->Query(
      "SELECT C_DISCOUNT FROM Customer WHERE C_W_ID = @w AND C_D_ID = @d "
      "AND C_ID = @c",
      {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}, {"c", Value::Int32(c)}},
      txn);
  if (!cust.ok()) return fail(cust.status());

  auto orders = driver_->Query(
      "INSERT INTO Orders (O_ID, O_D_ID, O_W_ID, O_C_ID, O_ENTRY_D, "
      "O_CARRIER_ID, O_OL_CNT) VALUES (@o, @d, @w, @c, @e, NULL, @n)",
      {{"o", Value::Int32(o_id)},
       {"d", Value::Int32(d)},
       {"w", Value::Int32(w)},
       {"c", Value::Int32(c)},
       {"e", Value::Int64(static_cast<int64_t>(committed_ + aborted_))},
       {"n", Value::Int32(ol_cnt)}},
      txn);
  if (!orders.ok()) return fail(orders.status());
  auto no = driver_->Query(
      "INSERT INTO NewOrder (NO_O_ID, NO_D_ID, NO_W_ID) VALUES (@o, @d, @w)",
      {{"o", Value::Int32(o_id)}, {"d", Value::Int32(d)}, {"w", Value::Int32(w)}},
      txn);
  if (!no.ok()) return fail(no.status());

  for (int l = 1; l <= ol_cnt; ++l) {
    int item = static_cast<int>(
        rng_.NURand(8191, 1, config_.items, /*C=*/7911 % config_.items));
    if (rollback && l == ol_cnt) {
      // Unused item id: the transaction rolls back by spec.
      (void)driver_->Rollback(txn);
      ++aborted_;
      return Status::OK();
    }
    auto price = driver_->Query("SELECT I_PRICE FROM Item WHERE I_ID = @i",
                                {{"i", Value::Int32(item)}}, txn);
    if (!price.ok()) return fail(price.status());
    if (price->rows.empty()) return fail(Status::Internal("missing item"));
    auto stock = driver_->Query(
        "SELECT S_QUANTITY FROM Stock WHERE S_I_ID = @i AND S_W_ID = @w",
        {{"i", Value::Int32(item)}, {"w", Value::Int32(supply_w)}}, txn);
    if (!stock.ok()) return fail(stock.status());
    if (stock->rows.empty()) return fail(Status::Internal("missing stock"));
    int quantity = static_cast<int>(rng_.Uniform(1, 10));
    int s_q = stock->rows[0][0].i32();
    int new_q = s_q >= quantity + 10 ? s_q - quantity : s_q - quantity + 91;
    auto supd = driver_->Query(
        "UPDATE Stock SET S_QUANTITY = @q, S_ORDER_CNT = S_ORDER_CNT + 1 "
        "WHERE S_I_ID = @i AND S_W_ID = @w",
        {{"q", Value::Int32(new_q)},
         {"i", Value::Int32(item)},
         {"w", Value::Int32(supply_w)}},
        txn);
    if (!supd.ok()) return fail(supd.status());
    double amount = quantity * price->rows[0][0].dbl();
    auto ol = driver_->Query(
        "INSERT INTO OrderLine (OL_O_ID, OL_D_ID, OL_W_ID, OL_NUMBER, "
        "OL_I_ID, OL_DELIVERY_D, OL_QUANTITY, OL_AMOUNT) VALUES "
        "(@o, @d, @w, @l, @i, NULL, @q, @a)",
        {{"o", Value::Int32(o_id)},
         {"d", Value::Int32(d)},
         {"w", Value::Int32(w)},
         {"l", Value::Int32(l)},
         {"i", Value::Int32(item)},
         {"q", Value::Int32(quantity)},
         {"a", Value::Double(amount)}},
        txn);
    if (!ol.ok()) return fail(ol.status());
  }
  Status st = driver_->Commit(txn);
  if (!st.ok()) return fail(st);
  ++committed_;
  return Status::OK();
}

Status TpccTerminal::Payment() {
  int w = static_cast<int>(rng_.Uniform(1, config_.warehouses));
  int d = static_cast<int>(rng_.Uniform(1, config_.districts_per_warehouse));
  double amount = rng_.Uniform(100, 500000) / 100.0;
  // Remote payment: the customer banks at another warehouse — the customer
  // update lands on a different shard than the warehouse/district updates.
  int c_w = PickRemote() ? RemoteWarehouse(w) : w;

  uint64_t txn = driver_->Begin();
  auto fail = [&](const Status& st) { return FailTxn(txn, st); };

  auto wupd = driver_->Query(
      "UPDATE Warehouse SET W_YTD = W_YTD + @a WHERE W_ID = @w",
      {{"a", Value::Double(amount)}, {"w", Value::Int32(w)}}, txn);
  if (!wupd.ok()) return fail(wupd.status());
  auto dupd = driver_->Query(
      "UPDATE District SET D_YTD = D_YTD + @a WHERE D_W_ID = @w AND D_ID = @d",
      {{"a", Value::Double(amount)}, {"w", Value::Int32(w)}, {"d", Value::Int32(d)}},
      txn);
  if (!dupd.ok()) return fail(dupd.status());

  int c_id;
  if (ByLastName()) {
    // The encrypted predicate of the benchmark (DET host compare or enclave
    // evaluation depending on configuration).
    auto found = CustomerByLastName(txn, c_w, d, RandomLastName());
    if (!found.ok()) {
      if (found.status().IsNotFound()) {
        c_id = RandomCustomerId();
      } else {
        return fail(found.status());
      }
    } else {
      c_id = *found;
    }
  } else {
    c_id = RandomCustomerId();
  }

  auto cupd = driver_->Query(
      "UPDATE Customer SET C_BALANCE = C_BALANCE - @a, "
      "C_YTD_PAYMENT = C_YTD_PAYMENT + @a, C_PAYMENT_CNT = C_PAYMENT_CNT + 1 "
      "WHERE C_W_ID = @w AND C_D_ID = @d AND C_ID = @c",
      {{"a", Value::Double(amount)},
       {"w", Value::Int32(c_w)},
       {"d", Value::Int32(d)},
       {"c", Value::Int32(c_id)}},
      txn);
  if (!cupd.ok()) return fail(cupd.status());

  auto hist = driver_->Query(
      "INSERT INTO History (H_C_ID, H_C_D_ID, H_C_W_ID, H_D_ID, H_W_ID, "
      "H_DATE, H_AMOUNT, H_DATA) VALUES (@c, @cd, @cw, @d, @w, @t, @a, "
      "'pay')",
      {{"c", Value::Int32(c_id)},
       {"cd", Value::Int32(d)},
       {"cw", Value::Int32(c_w)},
       {"d", Value::Int32(d)},
       {"w", Value::Int32(w)},
       {"t", Value::Int64(static_cast<int64_t>(committed_))},
       {"a", Value::Double(amount)}},
      txn);
  if (!hist.ok()) return fail(hist.status());

  Status st = driver_->Commit(txn);
  if (!st.ok()) return fail(st);
  ++committed_;
  return Status::OK();
}

Status TpccTerminal::OrderStatus() {
  int w = static_cast<int>(rng_.Uniform(1, config_.warehouses));
  int d = static_cast<int>(rng_.Uniform(1, config_.districts_per_warehouse));
  uint64_t txn = driver_->Begin();
  auto fail = [&](const Status& st) { return FailTxn(txn, st); };

  int c_id;
  if (ByLastName()) {
    auto found = CustomerByLastName(txn, w, d, RandomLastName());
    c_id = found.ok() ? *found : RandomCustomerId();
  } else {
    c_id = RandomCustomerId();
  }
  auto bal = driver_->Query(
      "SELECT C_BALANCE FROM Customer WHERE C_W_ID = @w AND C_D_ID = @d AND "
      "C_ID = @c",
      {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}, {"c", Value::Int32(c_id)}},
      txn);
  if (!bal.ok()) return fail(bal.status());

  auto order = driver_->Query(
      "SELECT O_ID, O_CARRIER_ID FROM Orders WHERE O_W_ID = @w AND "
      "O_D_ID = @d AND O_C_ID = @c ORDER BY O_ID DESC LIMIT 1",
      {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}, {"c", Value::Int32(c_id)}},
      txn);
  if (!order.ok()) return fail(order.status());
  if (!order->rows.empty()) {
    auto lines = driver_->Query(
        "SELECT OL_I_ID, OL_QUANTITY, OL_AMOUNT FROM OrderLine WHERE "
        "OL_W_ID = @w AND OL_D_ID = @d AND OL_O_ID = @o",
        {{"w", Value::Int32(w)},
         {"d", Value::Int32(d)},
         {"o", order->rows[0][0]}},
        txn);
    if (!lines.ok()) return fail(lines.status());
  }
  Status st = driver_->Commit(txn);
  if (!st.ok()) return fail(st);
  ++committed_;
  return Status::OK();
}

Status TpccTerminal::Delivery() {
  int w = static_cast<int>(rng_.Uniform(1, config_.warehouses));
  int carrier = static_cast<int>(rng_.Uniform(1, 10));
  uint64_t txn = driver_->Begin();
  auto fail = [&](const Status& st) { return FailTxn(txn, st); };

  for (int d = 1; d <= config_.districts_per_warehouse; ++d) {
    auto oldest = driver_->Query(
        "SELECT MIN(NO_O_ID) FROM NewOrder WHERE NO_W_ID = @w AND NO_D_ID = @d",
        {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}}, txn);
    if (!oldest.ok()) return fail(oldest.status());
    if (oldest->rows.empty() || oldest->rows[0][0].is_null()) continue;
    int o_id = static_cast<int>(oldest->rows[0][0].AsInt64());
    auto del = driver_->Query(
        "DELETE FROM NewOrder WHERE NO_W_ID = @w AND NO_D_ID = @d AND "
        "NO_O_ID = @o",
        {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}, {"o", Value::Int32(o_id)}},
        txn);
    if (!del.ok()) return fail(del.status());
    auto oupd = driver_->Query(
        "UPDATE Orders SET O_CARRIER_ID = @cr WHERE O_W_ID = @w AND "
        "O_D_ID = @d AND O_ID = @o",
        {{"cr", Value::Int32(carrier)},
         {"w", Value::Int32(w)},
         {"d", Value::Int32(d)},
         {"o", Value::Int32(o_id)}},
        txn);
    if (!oupd.ok()) return fail(oupd.status());
    auto amount = driver_->Query(
        "SELECT SUM(OL_AMOUNT) FROM OrderLine WHERE OL_W_ID = @w AND "
        "OL_D_ID = @d AND OL_O_ID = @o",
        {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}, {"o", Value::Int32(o_id)}},
        txn);
    if (!amount.ok()) return fail(amount.status());
  }
  Status st = driver_->Commit(txn);
  if (!st.ok()) return fail(st);
  ++committed_;
  return Status::OK();
}

Status TpccTerminal::StockLevel() {
  int w = static_cast<int>(rng_.Uniform(1, config_.warehouses));
  int d = static_cast<int>(rng_.Uniform(1, config_.districts_per_warehouse));
  int threshold = static_cast<int>(rng_.Uniform(10, 20));
  uint64_t txn = driver_->Begin();
  auto fail = [&](const Status& st) { return FailTxn(txn, st); };
  auto next = driver_->Query(
      "SELECT D_NEXT_O_ID FROM District WHERE D_W_ID = @w AND D_ID = @d",
      {{"w", Value::Int32(w)}, {"d", Value::Int32(d)}}, txn);
  if (!next.ok()) return fail(next.status());
  if (next->rows.empty()) return fail(Status::Internal("missing district"));
  int next_o = next->rows[0][0].i32();
  auto count = driver_->Query(
      "SELECT COUNT(*) FROM OrderLine JOIN Stock ON OL_I_ID = S_I_ID WHERE "
      "OL_W_ID = @w AND OL_D_ID = @d AND OL_O_ID >= @lo AND S_W_ID = @w2 "
      "AND S_QUANTITY < @t",
      {{"w", Value::Int32(w)},
       {"d", Value::Int32(d)},
       {"lo", Value::Int32(next_o - 20)},
       {"w2", Value::Int32(w)},
       {"t", Value::Int32(threshold)}},
      txn);
  if (!count.ok()) return fail(count.status());
  Status st = driver_->Commit(txn);
  if (!st.ok()) return fail(st);
  ++committed_;
  return Status::OK();
}

Status TpccTerminal::FailTxn(uint64_t txn, const Status& st) {
  (void)driver_->Rollback(txn);
  ++aborted_;
  // kFailedPrecondition is ordinary contention — a deadlock victim, a lock
  // timeout or a write-write conflict after a lock wait: swallow and move on.
  // kTransactionAborted is a recovery-induced abort (enclave restart mid-txn,
  // commit not durable): surface it so RunOne restarts the transaction.
  return st.code() == StatusCode::kFailedPrecondition ? Status::OK() : st;
}

Status TpccTerminal::RunOne() {
  int64_t pick = rng_.Uniform(1, 100);
  auto run = [&]() -> Status {
    if (pick <= 45) return NewOrder();
    if (pick <= 88) return Payment();
    if (pick <= 92) return OrderStatus();
    if (pick <= 96) return Delivery();
    return StockLevel();
  };
  Status st = run();
  // TPC-C contract for recovery-induced aborts: restart the same transaction
  // type. Bounded so a permanently armed fault cannot spin forever; each
  // failed attempt was already counted into aborted_ by FailTxn.
  for (int i = 0; i < kMaxTxnRestarts && st.IsTransactionAborted(); ++i) {
    ++restarts_;
    st = run();
  }
  return st.IsTransactionAborted() ? Status::OK() : st;
}

BenchcraftResult RunBenchcraft(
    const std::function<std::unique_ptr<client::Driver>()>& driver_factory,
    const TpccConfig& config, int threads, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::atomic<uint64_t> committed{0}, aborted{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto driver = driver_factory();
      if (driver == nullptr) {
        // Factory failed (e.g. loopback connect refused): still signal ready
        // so the barrier below releases the healthy terminals.
        ready.fetch_add(1);
        return;
      }
      TpccTerminal terminal(driver.get(), config, config.seed * 104729 + t);
      // Warm up outside the timed window: attestation, key installs,
      // describe/plan caches, first-touch allocations.
      for (int i = 0; i < 2; ++i) (void)terminal.RunOne();
      uint64_t warm_committed = terminal.committed();
      uint64_t warm_aborted = terminal.aborted();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        Status st = terminal.RunOne();
        if (!st.ok()) break;  // hard error: stop this terminal
      }
      committed.fetch_add(terminal.committed() - warm_committed);
      aborted.fetch_add(terminal.aborted() - warm_aborted);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& w : workers) w.join();
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               start)
                     .count();
  BenchcraftResult result;
  result.seconds = elapsed;
  result.committed = committed.load();
  result.aborted = aborted.load();
  result.txn_per_second = result.committed / elapsed;
  return result;
}

BenchcraftResult RunBenchcraftCount(
    const std::function<std::unique_ptr<client::Driver>()>& driver_factory,
    const TpccConfig& config, int threads, uint64_t target_committed,
    double deadline_seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0}, aborted{0};
  std::mutex error_mu;
  std::string first_error;
  auto start = std::chrono::steady_clock::now();
  auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(deadline_seconds));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto driver = driver_factory();
      if (driver == nullptr) return;
      TpccTerminal terminal(driver.get(), config, config.seed * 104729 + t);
      uint64_t seen_c = 0, seen_a = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Status st = terminal.RunOne();
        committed.fetch_add(terminal.committed() - seen_c);
        aborted.fetch_add(terminal.aborted() - seen_a);
        seen_c = terminal.committed();
        seen_a = terminal.aborted();
        if (!st.ok()) {  // hard error: stop this terminal
          std::lock_guard<std::mutex> guard(error_mu);
          if (first_error.empty()) first_error = st.ToString();
          break;
        }
        if (committed.load(std::memory_order_relaxed) >= target_committed ||
            std::chrono::steady_clock::now() >= deadline) {
          stop.store(true, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               start)
                     .count();
  BenchcraftResult result;
  result.seconds = elapsed;
  result.committed = committed.load();
  result.aborted = aborted.load();
  result.txn_per_second = elapsed > 0 ? result.committed / elapsed : 0;
  result.first_error = first_error;
  return result;
}

OpenLoopResult RunOpenLoop(
    const std::function<std::unique_ptr<client::Driver>()>& driver_factory,
    const TpccConfig& config, int threads, double offered_tps, double seconds) {
  using Clock = std::chrono::steady_clock;
  // Customers with deterministic sequential last names (loader: the first
  // min(customers_per_district, max_name+1, 1000) per district get
  // LastName(c-1)); validation needs determinism, so only those are probed.
  int64_t max_name = std::min<int64_t>(999, config.customers_per_district * 3);
  const int validatable = static_cast<int>(std::min<int64_t>(
      {config.customers_per_district, max_name + 1, 1000}));

  std::atomic<uint64_t> ticket{0};
  std::atomic<uint64_t> issued{0};
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::atomic<uint64_t> completed{0}, shed_over{0}, shed_dead{0}, other{0},
      wrong{0};
  Clock::time_point start;  // written before go flips; read-only afterwards
  std::mutex lat_mu;
  std::vector<double> latencies_ms;  // completed queries only

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto driver = driver_factory();
      if (driver == nullptr) {
        ready.fetch_add(1);
        return;
      }
      Xoshiro256 rng(config.seed * 7919 + t);
      // Warm the session (attest, CEK install, describe cache) off-schedule.
      (void)driver->Query(
          "SELECT C_ID, C_LAST FROM Customer WHERE C_W_ID = @w AND "
          "C_D_ID = @d AND C_ID = @c",
          {{"w", Value::Int32(1)}, {"d", Value::Int32(1)},
           {"c", Value::Int32(1)}});
      std::vector<double> local_lat;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto window_end =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      for (;;) {
        // The wall clock, not the arrival schedule, closes the window: under
        // heavy overload the schedule has a backlog of past-due arrivals that
        // would otherwise keep the issuers running long after `seconds`.
        if (Clock::now() >= window_end) break;
        uint64_t n = ticket.fetch_add(1, std::memory_order_relaxed);
        // Fixed-rate arrival schedule shared across issuers: ticket n is due
        // at start + n/offered_tps whether or not earlier queries finished.
        auto arrival =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(n) / offered_tps));
        if (arrival >= window_end) break;
        issued.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_until(arrival);
        int w = static_cast<int>(rng.Uniform(1, config.warehouses));
        int d = static_cast<int>(
            rng.Uniform(1, config.districts_per_warehouse));
        int c = static_cast<int>(rng.Uniform(1, validatable));
        auto result = driver->Query(
            "SELECT C_ID, C_LAST FROM Customer WHERE C_W_ID = @w AND "
            "C_D_ID = @d AND C_ID = @c",
            {{"w", Value::Int32(w)}, {"d", Value::Int32(d)},
             {"c", Value::Int32(c)}});
        if (result.ok()) {
          // Validate against what the loader wrote: the echoed key and the
          // decrypted last name must both match. A truncated/mixed-up row
          // under overload counts as wrong, never as throughput.
          bool valid = result->rows.size() == 1 &&
                       result->rows[0].size() == 2 &&
                       !result->rows[0][0].is_null() &&
                       result->rows[0][0].AsInt64() == c &&
                       result->rows[0][1].type() == types::TypeId::kString &&
                       !result->rows[0][1].is_null() &&
                       result->rows[0][1].str() == LastName(c - 1);
          if (valid) {
            completed.fetch_add(1, std::memory_order_relaxed);
            local_lat.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          arrival)
                    .count());
          } else {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (result.status().IsOverloaded()) {
          shed_over.fetch_add(1, std::memory_order_relaxed);
        } else if (result.status().IsDeadlineExceeded()) {
          shed_dead.fetch_add(1, std::memory_order_relaxed);
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> guard(lat_mu);
      latencies_ms.insert(latencies_ms.end(), local_lat.begin(),
                          local_lat.end());
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  OpenLoopResult result;
  result.seconds = elapsed;
  result.offered = issued.load();
  result.completed = completed.load();
  result.shed_overloaded = shed_over.load();
  result.shed_deadline = shed_dead.load();
  result.other_errors = other.load();
  result.wrong_results = wrong.load();
  result.goodput_tps = elapsed > 0 ? result.completed / elapsed : 0;
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    auto pct = [&](double p) {
      size_t idx = static_cast<size_t>(p * (latencies_ms.size() - 1));
      return latencies_ms[idx];
    };
    result.p50_ms = pct(0.50);
    result.p99_ms = pct(0.99);
    result.max_ms = latencies_ms.back();
  }
  return result;
}

}  // namespace aedb::tpcc
