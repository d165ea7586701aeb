// Differential suite for batched expression services: every query shape runs
// at executor batch sizes {1, 3, 256} against identically loaded deployments
// and must produce identical result sets and identical enclave `comparisons`
// counters (the authorized operational leak is batch-size invariant), while
// larger batch sizes must charge strictly fewer enclave transitions. Every
// size crosses the call gate through the same batch entry points; batch
// size 1 sends morsels of one row, one transition each, and so pins the
// batched pipeline to row-at-a-time semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "fault/fault.h"
#include "server/database.h"

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using server::Database;
using server::DatabaseStats;
using server::ServerOptions;
using types::TypeId;
using types::Value;

constexpr const char* kVaultPath = "https://vault.example/keys/cmk1";

/// One full deployment (vault, HGS, enclave, server, driver) pinned to a
/// specific executor morsel size, with synchronous enclave calls or with
/// `enclave_worker_threads` enclave worker threads.
struct Deployment {
  std::unique_ptr<keys::InMemoryKeyVault> vault;
  keys::KeyProviderRegistry registry;
  crypto::RsaPrivateKey author_key;
  enclave::EnclaveImage image;
  std::unique_ptr<attestation::HostGuardianService> hgs;
  std::unique_ptr<Database> db;
  std::unique_ptr<Driver> driver;

  explicit Deployment(size_t batch_size, int enclave_worker_threads = 0) {
    vault = std::make_unique<keys::InMemoryKeyVault>();
    EXPECT_TRUE(vault->CreateKey(kVaultPath, 1024).ok());
    EXPECT_TRUE(registry.Register(vault.get()).ok());
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("batch-equiv")));
    author_key = crypto::GenerateRsaKey(1024, &drbg);
    image = enclave::EnclaveImage::MakeEsImage(1, author_key);
    hgs = std::make_unique<attestation::HostGuardianService>();
    ServerOptions opts;
    opts.eval_batch_size = batch_size;
    opts.enclave_worker_threads = enclave_worker_threads;
    db = std::make_unique<Database>(opts, hgs.get(), &image);
    hgs->RegisterTcgLog(db->platform()->tcg_log());
    DriverOptions driver_opts;
    driver_opts.enclave_policy.trusted_author_id = image.AuthorId();
    driver = std::make_unique<Driver>(db.get(), &registry,
                                      hgs->signing_public(), driver_opts);
  }

  void CreateSchemaAndLoad(int rows) {
    ASSERT_TRUE(driver
                    ->ProvisionCmk("MyCMK", vault->name(), kVaultPath,
                                   /*enclave_enabled=*/true)
                    .ok());
    ASSERT_TRUE(driver->ProvisionCek("MyCEK", "MyCMK").ok());
    Status st = driver->ExecuteDdl(
        "CREATE TABLE Account ("
        "  AcctID INT NOT NULL,"
        "  Branch VARCHAR(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = MyCEK,"
        "    ENCRYPTION_TYPE = Deterministic,"
        "    ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'),"
        "  AcctBal BIGINT ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = MyCEK,"
        "    ENCRYPTION_TYPE = Randomized,"
        "    ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'),"
        "  Owner VARCHAR(40) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = MyCEK,"
        "    ENCRYPTION_TYPE = Randomized,"
        "    ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))");
    ASSERT_TRUE(st.ok()) << st.ToString();
    static constexpr const char* kBranches[] = {"Seattle", "Zurich", "Berlin"};
    static constexpr const char* kOwners[] = {"SMITH", "SMYTHE", "BARNES",
                                              "SMITHSON", "ADAMS"};
    for (int i = 0; i < rows; ++i) {
      auto r = driver->Query(
          "INSERT INTO Account (AcctID, Branch, AcctBal, Owner) "
          "VALUES (@id, @branch, @bal, @owner)",
          {{"id", Value::Int32(i)},
           {"branch", Value::String(kBranches[i % 3])},
           {"bal", Value::Int64((i * 37) % 500)},
           {"owner", Value::String(std::string(kOwners[i % 5]) +
                                   std::to_string(i))}});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
};

std::string ValueRepr(const Value& v) {
  if (v.is_null()) return "<null>";
  switch (v.type()) {
    case TypeId::kInt32: return std::to_string(v.i32());
    case TypeId::kInt64: return std::to_string(v.i64());
    case TypeId::kBool: return v.bool_v() ? "true" : "false";
    case TypeId::kString: return v.str();
    default: {
      std::ostringstream os;
      os << "b" << v.Encode().size();
      return os.str();
    }
  }
}

/// Canonical (order-insensitive) representation of a result set.
std::vector<std::string> Canonical(const sql::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string s;
    for (const auto& v : row) {
      s += ValueRepr(v);
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The query shapes from the e2e/sql suites, parameterized for the loaded
/// data: DET equality, enclave equality, range, BETWEEN, LIKE, compound,
/// aggregate, GROUP BY.
const std::vector<std::pair<std::string,
                            std::vector<std::pair<std::string, Value>>>>&
ReadWorkload() {
  static const auto* workload = new std::vector<
      std::pair<std::string, std::vector<std::pair<std::string, Value>>>>{
      {"SELECT AcctID, AcctBal FROM Account WHERE Branch = @b",
       {{"b", Value::String("Seattle")}}},
      {"SELECT AcctID FROM Account WHERE AcctBal = @v",
       {{"v", Value::Int64(37)}}},
      {"SELECT AcctID, Owner FROM Account WHERE AcctBal BETWEEN @lo AND @hi",
       {{"lo", Value::Int64(100)}, {"hi", Value::Int64(300)}}},
      {"SELECT AcctID FROM Account WHERE AcctBal > @min",
       {{"min", Value::Int64(250)}}},
      {"SELECT AcctID FROM Account WHERE Owner LIKE @p",
       {{"p", Value::String("SMI%")}}},
      {"SELECT AcctID FROM Account WHERE AcctBal >= @lo AND Owner LIKE @p",
       {{"lo", Value::Int64(50)}, {"p", Value::String("%1")}}},
      {"SELECT COUNT(*) FROM Account WHERE AcctBal < @x",
       {{"x", Value::Int64(200)}}},
      {"SELECT Branch, COUNT(*) FROM Account GROUP BY Branch", {}},
  };
  return *workload;
}

constexpr std::array<size_t, 3> kBatchSizes = {1, 3, 256};
constexpr int kRows = 30;

TEST(BatchEquivTest, ReadWorkloadIdenticalAcrossBatchSizes) {
  // Synchronous enclave calls at every batch size, then batch 256 through
  // the enclave worker pool, whose work items view the executor's columns.
  struct Shape {
    size_t batch_size;
    int enclave_worker_threads;
  };
  const std::vector<Shape> shapes = {
      {kBatchSizes[0], 0}, {kBatchSizes[1], 0}, {kBatchSizes[2], 0}, {256, 2}};
  std::vector<std::unique_ptr<Deployment>> deps;
  std::vector<std::vector<std::vector<std::string>>> results(shapes.size());
  std::vector<uint64_t> comparisons_delta(shapes.size());
  std::vector<uint64_t> evals_delta(shapes.size());
  std::vector<uint64_t> transitions_delta(shapes.size());
  for (size_t d = 0; d < shapes.size(); ++d) {
    deps.push_back(std::make_unique<Deployment>(
        shapes[d].batch_size, shapes[d].enclave_worker_threads));
    deps[d]->CreateSchemaAndLoad(kRows);
    if (::testing::Test::HasFatalFailure()) return;
    DatabaseStats before = deps[d]->db->Stats();
    for (const auto& [sql, params] : ReadWorkload()) {
      auto r = deps[d]->driver->Query(sql, params);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      results[d].push_back(Canonical(*r));
    }
    DatabaseStats after = deps[d]->db->Stats();
    comparisons_delta[d] =
        after.enclave_comparisons - before.enclave_comparisons;
    evals_delta[d] = after.enclave_evals - before.enclave_evals;
    transitions_delta[d] = after.enclave_transitions - before.enclave_transitions;
  }
  for (size_t d = 1; d < shapes.size(); ++d) {
    const std::string shape =
        "batch size " + std::to_string(shapes[d].batch_size) + " with " +
        std::to_string(shapes[d].enclave_worker_threads) + " enclave workers";
    ASSERT_EQ(results[d].size(), results[0].size());
    for (size_t q = 0; q < results[0].size(); ++q) {
      EXPECT_EQ(results[d][q], results[0][q])
          << shape << " diverged on query " << q << " ("
          << ReadWorkload()[q].first << ")";
    }
    // The operational leak (cell comparisons the client authorized) and the
    // rows the enclave evaluated must not depend on the morsel size or on
    // the path to the enclave.
    EXPECT_EQ(comparisons_delta[d], comparisons_delta[0])
        << "comparison leak changed at " << shape;
    EXPECT_EQ(evals_delta[d], evals_delta[0])
        << "enclave evals changed at " << shape;
  }
  EXPECT_GT(evals_delta[0], 0u);
  // Amortization: strictly fewer call-gate transitions at every step up.
  EXPECT_LT(transitions_delta[1], transitions_delta[0]);
  EXPECT_LT(transitions_delta[2], transitions_delta[1]);
  // The amortization gauge surfaces through Database::Stats.
  EXPECT_GT(deps[2]->db->Stats().values_per_transition, 0.0);
}

TEST(BatchEquivTest, RangeIndexSeeksIdenticalAcrossBatchSizes) {
  std::vector<std::vector<std::vector<std::string>>> results(
      kBatchSizes.size());
  std::vector<uint64_t> comparisons_delta(kBatchSizes.size());
  const std::vector<std::pair<std::string,
                              std::vector<std::pair<std::string, Value>>>>
      queries = {
          {"SELECT AcctID FROM Account WHERE AcctBal >= @lo",
           {{"lo", Value::Int64(200)}}},
          {"SELECT AcctID FROM Account WHERE AcctBal BETWEEN @lo AND @hi",
           {{"lo", Value::Int64(50)}, {"hi", Value::Int64(400)}}},
          {"SELECT AcctID FROM Account WHERE AcctBal = @v",
           {{"v", Value::Int64(111)}}},
      };
  for (size_t d = 0; d < kBatchSizes.size(); ++d) {
    Deployment dep(kBatchSizes[d]);
    dep.CreateSchemaAndLoad(kRows);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(
        dep.driver->ExecuteDdl("CREATE INDEX idx_bal ON Account (AcctBal)")
            .ok());
    DatabaseStats before = dep.db->Stats();
    for (const auto& [sql, params] : queries) {
      auto r = dep.driver->Query(sql, params);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      results[d].push_back(Canonical(*r));
    }
    DatabaseStats after = dep.db->Stats();
    comparisons_delta[d] =
        after.enclave_comparisons - before.enclave_comparisons;
  }
  for (size_t d = 1; d < kBatchSizes.size(); ++d) {
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(results[d][q], results[0][q])
          << "batch size " << kBatchSizes[d] << " diverged on indexed query "
          << q;
    }
    // Index navigation charges one comparison per probed cell whether the
    // node is probed cell-at-a-time or via CompareCellsBatch.
    EXPECT_EQ(comparisons_delta[d], comparisons_delta[0]);
  }
}

TEST(BatchEquivTest, DmlIdenticalAcrossBatchSizes) {
  std::vector<std::vector<std::vector<std::string>>> results(
      kBatchSizes.size());
  std::vector<uint64_t> transitions_delta(kBatchSizes.size());
  for (size_t d = 0; d < kBatchSizes.size(); ++d) {
    Deployment dep(kBatchSizes[d]);
    dep.CreateSchemaAndLoad(kRows);
    if (::testing::Test::HasFatalFailure()) return;
    DatabaseStats before = dep.db->Stats();
    auto upd = dep.driver->Query(
        "UPDATE Account SET AcctBal = @new WHERE AcctBal > @min",
        {{"new", Value::Int64(999)}, {"min", Value::Int64(400)}});
    ASSERT_TRUE(upd.ok()) << upd.status().ToString();
    results[d].push_back(Canonical(*upd));
    auto del = dep.driver->Query("DELETE FROM Account WHERE Owner LIKE @p",
                                 {{"p", Value::String("ADAMS%")}});
    ASSERT_TRUE(del.ok()) << del.status().ToString();
    results[d].push_back(Canonical(*del));
    auto rest = dep.driver->Query(
        "SELECT AcctID, Branch, AcctBal, Owner FROM Account");
    ASSERT_TRUE(rest.ok());
    results[d].push_back(Canonical(*rest));
    DatabaseStats after = dep.db->Stats();
    transitions_delta[d] = after.enclave_transitions - before.enclave_transitions;
  }
  for (size_t d = 1; d < kBatchSizes.size(); ++d) {
    EXPECT_EQ(results[d][0], results[0][0]) << "UPDATE count diverged";
    EXPECT_EQ(results[d][1], results[0][1]) << "DELETE count diverged";
    EXPECT_EQ(results[d][2], results[0][2]) << "final table state diverged";
  }
  EXPECT_LT(transitions_delta[1], transitions_delta[0]);
  EXPECT_LT(transitions_delta[2], transitions_delta[1]);
}

TEST(BatchEquivTest, MidBatchFaultLeavesNoPartialMorsel) {
  Deployment dep(/*batch_size=*/256);
  dep.CreateSchemaAndLoad(kRows);
  if (::testing::Test::HasFatalFailure()) return;
  auto before = dep.driver->Query(
      "SELECT AcctID, Branch, AcctBal, Owner FROM Account");
  ASSERT_TRUE(before.ok());

  {
    // Fire on the 5th row of the first morsel: rows 0-4 were already
    // evaluated inside the enclave when the batch dies.
    fault::FaultRegistry& faults = fault::FaultRegistry::Global();
    const uint64_t hits = faults.hits("enclave/batch_partial_failure");
    fault::ScopedFault fault(
        "enclave/batch_partial_failure",
        fault::FaultSpec::EveryNth(5, Status::Internal("injected mid-batch")));
    auto upd = dep.driver->Query(
        "UPDATE Account SET AcctBal = @new WHERE AcctBal >= @min",
        {{"new", Value::Int64(777)}, {"min", Value::Int64(0)}});
    EXPECT_FALSE(upd.ok());
    // The point is passed once per row and per compared cell; exactly five
    // passes means it fired in the first morsel, not in a later crossing.
    EXPECT_EQ(faults.hits("enclave/batch_partial_failure") - hits, 5u);
  }

  // Clean statement error: nothing from the poisoned morsel was applied.
  auto after = dep.driver->Query(
      "SELECT AcctID, Branch, AcctBal, Owner FROM Account");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Canonical(*after), Canonical(*before));
  auto touched = dep.driver->Query(
      "SELECT COUNT(*) FROM Account WHERE AcctBal = @v",
      {{"v", Value::Int64(777)}});
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(touched->rows[0][0].i64(), 0);

  // With the fault disarmed the same statement succeeds.
  auto retry = dep.driver->Query(
      "UPDATE Account SET AcctBal = @new WHERE AcctBal >= @min",
      {{"new", Value::Int64(777)}, {"min", Value::Int64(0)}});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->rows[0][0].i64(), kRows);
}

// A single-table SELECT decodes only the columns it reads. Each query below
// reads a column through one clause alone — WHERE, ORDER BY, GROUP BY, an
// aggregate, an index probe — and must equal SELECT * projected on the
// client.
TEST(BatchEquivTest, ColumnSubsetSelectsMatchSelectStar) {
  using Row = std::vector<Value>;
  for (size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch size " + std::to_string(batch_size));
    Deployment dep(batch_size);
    dep.CreateSchemaAndLoad(kRows);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(
        dep.driver->ExecuteDdl("CREATE INDEX idx_bal ON Account (AcctBal)")
            .ok());
    ASSERT_TRUE(
        dep.driver->ExecuteDdl("CREATE INDEX idx_branch ON Account (Branch)")
            .ok());
    auto star = dep.driver->Query("SELECT * FROM Account");
    ASSERT_TRUE(star.ok()) << star.status().ToString();
    ASSERT_EQ(star->rows.size(), static_cast<size_t>(kRows));
    // SELECT * columns: AcctID, Branch, AcctBal, Owner.
    std::vector<Row> all = star->rows;

    auto query = [&](const std::string& sql,
                     std::vector<std::pair<std::string, Value>> params)
        -> sql::ResultSet {
      auto r = dep.driver->Query(sql, params);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      return r.ok() ? *r : sql::ResultSet{};
    };
    auto canonical = [](const std::vector<Row>& rows) {
      sql::ResultSet rs;
      rs.rows = rows;
      return Canonical(rs);
    };

    // Owner only through WHERE (heap scan: no index on Owner).
    std::vector<Row> expected;
    for (const Row& r : all) {
      if (types::SqlLike(r[3].str(), "SMI%")) expected.push_back({r[0]});
    }
    EXPECT_EQ(Canonical(query("SELECT AcctID FROM Account WHERE Owner LIKE @p",
                              {{"p", Value::String("SMI%")}})),
              canonical(expected));

    // AcctID only through ORDER BY; the order itself is compared.
    std::vector<Row> by_id = all;
    std::sort(by_id.begin(), by_id.end(), [](const Row& a, const Row& b) {
      return a[0].i32() > b[0].i32();
    });
    expected.clear();
    for (size_t i = 0; i < 7; ++i) expected.push_back({by_id[i][3]});
    sql::ResultSet ordered =
        query("SELECT Owner FROM Account ORDER BY AcctID DESC LIMIT 7", {});
    ASSERT_EQ(ordered.rows.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ValueRepr(ordered.rows[i][0]), ValueRepr(expected[i][0])) << i;
    }

    // Branch only through GROUP BY.
    std::map<std::string, int64_t> per_branch;
    for (const Row& r : all) ++per_branch[r[1].str()];
    expected.clear();
    for (const auto& [branch, count] : per_branch) {
      expected.push_back({Value::Int64(count)});
    }
    EXPECT_EQ(Canonical(query(
                  "SELECT COUNT(*) FROM Account GROUP BY Branch", {})),
              canonical(expected));

    // AcctID only through aggregates, Owner only through WHERE.
    int64_t sum = 0;
    int32_t max = 0;
    for (const Row& r : all) {
      if (!types::SqlLike(r[3].str(), "%1")) continue;
      sum += r[0].i32();
      max = std::max(max, r[0].i32());
    }
    EXPECT_EQ(Canonical(query("SELECT SUM(AcctID), MAX(AcctID) FROM Account "
                              "WHERE Owner LIKE @p",
                              {{"p", Value::String("%1")}})),
              canonical({{Value::Int64(sum), Value::Int32(max)}}));

    // Branch only through an equality-index probe (DET), AcctBal only
    // through a range-index probe (RND, enclave comparisons).
    expected.clear();
    for (const Row& r : all) {
      if (r[1].str() == "Zurich") expected.push_back({r[3]});
    }
    EXPECT_EQ(Canonical(query("SELECT Owner FROM Account WHERE Branch = @b",
                              {{"b", Value::String("Zurich")}})),
              canonical(expected));
    expected.clear();
    for (const Row& r : all) {
      if (r[2].i64() >= 100 && r[2].i64() <= 300) expected.push_back({r[0]});
    }
    EXPECT_EQ(Canonical(query(
                  "SELECT AcctID FROM Account WHERE AcctBal BETWEEN @lo AND @hi",
                  {{"lo", Value::Int64(100)}, {"hi", Value::Int64(300)}})),
              canonical(expected));
  }
}

TEST(BatchEquivTest, JoinResidualIdenticalAcrossBatchSizes) {
  std::vector<std::vector<std::string>> results(kBatchSizes.size());
  std::vector<uint64_t> evals_delta(kBatchSizes.size());
  for (size_t d = 0; d < kBatchSizes.size(); ++d) {
    Deployment dep(kBatchSizes[d]);
    dep.CreateSchemaAndLoad(kRows);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(dep.driver
                    ->ExecuteDdl(
                        "CREATE TABLE BranchInfo (BName VARCHAR(20) ENCRYPTED "
                        "WITH (COLUMN_ENCRYPTION_KEY = MyCEK, ENCRYPTION_TYPE "
                        "= Deterministic, ALGORITHM = "
                        "'AEAD_AES_256_CBC_HMAC_SHA_256'), Region VARCHAR(10))")
                    .ok());
    for (auto [name, region] :
         {std::pair<const char*, const char*>{"Seattle", "US"},
          {"Zurich", "EU"},
          {"Berlin", "EU"}}) {
      auto r = dep.driver->Query(
          "INSERT INTO BranchInfo (BName, Region) VALUES (@n, @r)",
          {{"n", Value::String(name)}, {"r", Value::String(region)}});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    // The residual's RND conjunct sends every joined morsel through the
    // enclave.
    DatabaseStats before = dep.db->Stats();
    auto joined = dep.driver->Query(
        "SELECT AcctID, Region FROM Account JOIN BranchInfo ON "
        "Account.Branch = BranchInfo.BName WHERE Region = @reg AND "
        "Owner LIKE @p",
        {{"reg", Value::String("EU")}, {"p", Value::String("%1%")}});
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    results[d] = Canonical(*joined);
    evals_delta[d] = dep.db->Stats().enclave_evals - before.enclave_evals;
  }
  EXPECT_FALSE(results[0].empty());
  // Every account joins one branch, and each joined row is evaluated once.
  EXPECT_EQ(evals_delta[0], static_cast<uint64_t>(kRows));
  for (size_t d = 1; d < kBatchSizes.size(); ++d) {
    EXPECT_EQ(results[d], results[0])
        << "join diverged at batch size " << kBatchSizes[d];
    EXPECT_EQ(evals_delta[d], evals_delta[0]);
  }
}

}  // namespace
}  // namespace aedb
