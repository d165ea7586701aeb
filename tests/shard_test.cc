// Shared-nothing sharding correctness: warehouse routing, reference-table
// replication, cross-shard 2PC atomicity, per-shard attestation isolation,
// deadlock detection through the shards' shared wait-for graph, and a
// differential check that a sharded TPC-C run is indistinguishable from a
// single-engine run on the same seeded workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "crypto/drbg.h"
#include "server/router.h"
#include "tpcc/tpcc.h"

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using server::Database;
using server::ShardedDatabase;
using server::ShardedOptions;
using types::Value;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey("kv/shard-enclave", 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("shard-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();
  }

  void Build(uint32_t shards, server::ServerOptions base = {}) {
    ShardedOptions opts;
    opts.shards = shards;
    opts.base = std::move(base);
    sharded_ =
        std::make_unique<ShardedDatabase>(std::move(opts), hgs_.get(), &image_);
    for (uint32_t i = 0; i < shards; ++i) {
      hgs_->RegisterTcgLog(sharded_->shard(i)->platform()->tcg_log());
    }
    ASSERT_TRUE(sharded_->Open().ok());
  }

  std::unique_ptr<Driver> MakeDriver(server::SqlBackend* db) {
    DriverOptions opts;
    opts.enclave_policy.trusted_author_id = image_.AuthorId();
    return std::make_unique<Driver>(db, &registry_, hgs_->signing_public(),
                                    opts);
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<ShardedDatabase> sharded_;
};

// A statement pinning W_ID routes to shard (w-1) mod N and nowhere else.
TEST_F(ShardTest, WarehouseRoutingPinsToOwningShard) {
  Build(3);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Warehouse (W_ID INT, W_NAME VARCHAR)")
          .ok());
  for (int w = 1; w <= 6; ++w) {
    auto r = driver->Query(
        "INSERT INTO Warehouse (W_ID, W_NAME) VALUES (@w, @n)",
        {{"w", Value::Int32(w)}, {"n", Value::String("WH" + std::to_string(w))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Each shard holds exactly its two warehouses — checked against the shard's
  // engine directly, bypassing the router.
  for (uint32_t s = 0; s < 3; ++s) {
    auto direct =
        sharded_->shard(s)->Execute("SELECT COUNT(*) FROM Warehouse", {});
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->rows[0][0].i64(), 2) << "shard " << s;
  }
  for (int w = 1; w <= 6; ++w) {
    uint32_t home = sharded_->ShardOfWarehouse(w);
    EXPECT_EQ(home, static_cast<uint32_t>((w - 1) % 3));
    auto direct = sharded_->shard(home)->Execute(
        "SELECT W_NAME FROM Warehouse WHERE W_ID = @w", {Value::Int32(w)});
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct->rows.size(), 1u) << "warehouse " << w << " not on home";
    EXPECT_EQ(direct->rows[0][0].str(), "WH" + std::to_string(w));
  }
  // Pinned read through the router finds the row; broadcast COUNT sums shards.
  auto pinned = driver->Query("SELECT W_NAME FROM Warehouse WHERE W_ID = @w",
                              {{"w", Value::Int32(5)}});
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned->rows.size(), 1u);
  EXPECT_EQ(pinned->rows[0][0].str(), "WH5");
  auto all = driver->Query("SELECT COUNT(*) FROM Warehouse");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows[0][0].i64(), 6);
}

// Tables without a warehouse column (Item) replicate writes to every shard
// and serve reads from one copy.
TEST_F(ShardTest, ReferenceTablesReplicateWritesReadOnce) {
  Build(3);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Item (I_ID INT, I_NAME VARCHAR)").ok());
  for (int i = 1; i <= 4; ++i) {
    auto r = driver->Query("INSERT INTO Item (I_ID, I_NAME) VALUES (@i, @n)",
                           {{"i", Value::Int32(i)},
                            {"n", Value::String("item" + std::to_string(i))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (uint32_t s = 0; s < 3; ++s) {
    auto direct = sharded_->shard(s)->Execute("SELECT COUNT(*) FROM Item", {});
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(direct->rows[0][0].i64(), 4) << "replica missing on shard " << s;
  }
  // The router must not return three copies.
  auto through = driver->Query("SELECT COUNT(*) FROM Item");
  ASSERT_TRUE(through.ok());
  EXPECT_EQ(through->rows[0][0].i64(), 4);
}

// A transaction spanning two shards commits atomically through 2PC, and a
// rollback undoes both sides.
TEST_F(ShardTest, CrossShardTransactionIsAtomic) {
  Build(2);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Warehouse (W_ID INT, W_YTD INT)").ok());
  for (int w = 1; w <= 2; ++w) {
    ASSERT_TRUE(driver
                    ->Query("INSERT INTO Warehouse (W_ID, W_YTD) VALUES (@w, 0)",
                            {{"w", Value::Int32(w)}})
                    .ok());
  }
  ASSERT_EQ(sharded_->ShardOfWarehouse(1), 0u);
  ASSERT_EQ(sharded_->ShardOfWarehouse(2), 1u);

  uint64_t before = sharded_->two_phase_commits();
  uint64_t txn = driver->Begin();
  for (int w = 1; w <= 2; ++w) {
    auto r = driver->Query(
        "UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
        {{"v", Value::Int32(100)}, {"w", Value::Int32(w)}}, txn);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(driver->Commit(txn).ok());
  EXPECT_EQ(sharded_->two_phase_commits(), before + 1);
  for (int w = 1; w <= 2; ++w) {
    auto q = driver->Query("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                           {{"w", Value::Int32(w)}});
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->rows[0][0].i32(), 100) << "warehouse " << w;
  }

  // Rollback path: both sides revert.
  txn = driver->Begin();
  for (int w = 1; w <= 2; ++w) {
    ASSERT_TRUE(driver
                    ->Query("UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
                            {{"v", Value::Int32(777)}, {"w", Value::Int32(w)}},
                            txn)
                    .ok());
  }
  ASSERT_TRUE(driver->Rollback(txn).ok());
  for (int w = 1; w <= 2; ++w) {
    auto q = driver->Query("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                           {{"w", Value::Int32(w)}});
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->rows[0][0].i32(), 100) << "rollback leaked on warehouse " << w;
  }
}

// The AE invariant: each shard's enclave is its own unit of attestation.
// Restarting shard 1's enclave forces the driver to re-attest exactly that
// shard — the other shard's session (and its installed CEKs) stay valid.
TEST_F(ShardTest, PerShardAttestationIsolation) {
  Build(2);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(driver
                  ->ProvisionCmk("ShardCMK", vault_->name(), "kv/shard-enclave",
                                 /*enclave_enabled=*/true)
                  .ok());
  ASSERT_TRUE(driver->ProvisionCek("ShardCEK", "ShardCMK").ok());
  ASSERT_TRUE(driver
                  ->ExecuteDdl(
                      "CREATE TABLE Vault (W_ID INT, SECRET VARCHAR "
                      "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = ShardCEK, "
                      "ENCRYPTION_TYPE = Randomized, ALGORITHM = "
                      "'AEAD_AES_256_CBC_HMAC_SHA_256'))")
                  .ok());
  for (int w = 1; w <= 2; ++w) {
    auto r = driver->Query(
        "INSERT INTO Vault (W_ID, SECRET) VALUES (@w, @s)",
        {{"w", Value::Int32(w)},
         {"s", Value::String("secret-" + std::to_string(w))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Parameter encryption is pure client-side work: no enclave needed yet.
  EXPECT_EQ(driver->attestations(), 0);

  auto probe = [&](int w) {
    return driver->Query(
        "SELECT W_ID FROM Vault WHERE SECRET = @s AND W_ID = @w",
        {{"s", Value::String("secret-" + std::to_string(w))},
         {"w", Value::Int32(w)}});
  };
  ASSERT_TRUE(probe(1).ok());
  ASSERT_TRUE(probe(2).ok());
  EXPECT_EQ(driver->attestations(), 2);  // cached sessions, no re-attest

  // Crash+restart shard 1 only: its enclave loses keys and sessions.
  auto rec = sharded_->RestartShard(1);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  // Shard 0 traffic is untouched — no re-attestation.
  auto q1 = probe(1);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  ASSERT_EQ(q1->rows.size(), 1u);
  EXPECT_EQ(driver->attestations(), 2);

  // Shard 1 traffic trips kSessionNotFound, and the driver re-attests
  // EXACTLY one shard (2 + 1 sessions across the driver's lifetime).
  auto q2 = probe(2);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  ASSERT_EQ(q2->rows.size(), 1u);
  EXPECT_EQ(driver->attestations(), 3);
  EXPECT_GE(driver->retries(), 1);
}

// The client-side tool's column change reaches every shard's DDL log: after
// every shard restarts, the column is still DET on each, and an equality
// query finds the row wherever it lives.
TEST_F(ShardTest, ClientSideToolChangeSurvivesEveryShardRestart) {
  ASSERT_TRUE(vault_->CreateKey("kv/shard-cold", 1024).ok());
  Build(2);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(driver
                  ->ProvisionCmk("ColdCMK", vault_->name(), "kv/shard-cold",
                                 /*enclave_enabled=*/false)
                  .ok());
  ASSERT_TRUE(driver->ProvisionCek("ColdCEK", "ColdCMK").ok());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Cards (W_ID INT, Id INT, Pan VARCHAR)")
          .ok());
  for (int i = 0; i < 6; ++i) {
    auto r = driver->Query(
        "INSERT INTO Cards (W_ID, Id, Pan) VALUES (@w, @i, @p)",
        {{"w", Value::Int32(1 + i % 2)},
         {"i", Value::Int32(i)},
         {"p", Value::String("4111-1111-" + std::to_string(i))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  Status st = driver->ClientSideEncryptColumn(
      "Cards", "Pan", "ColdCEK", types::EncKind::kDeterministic, "Id");
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (uint32_t s = 0; s < 2; ++s) {
    auto rec = sharded_->RestartShard(s);
    ASSERT_TRUE(rec.ok()) << "shard " << s << ": " << rec.status().ToString();
    auto enc = sharded_->shard(s)->ColumnEncryption("Cards", "Pan");
    ASSERT_TRUE(enc.ok()) << enc.status().ToString();
    EXPECT_EQ(enc->kind, types::EncKind::kDeterministic) << "shard " << s;
  }
  for (int i : {2, 3}) {  // one row on each shard
    auto r = driver->Query(
        "SELECT Id FROM Cards WHERE Pan = @p",
        {{"p", Value::String("4111-1111-" + std::to_string(i))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].i32(), i);
  }
}

// Deadlock detection across shards. Each test waits under the default 2 s
// lock timeout, so a cycle that resolves in milliseconds was detected.
class ShardLockTest : public ShardTest {
 protected:
  // Long enough for a waiter thread to be blocked before the next step.
  static constexpr std::chrono::milliseconds kSettle{100};

  /// Two-shard deployment with one row per warehouse: W_ID 1 on shard 0,
  /// W_ID 2 on shard 1.
  void BuildAccounts() {
    Build(2);
    ASSERT_TRUE(
        sharded_->ExecuteDdl("CREATE TABLE Acct (W_ID INT, V INT)").ok());
    for (int w = 1; w <= 2; ++w) {
      ASSERT_TRUE(Run("INSERT INTO Acct (W_ID, V) VALUES (" +
                      std::to_string(w) + ", 0)")
                      .ok());
    }
    ASSERT_EQ(sharded_->ShardOfWarehouse(1), 0u);
    ASSERT_EQ(sharded_->ShardOfWarehouse(2), 1u);
  }

  Status Run(const std::string& sql, uint64_t txn = 0) {
    return sharded_->Execute(sql, {}, txn).status();
  }

  Status Set(int w, int v, uint64_t txn = 0) {
    return Run("UPDATE Acct SET V = " + std::to_string(v) +
                   " WHERE W_ID = " + std::to_string(w),
               txn);
  }

  int64_t Get(int w) {
    auto rs = sharded_->Execute(
        "SELECT V FROM Acct WHERE W_ID = " + std::to_string(w), {});
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    if (!rs.ok() || rs->rows.size() != 1) return -1;
    return rs->rows[0][0].AsInt64();
  }
};

// Two router transactions lock the rows on shards 0 and 1 in opposite
// orders. Neither shard alone sees a cycle; the graph they share does.
TEST_F(ShardLockTest, CrossShardCycleIsDetectedAtOnce) {
  BuildAccounts();
  uint64_t first = sharded_->BeginTransaction();
  uint64_t second = sharded_->BeginTransaction();
  ASSERT_TRUE(Set(1, 10, first).ok());
  ASSERT_TRUE(Set(2, 20, second).ok());
  Status survivor;
  std::thread blocked([&] { survivor = Set(2, 10, first); });
  std::this_thread::sleep_for(kSettle);

  auto t0 = std::chrono::steady_clock::now();
  Status victim = Set(1, 20, second);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_EQ(victim.code(), StatusCode::kFailedPrecondition)
      << victim.ToString();
  EXPECT_NE(victim.message().find("deadlock"), std::string::npos);
  EXPECT_EQ(victim.message().find("lock timeout"), std::string::npos);
  EXPECT_LT(ms, 10.0);

  ASSERT_TRUE(sharded_->RollbackTransaction(second).ok());
  blocked.join();
  // `first` was granted the lock it queued for, on the victim's uncommitted
  // row version. The rollback removed that version, so the statement
  // reports a write-write conflict, and runs again on the restored row.
  EXPECT_EQ(survivor.code(), StatusCode::kFailedPrecondition)
      << survivor.ToString();
  EXPECT_NE(survivor.message().find("write-write conflict"), std::string::npos)
      << survivor.ToString();
  ASSERT_TRUE(Set(2, 10, first).ok());
  ASSERT_TRUE(sharded_->CommitTransaction(first).ok());
  EXPECT_EQ(Get(1), 10);
  EXPECT_EQ(Get(2), 10);
  EXPECT_EQ(sharded_->Stats().lock_deadlocks, 1u);
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sharded_->shard(s)->engine().locks().total_locked(), 0u);
  }
}

// A global transaction, a local transaction on shard 1 and an autocommit
// write on shard 0 all carry the number kId: gtid kId and local id kId on
// each shard. They form a chain, autocommit -> global -> shard-1 local, and
// must wait it out; keyed by bare number they would close a false cycle.
TEST_F(ShardLockTest, LocalTransactionsNeverAliasInTheSharedGraph) {
  BuildAccounts();
  constexpr uint64_t kId = 100;
  Database* shard0 = sharded_->shard(0);
  Database* shard1 = sharded_->shard(1);

  uint64_t global;
  while ((global = sharded_->BeginTransaction()) < kId) {
    ASSERT_TRUE(sharded_->RollbackTransaction(global).ok());
  }
  ASSERT_EQ(global, kId);
  ASSERT_TRUE(Set(1, 1, global).ok());

  uint64_t local;
  while ((local = shard1->BeginTransaction()) < kId) {
    ASSERT_TRUE(shard1->RollbackTransaction(local).ok());
  }
  ASSERT_EQ(local, kId);
  ASSERT_TRUE(shard1->Execute("UPDATE Acct SET V = 2 WHERE W_ID = 2", {}, local)
                  .ok());

  // Shard 0's next transaction, the autocommit write's, gets id kId.
  uint64_t burnt;
  while ((burnt = shard0->BeginTransaction()) < kId - 1) {
    ASSERT_TRUE(shard0->RollbackTransaction(burnt).ok());
  }
  ASSERT_EQ(burnt, kId - 1);
  ASSERT_TRUE(shard0->RollbackTransaction(burnt).ok());

  Status autocommit, chained;
  std::thread writer([&] { autocommit = Set(1, 3); });
  std::this_thread::sleep_for(kSettle);
  std::thread waiter([&] { chained = Set(2, 4, global); });
  std::this_thread::sleep_for(kSettle);

  // Unwind the chain from its end. Each holder commits, so the row version
  // its waiter queued for stays, and every statement in the chain succeeds.
  ASSERT_TRUE(shard1->CommitTransaction(local).ok());
  waiter.join();
  EXPECT_TRUE(chained.ok()) << chained.ToString();
  ASSERT_TRUE(sharded_->CommitTransaction(global).ok());
  writer.join();
  EXPECT_TRUE(autocommit.ok()) << autocommit.ToString();
  EXPECT_EQ(Get(1), 3);
  EXPECT_EQ(Get(2), 4);
  EXPECT_EQ(sharded_->Stats().lock_deadlocks, 0u);
}

// Differential check: the same seeded single-terminal TPC-C workload produces
// byte-identical table contents on a 4-shard database and a single engine.
TEST_F(ShardTest, ShardedTpccMatchesSingleShard) {
  tpcc::TpccConfig config;
  config.warehouses = 4;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 8;
  config.items = 30;
  config.initial_orders_per_district = 4;
  config.encryption = tpcc::Encryption::kPlaintext;
  config.seed = 42;
  config.remote_pct = 25;  // plenty of cross-shard traffic

  const std::vector<std::string> tables = {
      "Warehouse", "District", "Customer", "History", "NewOrder",
      "Orders",    "OrderLine", "Item",    "Stock"};

  auto run = [&](server::SqlBackend* db, uint64_t* committed,
                 std::vector<std::vector<std::string>>* dump) {
    auto driver = MakeDriver(db);
    tpcc::TpccLoader loader(driver.get(), config);
    ASSERT_TRUE(loader.CreateSchema().ok());
    Status load = loader.Load();
    ASSERT_TRUE(load.ok()) << load.ToString();
    tpcc::TpccTerminal terminal(driver.get(), config, /*seed=*/7);
    for (int i = 0; i < 120; ++i) {
      Status st = terminal.RunOne();
      ASSERT_TRUE(st.ok()) << "txn " << i << ": " << st.ToString();
    }
    *committed = terminal.committed();
    for (const std::string& t : tables) {
      auto rows = driver->Query("SELECT * FROM " + t);
      ASSERT_TRUE(rows.ok()) << t << ": " << rows.status().ToString();
      std::vector<std::string> flat;
      flat.reserve(rows->rows.size());
      for (const auto& row : rows->rows) {
        std::string line;
        for (const auto& v : row) line += v.ToString() + "|";
        flat.push_back(std::move(line));
      }
      // Broadcast merges have no inter-shard order; canonicalize.
      std::sort(flat.begin(), flat.end());
      dump->push_back(std::move(flat));
    }
  };

  uint64_t single_committed = 0;
  std::vector<std::vector<std::string>> single_dump;
  {
    server::ServerOptions opts;
    Database single(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(single.platform()->tcg_log());
    run(&single, &single_committed, &single_dump);
  }

  Build(4);
  uint64_t sharded_committed = 0;
  std::vector<std::vector<std::string>> sharded_dump;
  run(sharded_.get(), &sharded_committed, &sharded_dump);
  EXPECT_GT(sharded_->two_phase_commits(), 0u)
      << "no cross-shard transactions exercised — differential test is weak";

  EXPECT_EQ(single_committed, sharded_committed);
  ASSERT_EQ(single_dump.size(), sharded_dump.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(single_dump[t], sharded_dump[t])
        << "table " << tables[t] << " diverged between single and sharded";
  }
}

}  // namespace
}  // namespace aedb
