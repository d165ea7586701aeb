// Power-loss suite: a Database over a simulated disk (storage::SimFs) loses
// power at a chosen fsync, the disk keeps its durable state plus a seeded
// prefix of the unsynced writes, and a fresh Database opened over what is
// left must hold every acknowledged commit and no plaintext of an encrypted
// column. A kill -9 cannot show a missing or misordered fsync — the page
// cache outlives the process — and this can.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/driver.h"
#include "server/database.h"
#include "server/router.h"
#include "storage/sim_fs.h"
#include "tpcc/tpcc.h"

namespace aedb {
namespace {

using storage::SimFs;
using types::Value;

std::string Str(const Bytes& b) { return std::string(b.begin(), b.end()); }
Slice S(std::string_view s) { return Slice(s); }

// ---------------------------------------------------------------------------
// The crash model

TEST(SimFsTest, CrashKeepsSyncedBytesAndAPrefixOfTheRest) {
  std::set<size_t> sizes;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SimFs fs;
    ASSERT_TRUE(fs.Append("f", S("durable")).ok());
    ASSERT_TRUE(fs.Fsync("f").ok());
    ASSERT_TRUE(fs.SyncDir("/").ok());
    ASSERT_TRUE(fs.Append("f", S("-pending")).ok());
    ASSERT_TRUE(fs.Append("f", S("-more")).ok());
    fs.Crash(seed);
    auto data = fs.ReadFile("f");
    ASSERT_TRUE(data.ok()) << "seed " << seed;
    const std::string full = "durable-pending-more";
    ASSERT_GE(data->size(), 7u) << "seed " << seed;
    EXPECT_EQ(full.substr(0, data->size()), Str(*data)) << "seed " << seed;
    sizes.insert(data->size());
  }
  // Over the seeds the crash dropped both writes, kept both, and tore one.
  EXPECT_TRUE(sizes.count(7));
  EXPECT_TRUE(sizes.count(20));
  EXPECT_GT(sizes.size(), 3u);
}

TEST(SimFsTest, UnsyncedDirectoryChangesMayVanishAndRenamesStayWhole) {
  std::set<std::string> outcomes;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SimFs fs;
    ASSERT_TRUE(fs.Append("a", S("old")).ok());
    ASSERT_TRUE(fs.Fsync("a").ok());
    ASSERT_TRUE(fs.SyncDir("/").ok());
    ASSERT_TRUE(fs.Append("a.tmp", S("new")).ok());
    ASSERT_TRUE(fs.Fsync("a.tmp").ok());
    ASSERT_TRUE(fs.Rename("a.tmp", "a").ok());  // no SyncDir: may be lost
    ASSERT_TRUE(fs.Mkdir("d").ok());
    ASSERT_TRUE(fs.Append("d/f", S("x")).ok());
    ASSERT_TRUE(fs.Fsync("d/f").ok());
    ASSERT_TRUE(fs.SyncDir("d").ok());  // d's own entry is still pending
    fs.Crash(seed);
    auto a = fs.ReadFile("a");
    ASSERT_TRUE(a.ok()) << "a rename left no file at all, seed " << seed;
    const bool tmp = fs.Size("a.tmp").ok();
    if (Str(*a) == "new") {
      EXPECT_FALSE(tmp) << "seed " << seed;
    } else {
      EXPECT_EQ(Str(*a), "old") << "seed " << seed;
    }
    outcomes.insert(Str(*a) + (fs.Size("d/f").ok() ? "+d" : ""));
  }
  // The root's changes survive as a prefix: d, made after the rename, is
  // never kept without it.
  EXPECT_EQ(outcomes, (std::set<std::string>{"old", "new", "new+d"}));
}

TEST(SimFsTest, PowerCutFailsTheNthSyncAndEverythingAfter) {
  SimFs fs;
  fs.CutPowerAtSync(2);
  ASSERT_TRUE(fs.Append("f", S("one")).ok());
  ASSERT_TRUE(fs.Fsync("f").ok());
  ASSERT_TRUE(fs.Append("f", S("two")).ok());
  EXPECT_FALSE(fs.Fsync("f").ok());
  EXPECT_FALSE(fs.Append("f", S("three")).ok());
  EXPECT_FALSE(fs.ReadFile("f").ok());
  EXPECT_EQ(fs.syncs(), 2u);
  fs.Crash(1);
  ASSERT_TRUE(fs.Append("f", S("four")).ok());
  auto data = fs.ReadFile("f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(Str(*data).substr(0, 3), "one");
}

// ---------------------------------------------------------------------------
// Databases over a disk that loses power

class PowerLossTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    vault_ = new keys::InMemoryKeyVault();
    ASSERT_TRUE(vault_->CreateKey("kv/tpcc-cold", 1024).ok());
    registry_ = new keys::KeyProviderRegistry();
    ASSERT_TRUE(registry_->Register(vault_).ok());
  }
  static void TearDownTestSuite() {
    delete registry_;
    delete vault_;
  }

  /// No enclave: the workload's encrypted columns are deterministic, which
  /// the server compares and indexes as ciphertext.
  static server::ServerOptions Options() {
    server::ServerOptions opts;
    opts.enable_enclave = false;
    opts.engine.pool_pages = 32;  // small: evictions reach the page store
    return opts;
  }

  static std::unique_ptr<client::Driver> MakeDriver(server::SqlBackend* db) {
    return std::make_unique<client::Driver>(db, registry_,
                                            crypto::RsaPublicKey{},
                                            client::DriverOptions{});
  }

  static int64_t Count(server::SqlBackend* db, const std::string& table) {
    auto rows = db->Execute("SELECT COUNT(*) FROM " + table, {});
    EXPECT_TRUE(rows.ok()) << table << ": " << rows.status().ToString();
    return rows.ok() ? rows->rows[0][0].i64() : -1;
  }

  static inline keys::InMemoryKeyVault* vault_ = nullptr;
  static inline keys::KeyProviderRegistry* registry_ = nullptr;
};

/// A fresh root's shard directories are entries in the root directory: each
/// must be durable there before a commit inside it is acknowledged, or a
/// power cut takes the shard, and the commit, away.
TEST_F(PowerLossTest, FreshShardedRootKeepsItsFirstCommit) {
  server::ShardedOptions opts;
  opts.shards = 2;
  opts.base = Options();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto fs = std::make_shared<SimFs>();
    {
      server::ShardedDatabase db(opts, nullptr, nullptr, fs);
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(db.ExecuteDdl("CREATE TABLE Ledger (W_ID INT, VAL INT)").ok());
      auto ins = db.Execute("INSERT INTO Ledger (W_ID, VAL) VALUES (@w, @v)",
                            {Value::Int32(1), Value::Int32(10)});
      ASSERT_TRUE(ins.ok()) << ins.status().ToString();
      fs->CutPower();
    }
    fs->Crash(seed);
    server::ShardedDatabase db(opts, nullptr, nullptr, fs);
    Status opened = db.Open();
    ASSERT_TRUE(opened.ok()) << "seed " << seed << ": " << opened.ToString();
    EXPECT_EQ(Count(&db, "Ledger"), 1) << "seed " << seed;
  }
}

/// Encrypted TPC-C, with checkpoints, loses power at the Nth fsync for a
/// sweep of N; each time a fresh Database opens over what the crash left and
/// the next round of the workload runs on it. Every acknowledged New-Order
/// and Payment must be there; one answered kUnavailable (outcome unknown)
/// may or may not be; nothing else may.
TEST_F(PowerLossTest, EncryptedTpccKeepsEveryAcknowledgedCommit) {
  tpcc::TpccConfig config;
  config.warehouses = 1;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 10;
  config.items = 20;
  config.initial_orders_per_district = 3;
  config.encryption = tpcc::Encryption::kDeterministic;
  // Rounds of kTxns transactions with a checkpoint every kCheckpointEvery.
  // The first kMeasured rounds run whole and count their fsyncs: their
  // commits', and their checkpoints' log rewrites' (the tmp file and the
  // directory). kSpan must cover every one of them. In each later round the
  // power fails at fsync 1, 2, ..., kSpan; each cut is taken twice, with
  // different seeds.
  constexpr int kTxns = 12;
  constexpr int kCheckpointEvery = 4;
  constexpr int kSpan = 16;
  constexpr int kMeasured = 3;
  constexpr int kRounds = kMeasured + 2 * kSpan;

  auto fs = std::make_shared<SimFs>();
  auto open = [&]() {
    auto db = std::make_unique<server::Database>(Options(), nullptr, nullptr,
                                                 fs);
    Status opened = db->Open();
    EXPECT_TRUE(opened.ok()) << opened.ToString();
    return opened.ok() ? std::move(db) : nullptr;
  };
  {
    auto db = open();
    ASSERT_NE(db, nullptr);
    auto driver = MakeDriver(db.get());
    ASSERT_TRUE(
        driver->ProvisionCmk("TpccCMK", vault_->name(), "kv/tpcc-cold", false)
            .ok());
    ASSERT_TRUE(driver->ProvisionCek("TpccCEK", "TpccCMK").ok());
    tpcc::TpccLoader loader(driver.get(), config);
    ASSERT_TRUE(loader.CreateSchema().ok());
    ASSERT_TRUE(loader.Load().ok());
  }

  // What the last round was told: acknowledged, and of unknown outcome.
  int64_t orders = -1, history = -1;
  int acked_orders = 0, unknown_orders = 0;
  int acked_payments = 0, unknown_payments = 0;
  int cuts = 0;
  uint64_t round_fsyncs = 0;  // the most a measured round issued
  for (int round = 0; round <= kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto db = open();
    ASSERT_NE(db, nullptr);
    const int64_t now_orders = Count(db.get(), "Orders");
    const int64_t now_history = Count(db.get(), "History");
    if (orders >= 0) {
      EXPECT_GE(now_orders, orders + acked_orders) << "acked New-Order lost";
      EXPECT_LE(now_orders, orders + acked_orders + unknown_orders);
      EXPECT_GE(now_history, history + acked_payments) << "acked Payment lost";
      EXPECT_LE(now_history, history + acked_payments + unknown_payments);
    }
    if (round == kRounds) break;
    orders = now_orders;
    history = now_history;
    acked_orders = unknown_orders = acked_payments = unknown_payments = 0;

    auto driver = MakeDriver(db.get());
    tpcc::TpccTerminal terminal(driver.get(), config, round + 1);
    const bool measured = round < kMeasured;
    const uint64_t cut = 1 + (round - kMeasured) % kSpan;
    const uint64_t syncs0 = fs->syncs();
    if (!measured) fs->CutPowerAtSync(cut);
    // Until the power fails, what the last crash left must work: a failure
    // with the power on means the crash broke the database.
    auto power_on = [&] { return measured || fs->syncs() - syncs0 < cut; };
    for (int i = 0; i < kTxns; ++i) {
      if (i > 0 && i % kCheckpointEvery == 0) {
        Status ckpt = db->Checkpoint();
        EXPECT_TRUE(ckpt.ok() || !power_on())
            << "checkpoint: " << ckpt.ToString();
        if (!ckpt.ok()) break;
      }
      const bool new_order = i % 2 == 0;
      const uint64_t committed = terminal.committed();
      Status st = new_order ? terminal.NewOrder() : terminal.Payment();
      EXPECT_TRUE(st.ok() || !power_on())
          << "txn " << i << ": " << st.ToString();
      int* acked = new_order ? &acked_orders : &acked_payments;
      int* unknown = new_order ? &unknown_orders : &unknown_payments;
      if (terminal.committed() > committed) ++*acked;
      if (st.code() == StatusCode::kUnavailable) ++*unknown;
      if (!st.ok()) break;
    }
    if (measured) {
      round_fsyncs = std::max(round_fsyncs, fs->syncs() - syncs0);
    } else if (fs->syncs() - syncs0 >= cut) {
      ++cuts;
    }
    fs->CutPower();
    driver.reset();
    db.reset();
    fs->Crash(static_cast<uint64_t>(round) + 1);

    // The adversary reads the whole disk, unsynced writes included.
    for (const auto& [path, bytes] : fs->Files()) {
      const std::string data = Str(bytes);
      for (int c = 0; c < config.customers_per_district; ++c) {
        EXPECT_EQ(data.find(tpcc::LastName(c)), std::string::npos)
            << "customer last name at rest in " << path;
      }
      for (const char* prefix : {"First", "Street", "City"}) {
        for (size_t at = data.find(prefix); at != std::string::npos;
             at = data.find(prefix, at + 1)) {
          const size_t next = at + std::string_view(prefix).size();
          EXPECT_FALSE(next < data.size() && data[next] >= '0' &&
                       data[next] <= '9')
              << prefix << "<n> at rest in " << path;
        }
      }
    }
  }
  // The sweep covers a whole round, and nearly every round reached its cut.
  EXPECT_GT(round_fsyncs, 0u);
  EXPECT_LE(round_fsyncs, static_cast<uint64_t>(kSpan))
      << "a round issues fsyncs past the sweep";
  EXPECT_GE(cuts, (kRounds - kMeasured) * 9 / 10)
      << "a round issues only " << round_fsyncs << " fsyncs";
}

}  // namespace
}  // namespace aedb
