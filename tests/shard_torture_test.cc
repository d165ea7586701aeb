// Cross-shard atomicity torture (ISSUE 10 tentpole proof).
//
// Part 1 (always runs, tier-1): the in-process 2PC fault matrix. Every
// `2pc/*` fault point fires against a live 2-shard ShardedDatabase and the
// harness proves the cross-shard transaction is all-or-nothing: an abort
// before the commit decision leaves NEITHER shard changed, a coordinator
// crash after the durable decision leaves the transaction in-doubt and
// recovery commits it on BOTH shards — including across single-shard
// crash/restart cycles.
//
// Part 2 (ctest label shard_torture, off tier-1): kill -9 against a real
// 2-shard aedb_serverd. --die-at arms a process-fatal _Exit(137) at each 2PC
// boundary; after every crash the server restarts over the same data dirs
// and the client-side invariant is checked: the per-shard halves of every
// cross-shard ledger transaction are identical sets (all-or-nothing), every
// acknowledged transaction survived (exact acked prefix), and nothing that
// was never issued appears. Self-skips unless AEDB_RUN_SHARD_TORTURE=1
// (the scripts/verify.sh --shard-torture lane sets it).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "fault/fault.h"
#include "net/socket_transport.h"
#include "process_supervisor.h"
#include "server/router.h"
#include "storage/fsio.h"
#include "temp_dir.h"

#ifndef AEDB_SERVERD_PATH
#define AEDB_SERVERD_PATH "aedb_serverd"
#endif

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using fault::FaultSpec;
using fault::ScopedFault;
using server::Database;
using server::ShardedDatabase;
using server::ShardedOptions;
using testing::TempDir;
using types::Value;

// ---------------------------------------------------------------------------
// Part 1: in-process fault matrix

class ShardTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().Reset();
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey("kv/torture", 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("shard-torture")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();
  }
  void TearDown() override { fault::FaultRegistry::Global().Reset(); }

  void Build(uint32_t shards, const std::string& data_dir = "") {
    ShardedOptions opts;
    opts.shards = shards;
    opts.base.data_dir = data_dir;
    sharded_ =
        std::make_unique<ShardedDatabase>(std::move(opts), hgs_.get(), &image_);
    for (uint32_t i = 0; i < shards; ++i) {
      hgs_->RegisterTcgLog(sharded_->shard(i)->platform()->tcg_log());
    }
    ASSERT_TRUE(sharded_->Open().ok());
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    driver_ = std::make_unique<Driver>(sharded_.get(), &registry_,
                                       hgs_->signing_public(), dopts);
  }

  /// Warehouse rows w=1..`warehouses`, W_YTD = 0. Odd ids live on shard 0,
  /// even ids on shard 1.
  void SetupLedger(int warehouses = 2) {
    ASSERT_TRUE(
        driver_->ExecuteDdl("CREATE TABLE Warehouse (W_ID INT, W_YTD INT)")
            .ok());
    for (int w = 1; w <= warehouses; ++w) {
      auto r =
          driver_->Query("INSERT INTO Warehouse (W_ID, W_YTD) VALUES (@w, 0)",
                         {{"w", Value::Int32(w)}});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  /// Sets W_YTD = `v` on warehouses `w0` and `w0 + 1`, one per shard, in
  /// `txn`, and leaves it open.
  Status UpdatePair(uint64_t txn, int v, int w0 = 1) {
    for (int w = w0; w <= w0 + 1; ++w) {
      auto r = driver_->Query("UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
                              {{"v", Value::Int32(v)}, {"w", Value::Int32(w)}},
                              txn);
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  }

  /// One cross-shard transaction: set both warehouses' W_YTD to `v`.
  Status CrossShardSet(int v, int w0 = 1) {
    uint64_t txn = driver_->Begin();
    Status st = UpdatePair(txn, v, w0);
    if (!st.ok()) {
      (void)driver_->Rollback(txn);
      return st;
    }
    return driver_->Commit(txn);
  }

  /// Commits `txn` with `point` armed one-shot, firing on its third hit: a
  /// two-shard commit's two prepares come first, then the decision.
  Status CommitFaultingTheDecision(uint64_t txn, const char* point) {
    FaultSpec spec = FaultSpec::OneShot(Status::Internal("injected"));
    spec.skip = 2;
    ScopedFault f(point, spec);
    return driver_->Commit(txn);
  }

  size_t InDoubt(uint32_t shard) {
    return sharded_->shard(shard)->engine().InDoubtTxns().size();
  }

  /// Both warehouses' W_YTD, read straight off each shard's engine (the
  /// router must not be able to paper over a divergence).
  void ReadBoth(int* w1, int* w2) {
    auto q1 = sharded_->shard(sharded_->ShardOfWarehouse(1))
                  ->Execute("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                            {Value::Int32(1)});
    auto q2 = sharded_->shard(sharded_->ShardOfWarehouse(2))
                  ->Execute("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                            {Value::Int32(2)});
    ASSERT_TRUE(q1.ok()) << q1.status().ToString();
    ASSERT_TRUE(q2.ok()) << q2.status().ToString();
    ASSERT_EQ(q1->rows.size(), 1u);
    ASSERT_EQ(q2->rows.size(), 1u);
    *w1 = q1->rows[0][0].i32();
    *w2 = q2->rows[0][0].i32();
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<ShardedDatabase> sharded_;
  std::unique_ptr<Driver> driver_;
};

// Any failure before the commit decision is durable must abort on BOTH
// shards — and release every lock, so the next transaction sails through.
TEST_F(ShardTortureTest, PreDecisionFaultsAbortBothShards) {
  const char* points[] = {"2pc/pre_prepare", "2pc/prepared_no_decision",
                          "2pc/pre_commit_decision"};
  Build(2);
  SetupLedger();
  int committed = 0;
  for (const char* point : points) {
    {
      ScopedFault f(point, FaultSpec::OneShot(Status::Internal("injected")));
      Status st = CrossShardSet(committed + 100);
      ASSERT_FALSE(st.ok()) << point << " did not fire";
      EXPECT_EQ(st.code(), StatusCode::kTransactionAborted)
          << point << ": " << st.ToString();
    }
    int w1 = -1, w2 = -1;
    ReadBoth(&w1, &w2);
    EXPECT_EQ(w1, committed) << point << " leaked onto shard 0";
    EXPECT_EQ(w2, committed) << point << " leaked onto shard 1";
    // Locks must be gone: a clean cross-shard commit works immediately.
    committed += 1000;
    Status clean = CrossShardSet(committed);
    ASSERT_TRUE(clean.ok()) << "after " << point << ": " << clean.ToString();
    ReadBoth(&w1, &w2);
    EXPECT_EQ(w1, committed);
    EXPECT_EQ(w2, committed);
  }
  EXPECT_EQ(sharded_->two_phase_commits(), 3u);
}

// A coordinator crash AFTER the durable commit decision leaves both writers
// prepared (in-doubt); RecoverInDoubt() must finish the commit on both.
TEST_F(ShardTortureTest, CoordinatorCrashAfterDecisionCommitsOnRecovery) {
  Build(2);
  SetupLedger();
  {
    ScopedFault f("2pc/coordinator_crash",
                  FaultSpec::OneShot(Status::Internal("injected")));
    Status st = CrossShardSet(42);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  }
  // Both shards hold a prepared, undecided-looking txn.
  EXPECT_EQ(sharded_->shard(0)->engine().InDoubtTxns().size(), 1u);
  EXPECT_EQ(sharded_->shard(1)->engine().InDoubtTxns().size(), 1u);

  ASSERT_TRUE(sharded_->RecoverInDoubt().ok());
  int w1 = -1, w2 = -1;
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 42) << "durable decision lost on shard 0";
  EXPECT_EQ(w2, 42) << "durable decision lost on shard 1";
  EXPECT_TRUE(sharded_->shard(0)->engine().InDoubtTxns().empty());
  EXPECT_TRUE(sharded_->shard(1)->engine().InDoubtTxns().empty());
  // Normal traffic resumes.
  ASSERT_TRUE(CrossShardSet(43).ok());
}

// The decision log is a Wal. A decision append that tears leaves nothing a
// reader can see, so the commit aborts on both shards. The tear poisons the
// log: later cross-shard commits abort too (single-shard ones never log a
// decision) until RecoverInDoubt() rewrites it.
TEST_F(ShardTortureTest, TornDecisionAbortsAndPoisonsTheDecisionLog) {
  Build(2);
  SetupLedger();
  uint64_t txn = driver_->Begin();
  ASSERT_TRUE(UpdatePair(txn, 5).ok());
  Status st = CommitFaultingTheDecision(txn, "wal/torn_append");
  EXPECT_EQ(st.code(), StatusCode::kTransactionAborted) << st.ToString();
  int w1 = -1, w2 = -1;
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 0);
  EXPECT_EQ(w2, 0);
  EXPECT_EQ(InDoubt(0), 0u);
  EXPECT_EQ(InDoubt(1), 0u);
  EXPECT_EQ(sharded_->Stats().wal_file_errors, 1u);

  st = CrossShardSet(6);
  EXPECT_EQ(st.code(), StatusCode::kTransactionAborted) << st.ToString();
  auto single =
      driver_->Query("UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
                     {{"v", Value::Int32(9)}, {"w", Value::Int32(1)}});
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 9);
  EXPECT_EQ(w2, 0);

  ASSERT_TRUE(sharded_->RecoverInDoubt().ok());
  st = CrossShardSet(11);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 11);
  EXPECT_EQ(w2, 11);
}

// A decision whose append landed but whose sync failed may be on disk. If
// the writers were rolled back, a crash could leave one's abort on disk and
// not the other's, and recovery would commit the second by the decision. So
// every writer stays in doubt, and recovery commits both.
TEST_F(ShardTortureTest, FailedDecisionBarrierLeavesWritersInDoubt) {
  TempDir dir;
  Build(2, dir.path());
  SetupLedger();
  uint64_t txn = driver_->Begin();
  ASSERT_TRUE(UpdatePair(txn, 7).ok());
  Status st = CommitFaultingTheDecision(txn, "wal/sync");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(InDoubt(0), 1u);
  EXPECT_EQ(InDoubt(1), 1u);

  ASSERT_TRUE(sharded_->RecoverInDoubt().ok());
  int w1 = -1, w2 = -1;
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 7);
  EXPECT_EQ(w2, 7);
  EXPECT_EQ(InDoubt(0), 0u);
  EXPECT_EQ(InDoubt(1), 0u);
}

// A decision is needed only until phase 2 has committed every writer, so
// 2pc.log is cut back to the pending decisions each time it passes
// kDecisionLogBytes. A decision left in doubt rides along across every cut.
TEST_F(ShardTortureTest, DecisionLogStaysBoundedAcrossAnInDoubtDecision) {
  TempDir dir;
  Build(2, dir.path());
  SetupLedger(4);
  {
    ScopedFault f("2pc/coordinator_crash",
                  FaultSpec::OneShot(Status::Internal("injected")));
    Status st = CrossShardSet(42);
    ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  }
  const std::string log = dir.path() + "/2pc.log";
  auto log_bytes = [&log] {
    auto bytes = storage::PosixFs().ReadFile(log);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? bytes->size() : 0;
  };
  const size_t record_bytes = log_bytes();  // the in-doubt decision alone
  ASSERT_GT(record_bytes, 0u);

  // Warehouses 3 and 4: the in-doubt transaction holds 1's and 2's locks.
  const size_t commits =
      3 * ShardedDatabase::kDecisionLogBytes / record_bytes + 10;
  size_t largest = 0, previous = 0, cuts = 0;
  for (size_t i = 0; i < commits; ++i) {
    Status st = CrossShardSet(static_cast<int>(i), /*w0=*/3);
    ASSERT_TRUE(st.ok()) << "commit " << i << ": " << st.ToString();
    const size_t now = log_bytes();
    if (now < previous) ++cuts;
    largest = std::max(largest, now);
    previous = now;
  }
  EXPECT_GE(cuts, 3u);
  EXPECT_LE(largest, ShardedDatabase::kDecisionLogBytes + record_bytes);

  ASSERT_TRUE(sharded_->RecoverInDoubt().ok());
  int w1 = -1, w2 = -1;
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 42) << "the carried decision was lost on shard 0";
  EXPECT_EQ(w2, 42) << "the carried decision was lost on shard 1";
}

// Same crash, but now each shard also crash/restarts (WAL replay) before the
// coordinator resolves: the prepare records resurface as in-doubt txns and
// the durable decision still commits them — on a durable data dir.
TEST_F(ShardTortureTest, InDoubtSurvivesShardRestarts) {
  TempDir dir;
  Build(2, dir.path());
  SetupLedger();
  {
    ScopedFault f("2pc/coordinator_crash",
                  FaultSpec::OneShot(Status::Internal("injected")));
    ASSERT_FALSE(CrossShardSet(7).ok());
  }
  for (uint32_t s = 0; s < 2; ++s) {
    auto rec = sharded_->RestartShard(s);
    ASSERT_TRUE(rec.ok()) << "shard " << s << ": " << rec.status().ToString();
    EXPECT_EQ(rec->in_doubt.size(), 1u)
        << "shard " << s << " lost its prepared txn across restart";
  }
  ASSERT_TRUE(sharded_->RecoverInDoubt().ok());
  int w1 = -1, w2 = -1;
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 7);
  EXPECT_EQ(w2, 7);
}

// An in-doubt transaction with NO durable decision is presumed abort: after
// both shards crash/restart, recovery rolls it back everywhere. (Built by
// driving the participants' Prepare directly — the only way to stop between
// prepare and decision without a process death.)
TEST_F(ShardTortureTest, InDoubtWithoutDecisionPresumedAbort) {
  TempDir dir;
  Build(2, dir.path());
  SetupLedger();
  constexpr uint64_t kGtid = 99999;
  for (uint32_t s = 0; s < 2; ++s) {
    Database* db = sharded_->shard(s);
    uint64_t local = db->BeginTransaction();
    auto r = db->Execute(
        "UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
        {Value::Int32(666), Value::Int32(static_cast<int>(s) + 1)}, local);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(db->engine().Prepare(local, kGtid).ok());
  }
  for (uint32_t s = 0; s < 2; ++s) {
    auto rec = sharded_->RestartShard(s);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->in_doubt.size(), 1u);
  }
  ASSERT_TRUE(sharded_->RecoverInDoubt().ok());
  int w1 = -1, w2 = -1;
  ReadBoth(&w1, &w2);
  EXPECT_EQ(w1, 0) << "presumed abort failed to undo shard 0";
  EXPECT_EQ(w2, 0) << "presumed abort failed to undo shard 1";
  // The rows are unlocked again.
  ASSERT_TRUE(CrossShardSet(5).ok());
}

// ---------------------------------------------------------------------------
// Part 2: kill -9 against a real 2-shard serverd at every 2PC boundary

constexpr uint64_t kKeySeed = 777;

class ShardKillTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* run = std::getenv("AEDB_RUN_SHARD_TORTURE");
        run == nullptr || std::string(run) != "1") {
      GTEST_SKIP() << "set AEDB_RUN_SHARD_TORTURE=1 to run the 2PC kill -9 "
                      "torture harness (forks real servers)";
    }
    dir_ = std::make_unique<TempDir>();
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey("kv/shard-kill", 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());
    // Recreate the server's seeded attestation identities client-side (the
    // same --key-seed recipe serverd uses).
    Bytes seed;
    PutU64(&seed, kKeySeed);
    crypto::HmacDrbg drbg(Slice(seed), Slice(std::string_view("aedb-serverd")));
    auto author_key = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key);
    hgs_ = std::make_unique<attestation::HostGuardianService>(Slice(seed));
    server_ = std::make_unique<testing::ServerProcess>(AEDB_SERVERD_PATH);
  }

  void TearDown() override {
    driver_.reset();
    if (server_ != nullptr) (void)server_->Kill();
  }

  bool StartServer(const std::string& die_at = "") {
    std::vector<std::string> args = {
        "--port",     "0",
        "--shards",   "2",
        "--data-dir", dir_->path(),
        "--key-seed", std::to_string(kKeySeed),
        "--drain-deadline-ms", "10000",
    };
    if (!die_at.empty()) {
      args.push_back("--die-at");
      args.push_back(die_at);
    }
    Status st = server_->Start(args);
    if (!st.ok()) return false;
    port_ = server_->port();
    // One driver per server incarnation; each reconnect re-attests both
    // shard enclaves from scratch.
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    net::SocketTransport::Options topts;
    topts.port = port_;
    auto t = net::SocketTransport::Connect(topts);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (!t.ok()) return false;
    driver_ = std::make_unique<Driver>(std::move(t).value(), &registry_,
                                       hgs_->signing_public(), dopts);
    return true;
  }

  /// One cross-shard ledger transaction: INSERT (W_ID=1, seq) and
  /// (W_ID=2, seq) atomically. Acked seqs MUST survive; failed ones may have
  /// committed (coordinator-crash-after-decision) or not.
  Status LedgerTxn(int seq) {
    uint64_t txn = driver_->Begin();
    for (int w = 1; w <= 2; ++w) {
      auto r = driver_->Query("INSERT INTO Ledger (W_ID, SEQ) VALUES (@w, @s)",
                              {{"w", Value::Int32(w)}, {"s", Value::Int32(seq)}},
                              txn);
      if (!r.ok()) {
        (void)driver_->Rollback(txn);
        return r.status();
      }
    }
    return driver_->Commit(txn);
  }

  /// The atomicity + acked-prefix invariant, checked after every restart.
  void VerifyLedger(const std::string& where) {
    std::set<int> side[2];
    for (int w = 1; w <= 2; ++w) {
      auto r = driver_->Query("SELECT SEQ FROM Ledger WHERE W_ID = @w",
                              {{"w", Value::Int32(w)}});
      ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
      for (const auto& row : r->rows) side[w - 1].insert(row[0].i32());
    }
    // All-or-nothing: the two halves of every cross-shard txn live or die
    // together, across any kill point.
    EXPECT_EQ(side[0], side[1])
        << where << ": cross-shard transaction torn between shards";
    for (int seq : acked_) {
      EXPECT_EQ(side[0].count(seq), 1u)
          << where << ": acked seq " << seq << " lost (shard 0)";
      EXPECT_EQ(side[1].count(seq), 1u)
          << where << ": acked seq " << seq << " lost (shard 1)";
    }
    for (int seq : side[0]) {
      EXPECT_TRUE(acked_.count(seq) == 1 || maybe_.count(seq) == 1)
          << where << ": phantom seq " << seq << " was never issued";
    }
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<testing::ServerProcess> server_;
  std::unique_ptr<Driver> driver_;
  uint16_t port_ = 0;
  std::set<int> acked_;
  std::set<int> maybe_;
  int next_seq_ = 1;
};

TEST_F(ShardKillTortureTest, KillNineAtEveryTwoPcBoundary) {
  ASSERT_TRUE(StartServer()) << "initial server failed to start";
  ASSERT_TRUE(
      driver_->ExecuteDdl("CREATE TABLE Ledger (W_ID INT, SEQ INT)").ok());
  // Warm prefix before any shooting starts.
  for (int i = 0; i < 3; ++i) {
    int seq = next_seq_++;
    Status st = LedgerTxn(seq);
    ASSERT_TRUE(st.ok()) << st.ToString();
    acked_.insert(seq);
  }
  int wait_status = 0;
  driver_.reset();
  (void)server_->Terminate(&wait_status);

  const char* kill_points[] = {
      "2pc/pre_prepare",
      "2pc/prepared_no_decision",
      "2pc/pre_commit_decision",
      "2pc/coordinator_crash",
  };
  for (const char* point : kill_points) {
    SCOPED_TRACE(point);
    ASSERT_TRUE(StartServer(point)) << "restart with --die-at " << point;
    VerifyLedger(std::string("after recovery, arming ") + point);
    // Drive cross-shard txns until the armed fault _Exit(137)s the server
    // under us (the first 2PC reaching the point).
    bool died = false;
    for (int i = 0; i < 50 && !died; ++i) {
      int seq = next_seq_++;
      Status st = LedgerTxn(seq);
      if (st.ok()) {
        acked_.insert(seq);
      } else {
        maybe_.insert(seq);
        died = true;
      }
    }
    ASSERT_TRUE(died) << point << " never fired";
    int status = 0;
    ASSERT_TRUE(server_->WaitExit(&status).ok());
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 137)
        << point << ": unexpected exit status " << status;
  }

  // One more crash with no targeted fault: SIGKILL mid-burst.
  ASSERT_TRUE(StartServer());
  VerifyLedger("after final 2pc fault recovery");
  for (int i = 0; i < 5; ++i) {
    int seq = next_seq_++;
    Status st = LedgerTxn(seq);
    if (st.ok()) {
      acked_.insert(seq);
    } else {
      maybe_.insert(seq);
    }
    if (i == 2) server_->KillAsync();
  }
  (void)server_->WaitExit(nullptr);

  ASSERT_TRUE(StartServer());
  VerifyLedger("after mid-burst SIGKILL");
  // The recovered cluster still takes cross-shard commits.
  int seq = next_seq_++;
  Status st = LedgerTxn(seq);
  ASSERT_TRUE(st.ok()) << st.ToString();
  acked_.insert(seq);
  VerifyLedger("final");
}

}  // namespace
}  // namespace aedb
