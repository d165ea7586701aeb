#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "client/retry.h"
#include "crypto/drbg.h"
#include "fault/fault.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "server/database.h"
#include "storage/engine.h"
#include "storage/fsio.h"
#include "storage/sim_fs.h"
#include "storage/wal.h"
#include "temp_dir.h"
#include "tpcc/tpcc.h"

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using client::ErrorClass;
using fault::FaultRegistry;
using fault::FaultSpec;
using fault::ScopedFault;
using types::Value;

Bytes B(std::string_view s) { return Slice(s).ToBytes(); }

/// Every fault test starts and ends with a clean global registry, so a
/// failing test cannot leak an armed fault into its neighbours.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// ===========================================================================
// Registry semantics
// ===========================================================================

TEST_F(FaultTest, UnarmedPointIsOkAndRecordsNothing) {
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_TRUE(AEDB_FAULT_POINT("nowhere/at-all").ok());
  EXPECT_EQ(FaultRegistry::Global().hits("nowhere/at-all"), 0u);
}

TEST_F(FaultTest, OneShotFiresExactlyOnce) {
  FaultRegistry::Global().Arm("p", FaultSpec::OneShot(Status::Internal("boom")));
  EXPECT_TRUE(FaultRegistry::AnyArmed());
  Status first = AEDB_FAULT_POINT("p");
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_EQ(first.message(), "boom");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(AEDB_FAULT_POINT("p").ok());
  EXPECT_EQ(FaultRegistry::Global().hits("p"), 6u);
  EXPECT_EQ(FaultRegistry::Global().fires("p"), 1u);
}

TEST_F(FaultTest, AlwaysFiresOnEveryHit) {
  FaultRegistry::Global().Arm("p", FaultSpec::Always(Status::Unavailable("x")));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(AEDB_FAULT_POINT("p").code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(FaultRegistry::Global().fires("p"), 4u);
}

TEST_F(FaultTest, EveryNthWithSkipFiresOnSchedule) {
  FaultSpec spec = FaultSpec::EveryNth(3, Status::Internal("nth"));
  spec.skip = 2;  // hits 1,2 pass; then every 3rd eligible hit: 5, 8, 11, ...
  FaultRegistry::Global().Arm("p", spec);
  std::vector<int> fired;
  for (int hit = 1; hit <= 12; ++hit) {
    if (!AEDB_FAULT_POINT("p").ok()) fired.push_back(hit);
  }
  EXPECT_EQ(fired, (std::vector<int>{5, 8, 11}));
}

TEST_F(FaultTest, ProbabilityScheduleIsDeterministicUnderSeed) {
  auto schedule = [&]() {
    FaultRegistry::Global().Arm(
        "p", FaultSpec::WithProbability(0.5, 1234, Status::Internal("p")));
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(!AEDB_FAULT_POINT("p").ok());
    return fires;
  };
  std::vector<bool> a = schedule();
  std::vector<bool> b = schedule();  // re-arm resets the PRNG to the seed
  EXPECT_EQ(a, b);
  // Not degenerate: a 50% coin fires some but not all of 64 hits.
  size_t count = 0;
  for (bool f : a) count += f;
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, 64u);
}

TEST_F(FaultTest, CountersSurviveDisarmAndRearmResetsTrigger) {
  FaultRegistry::Global().Arm("p", FaultSpec::OneShot(Status::Internal("x")));
  EXPECT_FALSE(AEDB_FAULT_POINT("p").ok());
  EXPECT_TRUE(AEDB_FAULT_POINT("p").ok());  // one-shot spent
  FaultRegistry::Global().Disarm("p");
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_TRUE(AEDB_FAULT_POINT("p").ok());  // disarmed: no-op, not counted
  EXPECT_EQ(FaultRegistry::Global().hits("p"), 2u);
  EXPECT_EQ(FaultRegistry::Global().fires("p"), 1u);

  // Re-arming resets the one-shot (it fires again) but keeps counters.
  FaultRegistry::Global().Arm("p", FaultSpec::OneShot(Status::Internal("x")));
  EXPECT_FALSE(AEDB_FAULT_POINT("p").ok());
  EXPECT_EQ(FaultRegistry::Global().fires("p"), 2u);
}

TEST_F(FaultTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault guard("p", FaultSpec::Always(Status::Internal("scoped")));
    EXPECT_FALSE(AEDB_FAULT_POINT("p").ok());
  }
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_TRUE(AEDB_FAULT_POINT("p").ok());
}

TEST_F(FaultTest, FiredWithSpecExposesArgAndStatus) {
  FaultSpec spec = FaultSpec::OneShot(Status::Unavailable("custom"));
  spec.arg = 17;
  FaultRegistry::Global().Arm("p", spec);
  FaultSpec seen;
  ASSERT_TRUE(AEDB_FAULT_FIRED("p", &seen));
  EXPECT_EQ(seen.arg, 17u);
  EXPECT_EQ(seen.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(AEDB_FAULT_FIRED("p", &seen));
}

// ===========================================================================
// Error classification and backoff
// ===========================================================================

TEST_F(FaultTest, ClassificationTable) {
  using client::ClassifyError;
  // Re-attest: the enclave session or its keys are gone.
  EXPECT_EQ(ClassifyError(Status::SessionNotFound("s")), ErrorClass::kReattest);
  EXPECT_EQ(ClassifyError(Status::KeyNotInEnclave("k")), ErrorClass::kReattest);
  // Mixed-version compat: older servers spell it NotFound("...enclave
  // session...").
  EXPECT_EQ(ClassifyError(Status::NotFound("unknown enclave session 7")),
            ErrorClass::kReattest);
  // Reconnect: transport-level unavailability.
  EXPECT_EQ(ClassifyError(Status::Unavailable("conn dropped")),
            ErrorClass::kReconnect);
  // Everything else is deterministic and fatal.
  EXPECT_EQ(ClassifyError(Status::NotFound("no such table")),
            ErrorClass::kFatal);
  EXPECT_EQ(ClassifyError(Status::InvalidArgument("bad sql")),
            ErrorClass::kFatal);
  EXPECT_EQ(ClassifyError(Status::SecurityError("tamper")), ErrorClass::kFatal);
  EXPECT_EQ(ClassifyError(Status::Internal("bug")), ErrorClass::kFatal);
  EXPECT_EQ(ClassifyError(Status::PermissionDenied("no")), ErrorClass::kFatal);
  EXPECT_EQ(ClassifyError(Status::TransactionAborted("ta")),
            ErrorClass::kFatal);
}

TEST_F(FaultTest, BackoffIsDeterministicBoundedAndJittered) {
  client::RetryPolicy policy;
  policy.base_backoff = std::chrono::milliseconds(2);
  policy.max_backoff = std::chrono::milliseconds(100);

  Xoshiro256 a(policy.jitter_seed), b(policy.jitter_seed);
  for (int attempt = 0; attempt < 12; ++attempt) {
    auto da = client::ComputeBackoff(attempt, policy, &a);
    auto db = client::ComputeBackoff(attempt, policy, &b);
    EXPECT_EQ(da, db) << "attempt " << attempt;  // same seed, same schedule
    EXPECT_LE(da, policy.max_backoff);
    EXPECT_GE(da.count(), 0);
    // Jitter scales into [50%, 100%] of the exponential step.
    int64_t step = std::min<int64_t>(policy.max_backoff.count(),
                                     policy.base_backoff.count() << attempt);
    EXPECT_GE(da.count(), step / 2);
    EXPECT_LE(da.count(), step);
  }
  // A different seed decorrelates the schedule (thundering-herd defence).
  Xoshiro256 c(policy.jitter_seed + 1);
  bool any_diff = false;
  Xoshiro256 a2(policy.jitter_seed);
  for (int attempt = 0; attempt < 12; ++attempt) {
    if (client::ComputeBackoff(attempt, policy, &a2) !=
        client::ComputeBackoff(attempt, policy, &c)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ===========================================================================
// WAL fault points
// ===========================================================================

storage::LogRecord SampleRecord(uint64_t txn, std::string_view payload) {
  storage::LogRecord r;
  r.txn_id = txn;
  r.type = storage::LogRecordType::kHeapInsert;
  r.object_id = 1;
  r.rid = storage::Rid{0, 0};
  r.payload1 = B(payload);
  return r;
}

TEST_F(FaultTest, WalAppendFaultFailsCleanly) {
  storage::SimFs fs;
  storage::Wal wal(&fs, "wal.log");
  FaultRegistry::Global().Arm("wal/append",
                              FaultSpec::OneShot(Status::Internal("disk")));
  EXPECT_FALSE(wal.Append(SampleRecord(1, "lost")).ok());
  EXPECT_EQ(wal.record_count(), 0u);  // nothing half-written
  auto lsn = wal.Append(SampleRecord(1, "kept"));
  ASSERT_TRUE(lsn.ok());
  auto parsed = storage::Wal::ParseImage(wal.RawBytes());
  EXPECT_FALSE(parsed.torn_tail);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].payload1, B("kept"));
}

TEST_F(FaultTest, WalTornAppendLeavesDetectableTornTail) {
  storage::SimFs fs;
  storage::Wal wal(&fs, "wal.log");
  ASSERT_TRUE(wal.Append(SampleRecord(1, "intact")).ok());
  FaultRegistry::Global().Arm("wal/torn_append",
                              FaultSpec::OneShot(Status::Internal("crash")));
  EXPECT_FALSE(wal.Append(SampleRecord(1, "torn-away")).ok());

  // The durable image now ends in a half-written frame; parsing must keep
  // the intact prefix and flag (not fail on) the tail.
  auto parsed = storage::Wal::ParseImage(wal.RawBytes());
  EXPECT_TRUE(parsed.torn_tail);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].payload1, B("intact"));
  EXPECT_LT(parsed.bytes_consumed, wal.RawBytes().size());

  // A fresh WAL loading that image recovers the prefix and keeps appending.
  storage::SimFs recovered_fs;
  storage::Wal recovered(&recovered_fs, "wal.log");
  auto load = recovered.LoadImage(wal.RawBytes());
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(recovered.record_count(), 1u);
  EXPECT_TRUE(recovered.Append(SampleRecord(2, "after")).ok());
  auto reparsed = storage::Wal::ParseImage(recovered.RawBytes());
  EXPECT_FALSE(reparsed.torn_tail);
  EXPECT_EQ(reparsed.records.size(), 2u);
}

/// A torn write leaves a partial frame, and parsing stops there. A commit
/// appended after it could be fsynced and acked, yet no reopen would ever
/// see it. So the tear poisons the log, on either disk, until a rewrite
/// from the intact prefix. The records before the tear can still be acked.
TEST_F(FaultTest, WalTornWritePoisonsUntilRewrite) {
  testing::TempDir dir;
  storage::SimFs sim;
  storage::PosixFs disk;
  for (storage::Fs* fs : {static_cast<storage::Fs*>(&sim),
                          static_cast<storage::Fs*>(&disk)}) {
    SCOPED_TRACE(fs == &sim ? "simulated disk" : "real disk");
    const std::string path = fs == &sim ? "wal.log" : dir.File("wal.log");
    storage::Wal wal(fs, path);
    ASSERT_TRUE(wal.Open().ok());
    // What a reopen would read: the log's file.
    auto reopen = [&] {
      auto image = fs->ReadFile(path);
      EXPECT_TRUE(image.ok());
      return storage::Wal::ParseImage(image.ok() ? *image : Bytes());
    };

    auto intact = wal.Append(SampleRecord(1, "intact"));
    ASSERT_TRUE(intact.ok());
    FaultRegistry::Global().Arm("wal/torn_append",
                                FaultSpec::OneShot(Status::Internal("crash")));
    EXPECT_FALSE(wal.Append(SampleRecord(1, "torn-away")).ok());
    EXPECT_TRUE(wal.poisoned());
    EXPECT_EQ(wal.file_errors(), 1u);
    EXPECT_EQ(wal.next_lsn(), *intact + 1);  // the torn record got no LSN
    EXPECT_TRUE(wal.SyncUpTo(*intact).ok());

    storage::LogRecord commit = SampleRecord(1, "");
    commit.type = storage::LogRecordType::kCommit;
    EXPECT_FALSE(wal.Append(commit).ok());
    EXPECT_FALSE(wal.SyncUpTo(*intact + 1).ok());
    EXPECT_FALSE(wal.Sync().ok());
    EXPECT_EQ(wal.Snapshot()->size(), 1u);
    EXPECT_EQ(wal.record_count(), 1u);
    auto seen = reopen();
    EXPECT_TRUE(seen.torn_tail);
    EXPECT_EQ(seen.records.size(), 1u);

    // Cutting nothing still rewrites the log from its intact prefix, which
    // drops the torn bytes and lifts the poison.
    ASSERT_TRUE(wal.TruncateBefore(1).ok());
    EXPECT_FALSE(wal.poisoned());
    auto lsn = wal.Append(commit);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    ASSERT_TRUE(wal.SyncUpTo(*lsn).ok());
    seen = reopen();
    EXPECT_FALSE(seen.torn_tail);
    ASSERT_EQ(seen.records.size(), 2u);
    EXPECT_EQ(seen.records[1].type, storage::LogRecordType::kCommit);
  }
}

/// Another thread's append tears while a group-commit leader lingers before
/// its fsync. The leader's commit precedes the tear, so it is durable and
/// must be acked although the log is poisoned by then.
TEST_F(FaultTest, WalCommitBeforeATearIsAcked) {
  testing::TempDir dir;
  storage::PosixFs disk;
  storage::Wal wal(&disk, dir.File("wal.log"));
  ASSERT_TRUE(wal.Open().ok());
  wal.set_group_commit_window_us(200'000);
  storage::LogRecord commit = SampleRecord(1, "");
  commit.type = storage::LogRecordType::kCommit;
  auto lsn = wal.Append(commit);
  ASSERT_TRUE(lsn.ok());

  Status acked = Status::Internal("leader never ran");
  std::thread leader([&] { acked = wal.SyncUpTo(*lsn); });
  // The leader holds the log's mutex from counting its request until its
  // linger, so once the count shows, it is lingering (or done).
  while (wal.sync_requests() == 0) std::this_thread::yield();
  FaultRegistry::Global().Arm("wal/torn_append",
                              FaultSpec::OneShot(Status::Internal("crash")));
  EXPECT_FALSE(wal.Append(SampleRecord(2, "torn-away")).ok());
  leader.join();
  EXPECT_TRUE(wal.poisoned());
  EXPECT_TRUE(acked.ok()) << acked.ToString();
}

TEST_F(FaultTest, WalSyncFaultSurfaces) {
  storage::SimFs fs;
  storage::Wal wal(&fs, "wal.log");
  ASSERT_TRUE(wal.Sync().ok());
  FaultRegistry::Global().Arm("wal/sync",
                              FaultSpec::OneShot(Status::Internal("fsync")));
  EXPECT_FALSE(wal.Sync().ok());
  EXPECT_TRUE(wal.Sync().ok());
}

// ===========================================================================
// Engine commit durability under injected failures
// ===========================================================================

class EngineFaultTest : public FaultTest {
 protected:
  static constexpr uint32_t kTable = 1;

  std::unique_ptr<storage::StorageEngine> MakeEngine() {
    auto engine = std::make_unique<storage::StorageEngine>();
    EXPECT_TRUE(engine->CreateTable(kTable).ok());
    return engine;
  }
};

TEST_F(EngineFaultTest, SyncFailureAtCommitAbortsAndUndoes) {
  auto engine = MakeEngine();
  uint64_t txn = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("doomed")).ok());

  FaultRegistry::Global().Arm("wal/sync",
                              FaultSpec::OneShot(Status::Internal("fsync")));
  Status st = engine->Commit(txn);
  // kCommit landed before the failed barrier: the outcome is unknown to the
  // caller, even though here the abort's compensation records settle it.
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(engine->table(kTable)->live_rows(), 0u);  // effects undone

  // The application-level contract: restart the transaction and it works.
  uint64_t retry = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(retry, kTable, B("survives")).ok());
  ASSERT_TRUE(engine->Commit(retry).ok());
  EXPECT_EQ(engine->table(kTable)->live_rows(), 1u);

  // And recovery from the log agrees: only the retried transaction exists.
  auto engine2 = MakeEngine();
  engine2->wal().LoadImage(engine->wal().RawBytes());
  ASSERT_TRUE(engine2->Recover().ok());
  EXPECT_EQ(engine2->table(kTable)->live_rows(), 1u);
}

/// The barrier fails after kCommit landed, and the abort's first
/// compensation record tears, so the log keeps kCommit with nothing after
/// it: recovery replays the txn as committed although its effects were
/// undone in memory. The commit must not answer kTransactionAborted — the
/// caller could retry it into a double apply — but kUnavailable.
TEST_F(EngineFaultTest, FailedCommitBarrierAnswersOutcomeUnknown) {
  auto engine = MakeEngine();
  uint64_t txn = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("in-doubt")).ok());

  FaultRegistry::Global().Arm("wal/sync",
                              FaultSpec::OneShot(Status::Internal("fsync")));
  FaultSpec torn = FaultSpec::OneShot(Status::Internal("crash"));
  torn.skip = 1;  // let kCommit land; tear the first compensation record
  FaultRegistry::Global().Arm("wal/torn_append", torn);
  Status st = engine->Commit(txn);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(FaultRegistry::Global().fires("wal/torn_append"), 1u);
  EXPECT_TRUE(engine->wal().poisoned());
  EXPECT_EQ(engine->table(kTable)->live_rows(), 0u);  // undone in memory

  // Restart from the log: either outcome is a truthful answer to
  // kUnavailable.
  auto restarted = MakeEngine();
  restarted->wal().LoadImage(engine->wal().RawBytes());
  ASSERT_TRUE(restarted->Recover().ok());
  EXPECT_LE(restarted->table(kTable)->live_rows(), 1u);
}

/// A tear mid-transaction poisons the log, so the abort's compensation
/// records cannot land. The abort must still undo every op in memory and
/// release the locks, leaving the txn a loser in the log. A checkpoint taken
/// then, whose truncation lifts the poison, must capture none of its rows.
TEST_F(EngineFaultTest, AbortAfterTornAppendUndoesEverything) {
  auto engine = MakeEngine();
  uint64_t txn = engine->Begin();
  auto a = engine->HeapInsert(txn, kTable, B("row-a"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(engine->LockRow(txn, kTable, *a).ok());
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("row-b")).ok());
  FaultRegistry::Global().Arm("wal/torn_append",
                              FaultSpec::OneShot(Status::Internal("crash")));
  EXPECT_FALSE(engine->HeapInsert(txn, kTable, B("row-c")).ok());
  ASSERT_TRUE(engine->wal().poisoned());

  ASSERT_TRUE(engine->Abort(txn).ok());
  EXPECT_EQ(engine->table(kTable)->live_rows(), 0u);
  EXPECT_EQ(engine->locks().HeldCount(txn), 0u);
  {
    auto crashed = MakeEngine();
    crashed->wal().LoadImage(engine->wal().RawBytes());
    ASSERT_TRUE(crashed->Recover().ok());
    EXPECT_EQ(crashed->table(kTable)->live_rows(), 0u);
  }

  auto captured = engine->CaptureCheckpoint(std::chrono::milliseconds(500));
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  ASSERT_TRUE(engine->wal().TruncateBefore((*captured)->checkpoint_lsn).ok());
  EXPECT_FALSE(engine->wal().poisoned());
  auto restarted = MakeEngine();
  restarted->SetCheckpointBase(*captured);
  restarted->wal().LoadImage(engine->wal().RawBytes());
  ASSERT_TRUE(restarted->Recover().ok());
  EXPECT_EQ(restarted->table(kTable)->live_rows(), 0u);

  uint64_t next = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(next, kTable, B("after")).ok());
  ASSERT_TRUE(engine->Commit(next).ok());
}

/// A compensation record that fails to append, while a later one lands,
/// must keep kAbort out of the log: kAbort would tell recovery the log holds
/// the whole undo, and redo would bring the uncompensated row back.
TEST_F(EngineFaultTest, AbortWithALostClrLeavesALoser) {
  auto engine = MakeEngine();
  uint64_t txn = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("row-a")).ok());
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("row-b")).ok());
  // Undo runs newest first: the one-shot drops row-b's CLR, row-a's lands.
  FaultRegistry::Global().Arm("wal/append",
                              FaultSpec::OneShot(Status::Internal("lost clr")));
  ASSERT_TRUE(engine->Abort(txn).ok());
  EXPECT_EQ(engine->table(kTable)->live_rows(), 0u);
  auto log = engine->wal().Snapshot();
  ASSERT_TRUE(log.ok());
  for (const storage::LogRecord& rec : *log) {
    EXPECT_NE(rec.type, storage::LogRecordType::kAbort);
  }

  auto restarted = MakeEngine();
  restarted->wal().LoadImage(engine->wal().RawBytes());
  ASSERT_TRUE(restarted->Recover().ok());
  EXPECT_EQ(restarted->table(kTable)->live_rows(), 0u);
}

TEST_F(EngineFaultTest, CommitRecordAppendFailureAbortsAndUndoes) {
  auto engine = MakeEngine();
  uint64_t txn = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("doomed")).ok());

  // Armed after the data appends, so the one-shot lands exactly on the next
  // append — the commit record. This is the "crash after fsync of the data
  // records, before the commit record" point.
  FaultRegistry::Global().Arm(
      "wal/append", FaultSpec::OneShot(Status::Internal("commit append")));
  Status st = engine->Commit(txn);
  EXPECT_EQ(st.code(), StatusCode::kTransactionAborted) << st.ToString();
  EXPECT_EQ(FaultRegistry::Global().fires("wal/append"), 1u);
  EXPECT_EQ(engine->table(kTable)->live_rows(), 0u);

  auto engine2 = MakeEngine();
  engine2->wal().LoadImage(engine->wal().RawBytes());
  ASSERT_TRUE(engine2->Recover().ok());
  EXPECT_EQ(engine2->table(kTable)->live_rows(), 0u);  // loser stayed lost
}

// ===========================================================================
// Wire protocol: retry attempt stamping
// ===========================================================================

TEST_F(FaultTest, QueryReqRetryByteRoundTripsAndDefaultsToZero) {
  net::QueryNamedReq req;
  req.sql = "SELECT 1";
  req.retry = 3;
  req.deadline_ms = 250;
  auto decoded = net::QueryNamedReq::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->retry, 3);
  EXPECT_EQ(decoded->deadline_ms, 250u);

  // A frame from an older client (no trailing retry byte, no deadline field)
  // still decodes: strip the u32 deadline and the retry byte.
  net::QueryNamedReq old_req;
  old_req.sql = "SELECT 1";
  Bytes encoded = old_req.Encode();
  encoded.resize(encoded.size() - 5);  // the pre-retry wire form
  auto legacy = net::QueryNamedReq::Decode(encoded);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->retry, 0);
  EXPECT_EQ(legacy->deadline_ms, 0u);

  // The intermediate form (retry byte present, no deadline) also decodes.
  Bytes mid = old_req.Encode();
  mid.resize(mid.size() - 4);  // strip only the deadline u32
  auto middecoded = net::QueryNamedReq::Decode(mid);
  ASSERT_TRUE(middecoded.ok());
  EXPECT_EQ(middecoded->deadline_ms, 0u);
}

// ===========================================================================
// Networked fixture: server + socket driver under injected faults
// ===========================================================================

class NetFaultTest : public FaultTest {
 protected:
  static constexpr const char* kVaultPath = "kv/fault-test";

  void SetUp() override {
    FaultTest::SetUp();
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey(kVaultPath, 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());

    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("fault-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();

    server::ServerOptions opts;
    opts.engine.lock_timeout = std::chrono::milliseconds(200);
    db_ = std::make_unique<server::Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db_->platform()->tcg_log());

    net::ServerConfig config;
    config.read_timeout_ms = 2000;
    config.write_timeout_ms = 2000;
    server_ = std::make_unique<net::Server>(db_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    FaultTest::TearDown();
  }

  Result<std::unique_ptr<client::Transport>> ConnectTransport() {
    net::SocketTransport::Options topts;
    topts.port = server_->port();
    topts.timeout_ms = 5000;
    auto t = net::SocketTransport::Connect(topts);
    if (!t.ok()) return t.status();
    return std::unique_ptr<client::Transport>(std::move(t).value());
  }

  /// Socket driver with the recovery loop on and a reconnect factory. The
  /// backoff floor is zeroed so tests don't sleep.
  std::unique_ptr<Driver> MakeSocketDriver() {
    auto transport = ConnectTransport();
    EXPECT_TRUE(transport.ok()) << transport.status().ToString();
    if (!transport.ok()) return nullptr;
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    dopts.retry.base_backoff = std::chrono::milliseconds(0);
    dopts.retry.max_backoff = std::chrono::milliseconds(0);
    dopts.transport_factory = [this] { return ConnectTransport(); };
    return std::make_unique<Driver>(std::move(transport).value(), &registry_,
                                    hgs_->signing_public(), dopts);
  }

  std::unique_ptr<Driver> MakeInProcessDriver() {
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    return std::make_unique<Driver>(db_.get(), &registry_,
                                    hgs_->signing_public(), dopts);
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<server::Database> db_;
  std::unique_ptr<net::Server> server_;
};

/// An in-memory Database has no checkpoint to lift a torn log's poison, so
/// Restart does: it reloads the log from its intact prefix, as a reopen
/// would. Recovery then undoes the torn transaction and writes work again.
TEST_F(NetFaultTest, RestartAfterTornLogWriteRecoversAndWritesAgain) {
  auto driver = MakeInProcessDriver();
  ASSERT_TRUE(driver->ExecuteDdl("CREATE TABLE T (id INT)").ok());
  auto insert = [&](int id, uint64_t txn) {
    return driver
        ->Query("INSERT INTO T (id) VALUES (@i)", {{"i", Value::Int32(id)}},
                txn)
        .status();
  };
  auto count = [&]() -> int64_t {
    auto rs = driver->Query("SELECT COUNT(*) FROM T");
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() ? rs->rows[0][0].i64() : -1;
  };
  ASSERT_TRUE(insert(1, 0).ok());
  uint64_t txn = driver->Begin();
  ASSERT_TRUE(insert(2, txn).ok());
  FaultRegistry::Global().Arm("wal/torn_append",
                              FaultSpec::OneShot(Status::Internal("crash")));
  EXPECT_FALSE(insert(3, txn).ok());
  (void)driver->Rollback(txn);  // the failed statement may have ended it
  EXPECT_FALSE(insert(4, 0).ok());  // the log is poisoned

  auto recovery = db_->Restart();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(count(), 1);
  ASSERT_TRUE(insert(5, 0).ok());
  EXPECT_EQ(count(), 2);
}

TEST_F(NetFaultTest, WorkerErrorAnswersTypedFrameAndSelectRetriesTransparently) {
  auto driver = MakeSocketDriver();
  ASSERT_TRUE(driver);
  ASSERT_TRUE(driver->ExecuteDdl("CREATE TABLE T (id INT, v INT)").ok());
  ASSERT_TRUE(driver
                  ->Query("INSERT INTO T (id, v) VALUES (@i, @v)",
                          {{"i", Value::Int32(1)}, {"v", Value::Int32(7)}})
                  .ok());

  FaultRegistry::Global().Arm("net/worker_error",
                              FaultSpec::OneShot(Status::Internal("ignored")));
  auto rs = driver->Query("SELECT v FROM T WHERE id = @i",
                          {{"i", Value::Int32(1)}});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].i32(), 7);

  // The failure travelled as a typed kUnavailable error frame (the connection
  // stayed open — no reconnect), the driver retried once, and the server saw
  // the retry-stamped frame.
  EXPECT_EQ(FaultRegistry::Global().fires("net/worker_error"), 1u);
  EXPECT_GE(driver->retries(), 1);
  EXPECT_EQ(driver->reconnects(), 0);
  EXPECT_GE(server_->stats().retries_seen.load(), 1u);
  EXPECT_GE(server_->stats().request_errors.load(), 1u);
}

TEST_F(NetFaultTest, WorkerErrorOnWriteIsNotReplayed) {
  auto driver = MakeSocketDriver();
  ASSERT_TRUE(driver);
  ASSERT_TRUE(driver->ExecuteDdl("CREATE TABLE T (id INT)").ok());
  FaultRegistry::Global().Arm("net/worker_error",
                              FaultSpec::OneShot(Status::Internal("ignored")));
  // A write's fate would be unknown to a real client; auto-replay is unsafe,
  // so the typed error surfaces to the application.
  auto ins = driver->Query("INSERT INTO T (id) VALUES (@i)",
                           {{"i", Value::Int32(1)}});
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(driver->retries(), 0);
}

TEST_F(NetFaultTest, DropMidFrameTriggersReconnectAndSelectReplay) {
  auto driver = MakeSocketDriver();
  ASSERT_TRUE(driver);
  ASSERT_TRUE(driver->ExecuteDdl("CREATE TABLE T (id INT)").ok());
  ASSERT_TRUE(driver
                  ->Query("INSERT INTO T (id) VALUES (@i)",
                          {{"i", Value::Int32(5)}})
                  .ok());

  // The server writes half the response frame and hangs up; the client sees
  // a mid-frame disconnect, poisons the transport, reconnects via the
  // factory, and replays the (read-only) statement.
  FaultRegistry::Global().Arm("net/drop_mid_frame",
                              FaultSpec::OneShot(Status::Internal("drop")));
  auto rs = driver->Query("SELECT id FROM T");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(FaultRegistry::Global().fires("net/drop_mid_frame"), 1u);
  EXPECT_GE(driver->retries(), 1);
  EXPECT_EQ(driver->reconnects(), 1);
}

TEST_F(NetFaultTest, HandshakeStallHitsClientReadTimeout) {
  FaultSpec spec = FaultSpec::OneShot(Status::Internal("stall"));
  spec.arg = 500;  // ms; client timeout below is 100ms
  FaultRegistry::Global().Arm("net/handshake_stall", spec);
  net::SocketTransport::Options topts;
  topts.port = server_->port();
  topts.timeout_ms = 100;
  auto t = net::SocketTransport::Connect(topts);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(FaultRegistry::Global().fires("net/handshake_stall"), 1u);
  // The server survives; a patient client connects fine afterwards.
  topts.timeout_ms = 5000;
  EXPECT_TRUE(net::SocketTransport::Connect(topts).ok());
}

TEST_F(NetFaultTest, EnclaveRestartReattestsTransparentlyOnAutoCommitQuery) {
  auto driver = MakeSocketDriver();
  ASSERT_TRUE(driver);
  ASSERT_TRUE(driver
                  ->ProvisionCmk("FCMK", vault_->name(), kVaultPath,
                                 /*enclave_enabled=*/true)
                  .ok());
  ASSERT_TRUE(driver->ProvisionCek("FCEK", "FCMK").ok());
  ASSERT_TRUE(driver
                  ->ExecuteDdl(
                      "CREATE TABLE Vault (id INT, "
                      "memo VARCHAR(32) ENCRYPTED WITH ("
                      "COLUMN_ENCRYPTION_KEY = FCEK, "
                      "ENCRYPTION_TYPE = Randomized, "
                      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))")
                  .ok());
  auto ins = driver->Query("INSERT INTO Vault (id, memo) VALUES (@i, @m)",
                           {{"i", Value::Int32(1)},
                            {"m", Value::String("top-secret-alpha")}});
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  // The RND LIKE predicate runs inside the enclave: session + CEKs are live.
  auto warm = driver->Query("SELECT id FROM Vault WHERE memo LIKE @p",
                            {{"p", Value::String("top-%")}});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(driver->attestations(), 1);

  // Kill the enclave state right before the next statement executes.
  FaultRegistry::Global().Arm(
      "server/enclave_restart",
      FaultSpec::OneShot(Status::Internal("restart")));
  auto rs = driver->Query("SELECT id FROM Vault WHERE memo LIKE @p",
                          {{"p", Value::String("top-%")}});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].i32(), 1);

  // Exactly one restart fired; the driver re-attested exactly once and
  // replayed; the server observed both the re-attestation and the
  // retry-stamped frame.
  EXPECT_EQ(FaultRegistry::Global().fires("server/enclave_restart"), 1u);
  EXPECT_EQ(driver->attestations(), 2);
  EXPECT_GE(driver->retries(), 1);
  EXPECT_EQ(server_->stats().sessions_attested.load(), 2u);
  EXPECT_GE(server_->stats().retries_seen.load(), 1u);
}

TEST_F(NetFaultTest, SessionEvictionMidStreamRecoversLikeRestart) {
  auto driver = MakeSocketDriver();
  ASSERT_TRUE(driver);
  ASSERT_TRUE(driver
                  ->ProvisionCmk("ECMK", vault_->name(), kVaultPath,
                                 /*enclave_enabled=*/true)
                  .ok());
  ASSERT_TRUE(driver->ProvisionCek("ECEK", "ECMK").ok());
  ASSERT_TRUE(driver
                  ->ExecuteDdl(
                      "CREATE TABLE S (id INT, "
                      "v VARCHAR(16) ENCRYPTED WITH ("
                      "COLUMN_ENCRYPTION_KEY = ECEK, "
                      "ENCRYPTION_TYPE = Randomized, "
                      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))")
                  .ok());
  ASSERT_TRUE(driver
                  ->Query("INSERT INTO S (id, v) VALUES (@i, @v)",
                          {{"i", Value::Int32(1)}, {"v", Value::String("x")}})
                  .ok());
  // INSERT encrypts client-side and never touches the enclave; a LIKE over
  // the randomized column is what forces the first attestation.
  auto warm = driver->Query("SELECT id FROM S WHERE v LIKE @p",
                            {{"p", Value::String("x%")}});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(driver->attestations(), 1);

  // Evict the session at the next enclave session lookup, which (after the
  // driver drops its cached session) is the CEK install for the new session:
  // the driver must see the typed kSessionNotFound, re-attest AGAIN, and
  // replay — the statement never half-runs under a dead session.
  FaultRegistry::Global().Arm(
      "enclave/evict_session",
      FaultSpec::OneShot(Status::Internal("ignored")));
  driver->InvalidateSession();
  auto rs = driver->Query("SELECT id FROM S WHERE v LIKE @p",
                          {{"p", Value::String("x%")}});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(FaultRegistry::Global().fires("enclave/evict_session"), 1u);
  // Attest #2 minted the session that got evicted; attest #3 recovered it.
  EXPECT_EQ(driver->attestations(), 3);
  EXPECT_GE(driver->retries(), 1);
}

// ===========================================================================
// The headline test: enclave restart in the middle of TPC-C over a socket
// ===========================================================================

TEST_F(NetFaultTest, TpccSurvivesEnclaveRestartMidWorkloadOverSocket) {
  tpcc::TpccConfig config;
  config.warehouses = 1;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 8;
  config.items = 30;
  config.initial_orders_per_district = 3;
  config.encryption = tpcc::Encryption::kRandomized;
  config.cek_name = "TpccCEK";

  auto loader_driver = MakeInProcessDriver();
  ASSERT_TRUE(loader_driver);
  ASSERT_TRUE(loader_driver
                  ->ProvisionCmk("TpccCMK", vault_->name(), kVaultPath,
                                 /*enclave_enabled=*/true)
                  .ok());
  ASSERT_TRUE(loader_driver->ProvisionCek("TpccCEK", "TpccCMK").ok());
  tpcc::TpccLoader loader(loader_driver.get(), config);
  ASSERT_TRUE(loader.CreateSchema().ok());
  ASSERT_TRUE(loader.Load().ok());

  auto driver = MakeSocketDriver();
  ASSERT_TRUE(driver);
  tpcc::TpccTerminal terminal(driver.get(), config, /*seed=*/11);
  // Warm-up until an enclave-requiring statement has run (RND last-name
  // lookup): attests, installs CEKs, fills describe caches.
  for (int i = 0; i < 60 && driver->attestations() == 0; ++i) {
    Status st = terminal.RunOne();
    ASSERT_TRUE(st.ok()) << "warmup txn " << i << ": " << st.ToString();
  }
  ASSERT_EQ(driver->attestations(), 1);
  uint64_t warm_committed = terminal.committed();

  // Restart the enclave under the running workload: the in-flight transaction
  // surfaces kTransactionAborted, the terminal restarts it, and the restarted
  // transaction re-attests + re-installs CEKs through the recovery path. Run
  // until the re-attestation has demonstrably happened (bounded).
  FaultRegistry::Global().Arm(
      "server/enclave_restart",
      FaultSpec::OneShot(Status::Internal("restart")));
  int post = 0;
  for (; post < 120 && !(driver->attestations() >= 2 && post >= 10); ++post) {
    Status st = terminal.RunOne();
    ASSERT_TRUE(st.ok()) << "txn " << post << ": " << st.ToString();
  }
  EXPECT_GT(terminal.committed(), warm_committed);

  // Exactly one restart; exactly one re-attestation + key re-install; the
  // recovery was visible (a transaction restarted), never a wrong result.
  EXPECT_EQ(FaultRegistry::Global().fires("server/enclave_restart"), 1u);
  EXPECT_EQ(driver->attestations(), 2);
  EXPECT_GE(terminal.restarts(), 1u);
  EXPECT_EQ(server_->stats().sessions_attested.load(), 2u);

  // Consistency spot-check against the in-process view: both paths must see
  // identical district counters.
  for (int d = 1; d <= config.districts_per_warehouse; ++d) {
    auto over_socket = driver->Query(
        "SELECT D_NEXT_O_ID FROM District WHERE D_W_ID = @w AND D_ID = @d",
        {{"w", Value::Int32(1)}, {"d", Value::Int32(d)}});
    auto in_process = loader_driver->Query(
        "SELECT D_NEXT_O_ID FROM District WHERE D_W_ID = @w AND D_ID = @d",
        {{"w", Value::Int32(1)}, {"d", Value::Int32(d)}});
    ASSERT_TRUE(over_socket.ok());
    ASSERT_TRUE(in_process.ok());
    ASSERT_EQ(over_socket->rows.size(), 1u);
    EXPECT_TRUE(over_socket->rows[0][0] == in_process->rows[0][0]);
  }

  // The ciphertext-only invariant held through the whole fault + recovery
  // dance: customer PII never hits a page in plaintext.
  bool leaked = false;
  db_->engine().ForEachPageRaw([&](uint32_t, Slice page) {
    std::string_view h(reinterpret_cast<const char*>(page.data()),
                       page.size());
    if (h.find("BARBARBAR") != std::string_view::npos) leaked = true;
  });
  EXPECT_FALSE(leaked);
}

}  // namespace
}  // namespace aedb
