#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "fault/fault.h"
#include "server/database.h"
#include "server/router.h"
#include "storage/btree.h"
#include "storage/checkpoint.h"
#include "storage/engine.h"
#include "storage/fsio.h"
#include "storage/sim_fs.h"
#include "storage/torture.h"
#include "storage/wal.h"
#include "temp_dir.h"

namespace aedb {
namespace {

using server::Database;
using server::ServerOptions;
using storage::BinaryComparator;
using storage::BTree;
using storage::CheckpointImage;
using storage::LogRecord;
using storage::LogRecordType;
using storage::Rid;
using storage::StorageEngine;
using storage::Wal;
using storage::WalLoadResult;
using testing::TempDir;
using types::Value;

Bytes B(std::string_view s) { return Slice(s).ToBytes(); }

bool OnDisk(const std::string& path) {
  storage::PosixFs disk;
  return storage::fsio::FileExists(disk, path);
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().Reset(); }
  void TearDown() override { fault::FaultRegistry::Global().Reset(); }
};

// ===========================================================================
// File-backed WAL
// ===========================================================================

LogRecord MakeRecord(uint64_t txn, LogRecordType type, std::string_view body) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = type;
  rec.object_id = 7;
  rec.payload1 = B(body);
  return rec;
}

TEST_F(DurabilityTest, FileWalSurvivesReopen) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  {
    storage::PosixFs disk;
    Wal wal(&disk, path);
    Status opened = wal.Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    EXPECT_TRUE(wal.Snapshot()->empty());
    ASSERT_TRUE(wal.Append(MakeRecord(1, LogRecordType::kBegin, "")).ok());
    ASSERT_TRUE(
        wal.Append(MakeRecord(1, LogRecordType::kHeapInsert, "row-a")).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(1, LogRecordType::kCommit, "")).ok());
    ASSERT_TRUE(wal.Sync().ok());
    EXPECT_GE(wal.fsyncs(), 1u);
    EXPECT_EQ(wal.wal_bytes(), wal.RawBytes().size());
  }
  // A brand-new Wal over the same file adopts the log: same records, and the
  // next LSN continues past the durable tail instead of restarting at 1.
  storage::PosixFs disk;
  Wal reopened(&disk, path);
  Status loaded = reopened.Open();
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  auto records = *reopened.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(reopened.torn_bytes_dropped(), 0u);
  EXPECT_EQ(records[1].payload1, B("row-a"));
  EXPECT_EQ(records[2].type, LogRecordType::kCommit);
  EXPECT_GT(reopened.next_lsn(), records[2].lsn);
}

TEST_F(DurabilityTest, FileWalTornTailIsDroppedAndPhysicallyTruncated) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  size_t intact_bytes = 0;
  {
    storage::PosixFs disk;
    Wal wal(&disk, path);
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(wal.Append(MakeRecord(1, LogRecordType::kBegin, "")).ok());
    ASSERT_TRUE(
        wal.Append(MakeRecord(1, LogRecordType::kHeapInsert, "kept")).ok());
    ASSERT_TRUE(wal.Sync().ok());
    intact_bytes = wal.wal_bytes();
  }
  // Simulate a crash mid-append: garbage (a torn frame) after the intact
  // prefix.
  {
    int fd = open(path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const char torn[] = "\x40\x00\x00\x00\xde\xad\xbe\xef half a frame";
    ASSERT_EQ(write(fd, torn, sizeof(torn)), (ssize_t)sizeof(torn));
    close(fd);
  }
  storage::PosixFs disk;
  Wal reopened(&disk, path);
  Status loaded = reopened.Open();
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ASSERT_EQ(reopened.Snapshot()->size(), 2u);
  EXPECT_GT(reopened.torn_bytes_dropped(), 0u);
  // The tail was rewritten away, not just ignored: the file is back to the
  // intact prefix, so the next append lands on a clean boundary.
  struct stat st;
  ASSERT_EQ(stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<size_t>(st.st_size), intact_bytes);
  ASSERT_TRUE(
      reopened.Append(MakeRecord(2, LogRecordType::kHeapInsert, "after")).ok());
  storage::PosixFs third_disk;
  Wal third(&third_disk, path);
  ASSERT_TRUE(third.Open().ok());
  EXPECT_EQ(third.torn_bytes_dropped(), 0u);
  auto records = *third.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].payload1, B("after"));
}

TEST_F(DurabilityTest, FileWalSyncFaultSkipsFsync) {
  TempDir dir;
  storage::PosixFs disk;
  Wal wal(&disk, dir.File("wal.log"));
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(MakeRecord(1, LogRecordType::kBegin, "")).ok());
  const uint64_t before = wal.fsyncs();
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("wal/sync", spec);
  EXPECT_FALSE(wal.Sync().ok());
  EXPECT_EQ(wal.fsyncs(), before);  // the failed sync must not have synced
  EXPECT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.fsyncs(), before + 1);
}

TEST_F(DurabilityTest, FailedTruncationRewriteIsObservableAndNonFatal) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  storage::PosixFs disk;
  Wal wal(&disk, path);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(MakeRecord(1, LogRecordType::kBegin, "")).ok());
  ASSERT_TRUE(wal.Append(MakeRecord(1, LogRecordType::kHeapInsert, "a")).ok());
  ASSERT_TRUE(wal.Append(MakeRecord(1, LogRecordType::kCommit, "")).ok());
  ASSERT_TRUE(wal.Sync().ok());
  const uint64_t cut = wal.next_lsn();

  // The truncation's atomic rewrite dies before its rename. The old file —
  // a superset of the trimmed log — is still the live log, so durability is
  // intact; the failed rewrite must be gauged.
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("fsio/pre_rename", spec);
  EXPECT_FALSE(wal.TruncateBefore(cut).ok());
  EXPECT_EQ(wal.file_errors(), 1u);
  EXPECT_FALSE(wal.poisoned());

  // The log keeps working: appends and fsyncs still reach the file, and a
  // reopen sees the never-truncated prefix plus the new tail.
  ASSERT_TRUE(wal.Append(MakeRecord(2, LogRecordType::kBegin, "")).ok());
  ASSERT_TRUE(wal.Sync().ok());
  storage::PosixFs reopened_disk;
  Wal reopened(&reopened_disk, path);
  Status loaded = reopened.Open();
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(reopened.torn_bytes_dropped(), 0u);
  auto records = *reopened.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.back().type, LogRecordType::kBegin);
}

// ===========================================================================
// Checkpoint image serialization
// ===========================================================================

TEST_F(DurabilityTest, CheckpointImageRoundTrips) {
  CheckpointImage img;
  img.checkpoint_lsn = 42;
  img.next_txn_id = 17;
  CheckpointImage::TableImage table;
  table.table_id = 3;
  table.heap = B("opaque heap page bytes");
  img.tables.push_back(table);
  CheckpointImage::IndexImage index;
  index.index_id = 9;
  index.invalid = true;
  index.entries.emplace_back(B("key-1"), Rid{0, 5});
  index.entries.emplace_back(B("key-2"), Rid{1, 0});
  img.indexes.push_back(index);

  Bytes wire = img.Serialize();
  auto back = CheckpointImage::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->checkpoint_lsn, 42u);
  EXPECT_EQ(back->next_txn_id, 17u);
  ASSERT_EQ(back->tables.size(), 1u);
  EXPECT_EQ(back->tables[0].table_id, 3u);
  EXPECT_EQ(back->tables[0].heap, B("opaque heap page bytes"));
  ASSERT_EQ(back->indexes.size(), 1u);
  EXPECT_TRUE(back->indexes[0].invalid);
  ASSERT_EQ(back->indexes[0].entries.size(), 2u);
  EXPECT_EQ(back->indexes[0].entries[1].first, B("key-2"));
  EXPECT_EQ(back->indexes[0].entries[0].second.Encode(), (Rid{0, 5}).Encode());
}

TEST_F(DurabilityTest, CheckpointImageDetectsCorruptionAndTruncation) {
  CheckpointImage img;
  img.checkpoint_lsn = 1;
  Bytes wire = img.Serialize();
  for (size_t i = 0; i < wire.size(); i += 3) {
    Bytes bad = wire;
    bad[i] ^= 0x5A;
    EXPECT_FALSE(CheckpointImage::Deserialize(bad).ok())
        << "bit flip at byte " << i << " went undetected";
  }
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(CheckpointImage::Deserialize(Slice(wire.data(), n)).ok())
        << "accepted a " << n << "-byte truncation";
  }
}

// ===========================================================================
// Engine checkpoint capture + recovery from base
// ===========================================================================

constexpr uint32_t kTable = 1;
constexpr uint32_t kIndex = 2;

std::unique_ptr<StorageEngine> MakeCatalogedEngine(
    std::shared_ptr<storage::Fs> fs = nullptr, const std::string& dir = "") {
  auto engine =
      std::make_unique<StorageEngine>(storage::EngineOptions{}, fs, dir);
  EXPECT_TRUE(engine->CreateTable(kTable).ok());
  EXPECT_TRUE(engine
                  ->CreateIndex(kIndex, kTable,
                                std::make_unique<BinaryComparator>(),
                                /*unique=*/false)
                  .ok());
  return engine;
}

Status CommitRow(StorageEngine* engine, const std::string& row,
                 const std::string& key) {
  uint64_t txn = engine->Begin();
  Rid rid;
  AEDB_ASSIGN_OR_RETURN(rid, engine->HeapInsert(txn, kTable, B(row)));
  AEDB_RETURN_IF_ERROR(engine->IndexInsert(txn, kIndex, B(key), rid));
  return engine->Commit(txn);
}

TEST_F(DurabilityTest, CommitRecordIsAppendedBeforeTheDurabilitySync) {
  auto engine = MakeCatalogedEngine();
  uint64_t txn = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("row")).ok());
  // Fail the commit-point fsync. The commit record must ALREADY be in the
  // log when the sync runs — syncing first and appending after would ack
  // commits whose record was never fsynced — so the failed commit leaves
  // [ops.., kCommit, CLRs.., kAbort] behind, and answers that its outcome
  // is unknown: kCommit is in the log.
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("wal/sync", spec);
  Status st = engine->Commit(txn);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  int commit_at = -1;
  int abort_at = -1;
  std::vector<LogRecord> log = *engine->wal().Snapshot();
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].txn_id != txn) continue;
    if (log[i].type == LogRecordType::kCommit) commit_at = static_cast<int>(i);
    if (log[i].type == LogRecordType::kAbort) abort_at = static_cast<int>(i);
  }
  ASSERT_GE(commit_at, 0) << "kCommit was not appended before the sync";
  ASSERT_GE(abort_at, 0);
  EXPECT_LT(commit_at, abort_at);
  // Redo of that suffix nets the txn to zero: here recovery settles the
  // unknown outcome as aborted even though a kCommit record exists.
  ASSERT_TRUE(engine->Recover().ok());
  size_t live = 0;
  engine->table(kTable)->Scan([&](const Rid&, Slice) {
    ++live;
    return true;
  });
  EXPECT_EQ(live, 0u);
}

TEST_F(DurabilityTest, RecoveryFromCheckpointPlusWalTail) {
  auto engine = MakeCatalogedEngine();
  ASSERT_TRUE(CommitRow(engine.get(), "baked-1", "a").ok());
  ASSERT_TRUE(CommitRow(engine.get(), "baked-2", "b").ok());

  auto captured = engine->CaptureCheckpoint(std::chrono::milliseconds(500));
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const uint64_t horizon = (*captured)->checkpoint_lsn;
  EXPECT_EQ(horizon, engine->wal().next_lsn());

  // Post-checkpoint tail: one more committed row, one loser in flight.
  ASSERT_TRUE(CommitRow(engine.get(), "tail-3", "c").ok());
  uint64_t loser = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(loser, kTable, B("loser")).ok());

  // Checkpoint publish + log truncation, then a crash: rebuild a fresh
  // engine from (serialized image, truncated log) exactly as Open() would.
  ASSERT_TRUE(engine->wal().TruncateBefore(horizon).ok());
  Bytes image_wire = (*captured)->Serialize();
  Bytes log_image = engine->wal().RawBytes();

  auto fresh = MakeCatalogedEngine();
  auto base = CheckpointImage::Deserialize(image_wire);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  fresh->SetCheckpointBase(
      std::make_shared<const CheckpointImage>(std::move(base).value()));
  fresh->wal().LoadImage(log_image);
  auto recovered = fresh->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->from_checkpoint_lsn, horizon);

  // All three committed rows live, the loser vanished, the index sees
  // exactly the three committed keys.
  std::vector<std::string> rows;
  fresh->table(kTable)->Scan([&](const Rid&, Slice row) {
    rows.emplace_back(row.ToString());
    return true;
  });
  std::sort(rows.begin(), rows.end());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], "baked-1");
  EXPECT_EQ(rows[1], "baked-2");
  EXPECT_EQ(rows[2], "tail-3");
  EXPECT_EQ(fresh->index_tree(kIndex)->size(), 3u);

  // New transactions must not reuse LSNs or txn ids from before the crash.
  EXPECT_GE(fresh->wal().next_lsn(), horizon);
  uint64_t next = fresh->Begin();
  EXPECT_GE(next, (*captured)->next_txn_id);
}

TEST_F(DurabilityTest, CheckpointRefusedUntilQuiescent) {
  auto engine = MakeCatalogedEngine();
  uint64_t txn = engine->Begin();
  ASSERT_TRUE(engine->HeapInsert(txn, kTable, B("open")).ok());
  auto refused = engine->CaptureCheckpoint(std::chrono::milliseconds(50));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine->Commit(txn).ok());
  EXPECT_TRUE(engine->CaptureCheckpoint(std::chrono::milliseconds(50)).ok());
}

TEST_F(DurabilityTest, RecoveryIsIdempotentAfterMidRecoveryCrash) {
  auto engine = MakeCatalogedEngine();
  ASSERT_TRUE(CommitRow(engine.get(), "row-1", "a").ok());
  ASSERT_TRUE(CommitRow(engine.get(), "row-2", "b").ok());
  Bytes log_image = engine->wal().RawBytes();

  auto fresh = MakeCatalogedEngine();
  fresh->wal().LoadImage(log_image);
  // First recovery attempt dies at the replay fault point (the in-process
  // stand-in for kill -9 mid-recovery); the second must succeed and land on
  // the identical committed state.
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("recovery/replay", spec);
  EXPECT_FALSE(fresh->Recover().ok());

  auto second = fresh->Recover();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  std::vector<std::string> rows;
  fresh->table(kTable)->Scan([&](const Rid&, Slice row) {
    rows.emplace_back(row.ToString());
    return true;
  });
  std::sort(rows.begin(), rows.end());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "row-1");
  EXPECT_EQ(rows[1], "row-2");
  EXPECT_EQ(fresh->index_tree(kIndex)->size(), 2u);
}

// ===========================================================================
// The crash-point torture matrix on a file-backed WAL (the acceptance bar:
// RunWalCrashTorture stays exact when every cut is verified through real
// files instead of in-memory images).
// ===========================================================================

TEST_F(DurabilityTest, WalCrashTortureExactOnFileBackedWal) {
  TempDir dir;
  int counter = 0;
  auto disk = std::make_shared<storage::PosixFs>();
  auto factory = [&]() -> std::unique_ptr<StorageEngine> {
    const std::string engine_dir = dir.File("engine-" + std::to_string(counter++));
    EXPECT_EQ(mkdir(engine_dir.c_str(), 0755), 0);
    auto engine = MakeCatalogedEngine(disk, engine_dir);
    Status opened = engine->Open();
    EXPECT_TRUE(opened.ok()) << opened.ToString();
    return engine;
  };
  auto workload = [](StorageEngine* engine) -> Status {
    for (int round = 0; round < 5; ++round) {
      uint64_t txn = engine->Begin();
      Rid rid;
      AEDB_ASSIGN_OR_RETURN(
          rid, engine->HeapInsert(txn, kTable, B("r" + std::to_string(round))));
      AEDB_RETURN_IF_ERROR(
          engine->IndexInsert(txn, kIndex, B("k" + std::to_string(round)), rid));
      if (round % 2 == 1) {
        AEDB_RETURN_IF_ERROR(engine->Abort(txn));
      } else {
        AEDB_RETURN_IF_ERROR(engine->Commit(txn));
      }
    }
    uint64_t dangling = engine->Begin();
    return engine->HeapInsert(dangling, kTable, B("in-flight")).status();
  };
  auto report = storage::RunWalCrashTorture(factory, workload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GE(report->crash_points, 15u);
  EXPECT_GE(report->torn_points, 10u);
}

// ===========================================================================
// Database-level durable round trips (data-dir mode)
// ===========================================================================

/// Full-deployment fixture over a durable data dir. The vault (client-side
/// CMK custody) and the seeded attestation identities survive "restarts";
/// everything server-side must come back from disk alone.
class DurableDatabaseTest : public DurabilityTest {
 protected:
  static constexpr const char* kVaultPath = "https://vault.example/keys/cmk1";

  void SetUp() override {
    DurabilityTest::SetUp();
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey(kVaultPath, 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());
    Bytes seed;
    PutU64(&seed, 4242);
    crypto::HmacDrbg drbg(Slice(seed), Slice(std::string_view("aedb-serverd")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
  }

  /// Boots a server process stand-in over the data dir and returns a driver
  /// wired to it. Fresh HGS + enclave per call: a restart loses all enclave
  /// state, exactly like the real daemon.
  void Boot(const std::string& data_dir, uint64_t checkpoint_wal_bytes = 0) {
    driver_.reset();
    db_.reset();
    Bytes seed;
    PutU64(&seed, 4242);
    hgs_ = std::make_unique<attestation::HostGuardianService>(Slice(seed));
    ServerOptions opts;
    opts.data_dir = data_dir;
    opts.checkpoint_wal_bytes = checkpoint_wal_bytes;
    db_ = std::make_unique<Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db_->platform()->tcg_log());
    Status opened = db_->Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    client::DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    driver_ = std::make_unique<client::Driver>(db_.get(), &registry_,
                                               hgs_->signing_public(), dopts);
  }

  void ProvisionAndCreateSchema() {
    ASSERT_TRUE(driver_
                    ->ProvisionCmk("MyCMK", vault_->name(), kVaultPath,
                                   /*enclave_enabled=*/true)
                    .ok());
    ASSERT_TRUE(driver_->ProvisionCek("MyCEK", "MyCMK").ok());
    Status st = driver_->ExecuteDdl(
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
    st = driver_->ExecuteDdl("CREATE INDEX idx_bal ON Account (AcctBal)");
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  void InsertAccount(int id, const std::string& branch, int64_t bal,
                     const std::string& owner) {
    auto r = driver_->Query(
        "INSERT INTO Account (AcctID, Branch, AcctBal, Owner) "
        "VALUES (@id, @branch, @bal, @owner)",
        {{"id", Value::Int32(id)},
         {"branch", Value::String(branch)},
         {"bal", Value::Int64(bal)},
         {"owner", Value::String(owner)}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  /// The secrets every at-rest artifact is scanned for.
  std::vector<std::string> Plaintexts() const {
    return {"Seattle", "Zurich", "SMITH", "BARNES", "WILLOWBY"};
  }

  void LoadAccounts() {
    InsertAccount(1, "Seattle", 100, "SMITH");
    InsertAccount(2, "Zurich", 550, "BARNES");
    InsertAccount(3, "Zurich", 75, "WILLOWBY");
  }

  void ExpectAccountsIntact() {
    auto all = driver_->Query("SELECT AcctID, Branch, Owner FROM Account");
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(all->rows.size(), 3u);
    // DET equality runs on ciphertext; RND range goes through the enclave
    // (forcing key install + deferred-index resolution after a restart).
    auto det = driver_->Query("SELECT AcctID FROM Account WHERE Branch = @b",
                              {{"b", Value::String("Zurich")}});
    ASSERT_TRUE(det.ok()) << det.status().ToString();
    EXPECT_EQ(det->rows.size(), 2u);
    auto range = driver_->Query("SELECT Owner FROM Account WHERE AcctBal > @x",
                                {{"x", Value::Int64(500)}});
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    ASSERT_EQ(range->rows.size(), 1u);
    EXPECT_EQ(range->rows[0][0].str(), "BARNES");
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<client::Driver> driver_;
};

TEST_F(DurableDatabaseTest, CleanShutdownRoundTrip) {
  TempDir dir;
  Boot(dir.path());
  EXPECT_FALSE(db_->recovery_info().clean_shutdown);
  ProvisionAndCreateSchema();
  LoadAccounts();
  Status shut = db_->Shutdown();
  ASSERT_TRUE(shut.ok()) << shut.ToString();
  EXPECT_TRUE(OnDisk(dir.File("clean_shutdown")));
  EXPECT_TRUE(OnDisk(dir.File("checkpoint.db")));

  Boot(dir.path());
  const Database::RecoveryInfo& ri = db_->recovery_info();
  EXPECT_TRUE(ri.ran);
  EXPECT_TRUE(ri.clean_shutdown);
  // The final checkpoint drained the log: nothing to replay.
  EXPECT_EQ(ri.wal_records_replayed, 0u);
  EXPECT_GT(ri.from_checkpoint_lsn, 0u);
  EXPECT_GE(ri.ddl_statements_replayed, 4u);  // CMK, CEK, table, index
  // The marker is consumed: a crash AFTER this boot must not claim clean.
  EXPECT_FALSE(OnDisk(dir.File("clean_shutdown")));
  ExpectAccountsIntact();
}

TEST_F(DurableDatabaseTest, DirtyRestartReplaysWalTail) {
  TempDir dir;
  Boot(dir.path());
  ProvisionAndCreateSchema();
  LoadAccounts();
  // No Shutdown(): tear the process stand-in down with the WAL still full,
  // exactly what kill -9 leaves behind.
  driver_.reset();
  db_.reset();

  Boot(dir.path());
  const Database::RecoveryInfo& ri = db_->recovery_info();
  EXPECT_TRUE(ri.ran);
  EXPECT_FALSE(ri.clean_shutdown);
  EXPECT_GT(ri.wal_records_replayed, 0u);
  EXPECT_EQ(ri.from_checkpoint_lsn, 0u);  // never checkpointed
  ExpectAccountsIntact();

  server::DatabaseStats stats = db_->Stats();
  EXPECT_EQ(stats.wal_records_replayed, ri.wal_records_replayed);
  EXPECT_GT(stats.wal_bytes, 0u);
  EXPECT_GT(stats.fsyncs, 0u);
}

TEST_F(DurableDatabaseTest, CheckpointTruncatesWalAndRestartUsesIt) {
  TempDir dir;
  Boot(dir.path());
  ProvisionAndCreateSchema();
  LoadAccounts();
  const uint64_t wal_before = db_->Stats().wal_bytes;
  ASSERT_GT(wal_before, 0u);
  Status ckpt = db_->Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  EXPECT_EQ(db_->Stats().checkpoints_taken, 1u);
  EXPECT_LT(db_->Stats().wal_bytes, wal_before);
  ASSERT_TRUE(OnDisk(dir.File("checkpoint.db")));

  // More traffic after the checkpoint, then a dirty restart: recovery is
  // checkpoint + tail.
  InsertAccount(9, "Berlin", 900, "POST-CKPT");
  driver_.reset();
  db_.reset();
  Boot(dir.path());
  const Database::RecoveryInfo& ri = db_->recovery_info();
  EXPECT_GT(ri.from_checkpoint_lsn, 0u);
  EXPECT_GT(ri.wal_records_replayed, 0u);
  auto r = driver_->Query("SELECT Owner FROM Account WHERE AcctID = @id",
                          {{"id", Value::Int32(9)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].str(), "POST-CKPT");
  auto all = driver_->Query("SELECT AcctID FROM Account");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->rows.size(), 4u);  // 3 checkpointed + 1 WAL-tail row
  auto range = driver_->Query("SELECT Owner FROM Account WHERE AcctBal > @x",
                              {{"x", Value::Int64(500)}});
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->rows.size(), 2u);  // BARNES (checkpoint) + POST-CKPT (tail)
}

TEST_F(DurableDatabaseTest, CrashDuringCheckpointPublishRecovers) {
  TempDir dir;
  Boot(dir.path());
  ProvisionAndCreateSchema();
  LoadAccounts();
  // The checkpoint dies between the tmp-file fsync and the rename: the
  // publish never happens, the WAL is untouched, and restart replays the
  // full log (plus ignores the stray tmp file).
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("fsio/pre_rename", spec);
  EXPECT_FALSE(db_->Checkpoint().ok());
  driver_.reset();
  db_.reset();

  Boot(dir.path());
  EXPECT_EQ(db_->recovery_info().from_checkpoint_lsn, 0u);
  ExpectAccountsIntact();
}

TEST_F(DurableDatabaseTest, LostCreateIndexCannotLeakIntoALaterIndex) {
  TempDir dir;
  Boot(dir.path());
  ProvisionAndCreateSchema();
  LoadAccounts();
  // The CREATE INDEX executes fully — its build commits WAL records under a
  // fresh index id — but the journal commit marker is never written: the
  // crash window the journal's write-ahead protocol exists for.
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("ddl/pre_commit_marker", spec);
  EXPECT_FALSE(
      driver_->ExecuteDdl("CREATE INDEX idx_branch ON Account (Branch)").ok());
  auto burned = db_->catalog().GetIndex("idx_branch");
  ASSERT_TRUE(burned.ok());  // executed live, just never acked
  const uint32_t burned_id = (*burned)->id;
  driver_.reset();
  db_.reset();

  Boot(dir.path());
  // The unacknowledged index is gone (losing an unacked DDL is legal)...
  EXPECT_FALSE(db_->catalog().GetIndex("idx_branch").ok());
  // ...but its id stays consumed: a later index must not collide with the
  // stale build records still sitting in the WAL.
  EXPECT_GT(db_->catalog().next_index_id(), burned_id);
  Status st = driver_->ExecuteDdl("CREATE INDEX idx_b2 ON Account (Branch)");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto fresh = db_->catalog().GetIndex("idx_b2");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT((*fresh)->id, burned_id);

  // A second dirty restart replays the stale id-N records; they must land
  // nowhere, and the new index must keep answering correctly.
  driver_.reset();
  db_.reset();
  Boot(dir.path());
  ExpectAccountsIntact();
}

TEST_F(DurableDatabaseTest, CommittedDmlAgainstUnmarkedCreateTableRecovers) {
  TempDir dir;
  Boot(dir.path());
  // CREATE TABLE executes but its journal commit marker is lost; committed
  // DML then lands in the WAL referencing the new table id.
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("ddl/pre_commit_marker", spec);
  EXPECT_FALSE(driver_
                   ->ExecuteDdl("CREATE TABLE Audit ("
                                "  Id INT NOT NULL,"
                                "  Note VARCHAR(40))")
                   .ok());
  auto ins = driver_->Query(
      "INSERT INTO Audit (Id, Note) VALUES (@i, @n)",
      {{"i", Value::Int32(1)}, {"n", Value::String("kept")}});
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  driver_.reset();
  db_.reset();

  // Recovery must neither fail Open() on the "unknown" table nor lose the
  // committed row: the write-ahead statement entry re-creates the table.
  Boot(dir.path());
  auto rows = driver_->Query("SELECT Note FROM Audit WHERE Id = @i",
                             {{"i", Value::Int32(1)}});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].str(), "kept");
}

// ddl.log is a Wal, so a torn write poisons it: later DDL is refused until a
// reopen drops the torn tail, while DML, which logs to wal.log, still
// commits. Were DDL acked behind the partial frame, no reopen would read it.
TEST_F(DurableDatabaseTest, TornDdlWritePoisonsTheDdlLog) {
  TempDir dir;
  Boot(dir.path());
  ASSERT_TRUE(driver_->ExecuteDdl("CREATE TABLE A (Id INT)").ok());
  fault::FaultRegistry::Global().Arm(
      "wal/torn_append", fault::FaultSpec::OneShot(Status::Internal("torn")));
  EXPECT_FALSE(driver_->ExecuteDdl("CREATE TABLE B (Id INT)").ok());
  EXPECT_EQ(fault::FaultRegistry::Global().fires("wal/torn_append"), 1u);
  EXPECT_FALSE(db_->catalog().GetTable("B").ok());
  EXPECT_FALSE(driver_->ExecuteDdl("CREATE TABLE C (Id INT)").ok());
  auto ins = driver_->Query("INSERT INTO A (Id) VALUES (@i)",
                            {{"i", Value::Int32(7)}});
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(db_->Stats().wal_file_errors, 1u);
  driver_.reset();
  db_.reset();

  Boot(dir.path());
  EXPECT_GT(db_->Stats().torn_bytes_dropped, 0u);
  auto rows = driver_->Query("SELECT Id FROM A");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].i32(), 7);
  EXPECT_FALSE(db_->catalog().GetTable("B").ok());
  Status created = driver_->ExecuteDdl("CREATE TABLE C (Id INT)");
  EXPECT_TRUE(created.ok()) << created.ToString();
}

TEST_F(DurableDatabaseTest, CrashBetweenPublishAndTruncateRecovers) {
  TempDir dir;
  Boot(dir.path());
  ProvisionAndCreateSchema();
  LoadAccounts();
  // The checkpoint file IS published but the WAL truncation never runs: the
  // log still holds pre-checkpoint records, which recovery must filter by
  // LSN rather than double-apply.
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kOneShot;
  fault::FaultRegistry::Global().Arm("ckpt/pre_truncate", spec);
  EXPECT_FALSE(db_->Checkpoint().ok());
  driver_.reset();
  db_.reset();

  Boot(dir.path());
  EXPECT_GT(db_->recovery_info().from_checkpoint_lsn, 0u);
  ExpectAccountsIntact();
}

TEST_F(DurableDatabaseTest, NoPlaintextAtRestAnywhereInDataDir) {
  TempDir dir;
  Boot(dir.path());
  ProvisionAndCreateSchema();
  LoadAccounts();
  ASSERT_TRUE(db_->Checkpoint().ok());  // put a checkpoint file on disk too
  InsertAccount(4, "Seattle", 25, "SMITH");  // and a fresh WAL tail
  ASSERT_TRUE(db_->Shutdown().ok());

  // The strong adversary reads every byte the server ever fsynced: WAL, DDL
  // journal, checkpoint, markers, AND the buffer pool's page-store spill
  // files. No encrypted column's plaintext may appear in any of them.
  std::vector<std::string> files = dir.Files();
  ASSERT_GE(files.size(), 3u);  // wal.log, ddl.log, checkpoint.db at least
  size_t page_store_files = 0;
  for (const std::string& file : files) {
    if (file.find("/pages/") != std::string::npos) ++page_store_files;
  }
  // The checkpoint flushed the pool, so evicted page images must be on disk —
  // if this is zero the scan is not actually covering the page store.
  EXPECT_GT(page_store_files, 0u);
  size_t scanned = 0;
  for (const std::string& file : files) {
    auto bytes = storage::PosixFs().ReadFile(file);
    ASSERT_TRUE(bytes.ok()) << file << ": " << bytes.status().ToString();
    scanned += bytes->size();
    std::string_view haystack(reinterpret_cast<const char*>(bytes->data()),
                              bytes->size());
    for (const std::string& secret : Plaintexts()) {
      EXPECT_EQ(haystack.find(secret), std::string_view::npos)
          << "plaintext '" << secret << "' visible at rest in " << file;
    }
  }
  EXPECT_GT(scanned, 0u);
}

// ---------------------------------------------------------------------------
// One database's durability gauges and its reopen

/// DatabaseStats::fsyncs counts this database's files, not the process's:
/// two databases side by side each see only their own.
TEST_F(DurabilityTest, EachDatabaseCountsOnlyItsOwnFsyncs) {
  TempDir a_dir, b_dir;
  ServerOptions a_opts;
  a_opts.enable_enclave = false;
  a_opts.data_dir = a_dir.path();
  ServerOptions b_opts = a_opts;
  b_opts.data_dir = b_dir.path();
  Database a(a_opts, nullptr, nullptr);
  Database b(b_opts, nullptr, nullptr);
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());
  ASSERT_TRUE(a.ExecuteDdl("CREATE TABLE T (Id INT)").ok());
  const uint64_t a_before = a.Stats().fsyncs;
  const uint64_t b_before = b.Stats().fsyncs;
  EXPECT_GT(a_before, 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        a.Execute("INSERT INTO T (Id) VALUES (@i)", {Value::Int32(i)}).ok());
  }
  EXPECT_EQ(a.Stats().fsyncs, a_before + 5);  // one per commit
  EXPECT_EQ(b.Stats().fsyncs, b_before) << "b counted a's fsyncs";
}

/// Everything Open() rebuilt, in a comparable form: the catalog (names,
/// ids, columns' encryption), every live row by RID and every index entry.
std::vector<std::string> Fingerprint(Database* db) {
  std::vector<std::string> out;
  const sql::Catalog& catalog = db->catalog();
  out.push_back("next ids " + std::to_string(catalog.next_table_id()) + " " +
                std::to_string(catalog.next_index_id()) + " " +
                std::to_string(catalog.next_cek_id()));
  StorageEngine& engine = db->engine();
  for (uint32_t id : engine.TableIds()) {
    const sql::TableDef* def = catalog.GetTableById(id);
    std::string table = "table " + std::to_string(id) + " " +
                        (def == nullptr ? "?" : def->name);
    for (const sql::ColumnDef& col : def->columns) {
      table += " " + col.name + ":" +
               std::to_string(static_cast<int>(col.enc.kind)) + "/" +
               std::to_string(col.enc.cek_id);
    }
    out.push_back(table);
    EXPECT_TRUE(engine.table(id)
                    ->Scan([&](const Rid& rid, Slice row) {
                      out.push_back("row " + std::to_string(id) + "@" +
                                    std::to_string(rid.Encode()) + " " +
                                    row.ToString());
                      return true;
                    })
                    .ok());
  }
  for (uint32_t id : engine.IndexIds()) {
    const sql::IndexDef* def = catalog.GetIndexById(id);
    out.push_back("index " + std::to_string(id) + " " +
                  (def == nullptr ? "?" : def->name) + " on " +
                  std::to_string(def == nullptr ? 0 : def->table_id));
    for (BTree::Iterator it = engine.index_tree(id)->Begin(); it.Valid();
         it.Next()) {
      auto key = it.key();
      EXPECT_TRUE(key.ok());
      out.push_back("entry " + std::to_string(id) + " " +
                    Slice(key.ok() ? *key : Bytes()).ToString() + "@" +
                    std::to_string(it.rid().Encode()));
    }
  }
  return out;
}

/// Restart() is a reopen: what it rebuilds — the catalog replayed from
/// ddl.log, rows and index entries from the WAL — is exactly what a fresh
/// Database opened over the same disk rebuilds.
TEST_F(DurabilityTest, RestartRecoversWhatAFreshOpenRecovers) {
  auto fs = std::make_shared<storage::SimFs>();
  ServerOptions opts;
  opts.enable_enclave = false;
  std::vector<std::string> restarted;
  {
    Database db(opts, nullptr, nullptr, fs);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(
        db.ExecuteDdl("CREATE TABLE T (Id INT NOT NULL, Name VARCHAR(20))")
            .ok());
    ASSERT_TRUE(db.ExecuteDdl("CREATE INDEX idx_name ON T (Name)").ok());
    ASSERT_TRUE(db.ExecuteDdl("CREATE TABLE U (V INT)").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO T (Id, Name) VALUES (@i, @n)",
                             {Value::Int32(i),
                              Value::String("n" + std::to_string(i % 4))})
                      .ok());
    }
    ASSERT_TRUE(db.Execute("DELETE FROM T WHERE Id = @i", {Value::Int32(3)})
                    .ok());
    // A loser in flight at the crash: both opens must undo it.
    uint64_t txn = db.BeginTransaction();
    ASSERT_TRUE(db.Execute("INSERT INTO T (Id, Name) VALUES (@i, @n)",
                           {Value::Int32(99), Value::String("loser")}, txn)
                    .ok());
    const std::vector<std::string> before = Fingerprint(&db);

    auto recovered = db.Restart();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->undone, 2u);  // the loser's heap and index insert
    EXPECT_EQ(db.recovery_info().ddl_statements_replayed, 3u);
    restarted = Fingerprint(&db);
    EXPECT_NE(restarted, before);  // the loser is gone
    ASSERT_TRUE(db.Execute("SELECT Id FROM T WHERE Name = @n",
                           {Value::String("n1")})
                    .ok());
  }
  Database fresh(opts, nullptr, nullptr, fs);
  ASSERT_TRUE(fresh.Open().ok());
  EXPECT_EQ(fresh.recovery_info().ddl_statements_replayed, 3u);
  EXPECT_EQ(Fingerprint(&fresh), restarted);
}

// ---------------------------------------------------------------------------
// Sharded durability: shard i persists under <root>/shard-<i> with its OWN
// wal.log / ddl.log / checkpoint.db, recovered independently of its peers.

class ShardedDurabilityTest : public DurabilityTest {
 protected:
  void SetUp() override {
    DurabilityTest::SetUp();
    Bytes seed;
    PutU64(&seed, 4242);
    crypto::HmacDrbg drbg(Slice(seed), Slice(std::string_view("aedb-serverd")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
  }

  /// Boots a sharded server stand-in over `dir` — fresh HGS + enclaves per
  /// call, exactly like a process restart.
  void Boot(const std::string& dir, uint32_t shards) {
    driver_.reset();
    sharded_.reset();
    Bytes seed;
    PutU64(&seed, 4242);
    hgs_ = std::make_unique<attestation::HostGuardianService>(Slice(seed));
    server::ShardedOptions opts;
    opts.shards = shards;
    opts.base.data_dir = dir;
    sharded_ = std::make_unique<server::ShardedDatabase>(std::move(opts),
                                                         hgs_.get(), &image_);
    for (uint32_t i = 0; i < shards; ++i) {
      hgs_->RegisterTcgLog(sharded_->shard(i)->platform()->tcg_log());
    }
    Status opened = sharded_->Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    client::DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    driver_ = std::make_unique<client::Driver>(sharded_.get(), &registry_,
                                               hgs_->signing_public(), dopts);
  }

  void InsertWarehouseRow(int w, int val) {
    auto r = driver_->Query("INSERT INTO Ledger (W_ID, VAL) VALUES (@w, @v)",
                            {{"w", Value::Int32(w)}, {"v", Value::Int32(val)}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<server::ShardedDatabase> sharded_;
  std::unique_ptr<client::Driver> driver_;
};

// Every shard gets its own WAL on disk; a crashing shard replays ONLY its
// own log, and a whole-process dirty restart recovers all of them.
TEST_F(ShardedDurabilityTest, CrashingShardReplaysOnlyItsOwnLog) {
  TempDir dir;
  Boot(dir.path(), 2);
  ASSERT_TRUE(
      driver_->ExecuteDdl("CREATE TABLE Ledger (W_ID INT, VAL INT)").ok());
  InsertWarehouseRow(1, 10);  // shard 0: one row
  for (int i = 0; i < 6; ++i) InsertWarehouseRow(2, i);  // shard 1: six rows

  // Shared-nothing on disk: one wal.log (and ddl.log) per shard directory.
  for (int s = 0; s < 2; ++s) {
    std::string base = dir.path() + "/shard-" + std::to_string(s);
    EXPECT_TRUE(OnDisk(base + "/wal.log")) << base;
    EXPECT_TRUE(OnDisk(base + "/ddl.log")) << base;
  }

  // Crash+recover shard 1: its replay is sized by its OWN log — the six
  // shard-1 inserts, not shard 0's single row.
  auto rec1 = sharded_->RestartShard(1);
  ASSERT_TRUE(rec1.ok()) << rec1.status().ToString();
  auto rec0 = sharded_->RestartShard(0);
  ASSERT_TRUE(rec0.ok()) << rec0.status().ToString();
  EXPECT_GT(rec1->redone, rec0->redone)
      << "shard 1's recovery did not replay shard-1-sized history";

  // Whole-process dirty restart (no Shutdown): every shard replays its WAL.
  driver_.reset();
  sharded_.reset();
  Boot(dir.path(), 2);
  const server::RecoveryInfo& ri = sharded_->recovery_info();
  EXPECT_TRUE(ri.ran);
  EXPECT_FALSE(ri.clean_shutdown);
  EXPECT_GT(ri.wal_records_replayed, 0u);
  auto count = driver_->Query("SELECT COUNT(*) FROM Ledger");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].i64(), 7);
  auto s1 = sharded_->shard(1)->Execute("SELECT COUNT(*) FROM Ledger", {});
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->rows[0][0].i64(), 6) << "shard 1 lost rows across restart";
}

// Checkpointing one shard truncates that shard's WAL only; the next restart
// recovers shard 0 from its checkpoint and shard 1 from its full log.
TEST_F(ShardedDurabilityTest, PerShardCheckpointsAreIndependent) {
  TempDir dir;
  Boot(dir.path(), 2);
  ASSERT_TRUE(
      driver_->ExecuteDdl("CREATE TABLE Ledger (W_ID INT, VAL INT)").ok());
  for (int i = 0; i < 4; ++i) {
    InsertWarehouseRow(1, i);
    InsertWarehouseRow(2, i);
  }
  Status ckpt = sharded_->shard(0)->Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  EXPECT_TRUE(
      OnDisk(dir.path() + "/shard-0/checkpoint.db"));
  EXPECT_FALSE(
      OnDisk(dir.path() + "/shard-1/checkpoint.db"))
      << "checkpointing shard 0 leaked a checkpoint onto shard 1";

  driver_.reset();
  sharded_.reset();
  Boot(dir.path(), 2);
  EXPECT_GT(sharded_->shard(0)->recovery_info().from_checkpoint_lsn, 0u);
  EXPECT_EQ(sharded_->shard(1)->recovery_info().from_checkpoint_lsn, 0u);
  EXPECT_GT(sharded_->shard(1)->recovery_info().wal_records_replayed,
            sharded_->shard(0)->recovery_info().wal_records_replayed)
      << "shard 0 should replay only its post-checkpoint tail";
  auto count = driver_->Query("SELECT COUNT(*) FROM Ledger");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].i64(), 8);
}

}  // namespace
}  // namespace aedb
