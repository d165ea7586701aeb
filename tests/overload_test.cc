// End-to-end deadlines, cancellation and overload control (the robustness
// PR's test surface):
//
//   - lock waits bounded by the query deadline, not the global lock_timeout,
//   - the enclave worker pool shedding expired morsels without paying
//     transitions, and rejecting typed when its queue is full,
//   - the Database admission gate (typed kOverloaded + retry-after hint),
//   - deadline propagation over the wire protocol,
//   - connection-cap rejection and stalled-client eviction in net::Server,
//   - a 4x-overload stress run proving graceful degradation: goodput holds,
//     every shed query is typed, and no wrong results escape.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "common/query_context.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "enclave/worker_pool.h"
#include "fault/fault.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "server/database.h"
#include "storage/lock_manager.h"

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using types::TypeId;
using types::Value;
using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ===========================================================================
// Lock manager: deadline-aware waits
// ===========================================================================

TEST(LockDeadline, NearExpiredDeadlineReturnsWithinBudgetNotLockTimeout) {
  storage::LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, 77, std::chrono::milliseconds(0)).ok());

  // Waiter carries a 50 ms budget against a 5 s lock timeout: it must give
  // up when the *query* deadline passes, typed kDeadlineExceeded.
  QueryContext q = QueryContext::WithDeadlineAfter(std::chrono::milliseconds(50));
  auto t0 = Clock::now();
  Status st = locks.Acquire(2, 77, std::chrono::milliseconds(5000), &q);
  double elapsed = ElapsedMs(t0);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_LT(elapsed, 2000.0) << "waiter slept past its deadline budget";
  EXPECT_EQ(locks.waits_expired(), 1u);
}

TEST(LockDeadline, CancelledQueryNeverEntersTheWait) {
  storage::LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, 5, std::chrono::milliseconds(0)).ok());
  QueryContext q;
  q.Cancel();
  auto t0 = Clock::now();
  Status st = locks.Acquire(2, 5, std::chrono::milliseconds(5000), &q);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_LT(ElapsedMs(t0), 1000.0);
  EXPECT_EQ(locks.waits_expired(), 1u);
}

TEST(LockDeadline, CancelWakesWaiterLongBeforeLockTimeout) {
  storage::LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, 42, std::chrono::milliseconds(0)).ok());
  // No deadline: only Cancel() can end this wait early. Cancel() just flips
  // an atomic — the lock manager must observe it promptly on its own instead
  // of sleeping out the full 10 s timeout.
  QueryContext q;
  Status st;
  auto t0 = Clock::now();
  std::thread waiter([&] {
    st = locks.Acquire(2, 42, std::chrono::milliseconds(10000), &q);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  q.Cancel();
  waiter.join();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_LT(ElapsedMs(t0), 2000.0) << "Cancel() did not wake the lock wait";
  EXPECT_EQ(locks.waits_expired(), 1u);
}

TEST(LockDeadline, NoContextKeepsTimeoutTaxonomy) {
  storage::LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, 9, std::chrono::milliseconds(0)).ok());
  // Without a query context the old contract holds: FailedPrecondition
  // (possible deadlock), the signal TPC-C treats as ordinary contention.
  Status st = locks.Acquire(2, 9, std::chrono::milliseconds(20));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(locks.waits_expired(), 0u);
}

// ===========================================================================
// Enclave worker pool: bounded queue + expired-morsel shedding
// ===========================================================================

class PoolOverloadTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kCekId = 7;

  void SetUp() override {
    fault::FaultRegistry::Global().Reset();
    crypto::HmacDrbg author_drbg(crypto::SecureRandom(48),
                                 Slice(std::string_view("pool-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &author_drbg);
    platform_ = std::make_unique<enclave::VbsPlatform>("known-good-boot", 2);
    image_ = enclave::EnclaveImage::MakeEsImage(3, author_key_);
    auto loaded = platform_->LoadEnclave(image_, enclave::EnclaveConfig{});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    enclave_ = std::move(loaded).value();
    cek_ = crypto::SecureRandom(32);

    // Driver side: session + CEK install so registered programs can eval.
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("pool-client-dh")));
    client_dh_ = crypto::GenerateDhKeyPair(&drbg);
    auto resp = enclave_->CreateSession(crypto::DhPublicKeyBytes(client_dh_));
    ASSERT_TRUE(resp.ok());
    session_id_ = resp->session_id;
    auto secret = crypto::DhComputeSharedSecret(client_dh_.private_key,
                                                resp->enclave_dh_public);
    ASSERT_TRUE(secret.ok());
    channel_ = std::make_unique<crypto::CellCodec>(*secret);
    Bytes plain;
    PutU64(&plain, 0);
    PutU32(&plain, 1);
    PutU32(&plain, kCekId);
    PutLengthPrefixed(&plain, cek_);
    ASSERT_TRUE(enclave_
                    ->InstallCeks(session_id_, 0,
                                  channel_->Encrypt(
                                      plain,
                                      crypto::EncryptionScheme::kRandomized))
                    .ok());

    es::EsProgram p;
    p.GetData(0, TypeId::kInt64, Rnd());
    p.GetData(1, TypeId::kInt64, Rnd());
    p.Comp(es::CompareOp::kLt);
    p.SetData(0, TypeId::kBool);
    auto handle = enclave_->RegisterExpression(p.Serialize());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handle_ = *handle;
  }

  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }

  types::EncryptionType Rnd() {
    return types::EncryptionType::Encrypted(types::EncKind::kRandomized,
                                            kCekId, true);
  }
  Bytes Cell(const Value& v) {
    crypto::CellCodec codec(cek_);
    return codec.Encrypt(v.Encode(), crypto::EncryptionScheme::kRandomized);
  }
  /// A morsel of one row that owns its cells: a pool item views them while
  /// the submission waits.
  struct RowMorsel {
    es::Columns columns;
    operator es::Morsel() const { return es::Morsel::Of(1, columns); }
  };
  RowMorsel Inputs(int64_t a, int64_t b) {
    return {{{Value::Binary(Cell(Value::Int64(a)))},
             {Value::Binary(Cell(Value::Int64(b)))}}};
  }

  crypto::RsaPrivateKey author_key_;
  std::unique_ptr<enclave::VbsPlatform> platform_;
  enclave::EnclaveImage image_;
  std::unique_ptr<enclave::Enclave> enclave_;
  Bytes cek_;
  crypto::DhKeyPair client_dh_;
  std::unique_ptr<crypto::CellCodec> channel_;
  uint64_t session_id_ = 0;
  uint64_t handle_ = 0;
};

TEST_F(PoolOverloadTest, ExpiredMorselDroppedWithoutEnclaveTransition) {
  enclave::EnclaveWorkerPool::Options opts;
  opts.num_threads = 1;
  opts.spin_duration_us = 0;  // sleep immediately once the queue drains
  enclave::EnclaveWorkerPool pool(enclave_.get(), opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // worker asleep

  uint64_t wakeups0 = pool.wakeups();
  uint64_t evals0 = enclave_->stats().evals.load();
  // Deadline already in the past: the sleeping worker must shed it *before*
  // re-entering the enclave (it is outside while asleep), so no transition
  // and no eval are ever paid for this morsel.
  auto r = pool.SubmitEvalBatch(handle_, Inputs(1, 2), 0, {},
                                Clock::now() - std::chrono::milliseconds(1));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_EQ(pool.expired_dropped(), 1u);
  EXPECT_EQ(pool.wakeups(), wakeups0) << "expired morsel paid a transition";
  EXPECT_EQ(enclave_->stats().evals.load(), evals0);

  // A live morsel afterwards still evaluates (the pool is healthy).
  auto ok = pool.SubmitEvalBatch(handle_, Inputs(1, 2));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE((*ok)[0][0].bool_v());
}

TEST_F(PoolOverloadTest, FullQueueRejectsTypedOverloaded) {
  enclave::EnclaveWorkerPool::Options opts;
  opts.num_threads = 1;
  opts.spin_duration_us = 0;
  opts.max_queue_depth = 2;
  enclave::EnclaveWorkerPool pool(enclave_.get(), opts);

  // Stall the single worker inside the enclave so submissions back up.
  fault::FaultSpec stall = fault::FaultSpec::Always(Status::OK());
  stall.arg = 200;  // ms per item
  fault::ScopedFault scoped("pool/worker_stall", stall);

  std::vector<std::thread> waiters;
  std::atomic<int> ok_count{0};
  // First submission is picked up by the (stalling) worker; two more fill
  // the bounded queue.
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      auto r = pool.SubmitEvalBatch(handle_, Inputs(1, 2));
      if (r.ok()) ok_count.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Queue is now full: this submission must be rejected immediately, typed.
  auto t0 = Clock::now();
  auto r = pool.SubmitEvalBatch(handle_, Inputs(3, 4));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  EXPECT_LT(ElapsedMs(t0), 150.0) << "rejection was not fail-fast";
  EXPECT_GE(pool.overload_rejected(), 1u);
  EXPECT_EQ(pool.queue_highwater(), 2u);

  for (auto& w : waiters) w.join();
  EXPECT_EQ(ok_count.load(), 3) << "queued work was lost, not just delayed";
}

TEST_F(PoolOverloadTest, ShedOldestExpiredMakesRoomWhenFull) {
  enclave::EnclaveWorkerPool::Options opts;
  opts.num_threads = 1;
  opts.spin_duration_us = 0;
  opts.max_queue_depth = 1;
  enclave::EnclaveWorkerPool pool(enclave_.get(), opts);

  fault::FaultSpec stall = fault::FaultSpec::Always(Status::OK());
  stall.arg = 250;
  fault::ScopedFault scoped("pool/worker_stall", stall);

  // Item A occupies the worker; item B (tiny budget) fills the queue and
  // expires while waiting.
  std::thread a([&] { (void)pool.SubmitEvalBatch(handle_, Inputs(1, 2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status b_status;
  std::thread b([&] {
    auto r = pool.SubmitEvalBatch(handle_, Inputs(1, 2), 0, {},
                                  Clock::now() + std::chrono::milliseconds(5));
    b_status = r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Queue is full (B) but B has expired: shed-oldest-expired makes room and
  // C is accepted instead of rejected.
  auto c = pool.SubmitEvalBatch(handle_, Inputs(1, 2));
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  a.join();
  b.join();
  EXPECT_TRUE(b_status.IsDeadlineExceeded()) << b_status.ToString();
  EXPECT_GE(pool.expired_dropped(), 1u);
}

// ===========================================================================
// Database: admission gate, deadline stamping
// ===========================================================================

class DbOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().Reset();
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("overload-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();
  }

  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }

  std::unique_ptr<server::Database> MakeDb(server::ServerOptions opts) {
    auto db = std::make_unique<server::Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db->platform()->tcg_log());
    return db;
  }

  static void LoadSmallTable(server::Database* db, int rows) {
    ASSERT_TRUE(
        db->ExecuteDdl("CREATE TABLE T (a INT NOT NULL, b INT)").ok());
    ASSERT_TRUE(db->ExecuteDdl("CREATE INDEX T_A ON T (a)").ok());
    for (int i = 0; i < rows; ++i) {
      auto r = db->Execute("INSERT INTO T (a, b) VALUES (@a, @b)",
                           {Value::Int32(i), Value::Int32(2 * i)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
};

TEST_F(DbOverloadTest, AdmissionRejectFaultPointCarriesRetryAfterHint) {
  server::ServerOptions opts;
  opts.overload_retry_after_ms = 35;
  auto db = MakeDb(opts);
  LoadSmallTable(db.get(), 3);

  fault::ScopedFault scoped("server/admission_reject",
                            fault::FaultSpec::OneShot(Status::OK()));
  auto r = db->Execute("SELECT b FROM T WHERE a = @a", {Value::Int32(1)});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  EXPECT_EQ(RetryAfterMsFromMessage(r.status().message()), 35u)
      << r.status().message();
  EXPECT_EQ(db->Stats().queries_rejected, 1u);

  // One-shot: the next query is admitted normally.
  auto ok = db->Execute("SELECT b FROM T WHERE a = @a", {Value::Int32(1)});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows[0][0].i32(), 2);
}

TEST_F(DbOverloadTest, NamedAdmissionRejectsBeforeParseAndBind) {
  auto db = MakeDb(server::ServerOptions{});
  // Deliberately unparseable text: if the admission gate runs first (as it
  // must — a shed query should cost no parser/binder work), the reject wins
  // over the parse error.
  {
    fault::ScopedFault scoped("server/admission_reject",
                              fault::FaultSpec::OneShot(Status::OK()));
    auto r = db->ExecuteNamed("THIS IS NOT SQL", {});
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
    EXPECT_EQ(db->Stats().queries_rejected, 1u);
  }
  // Un-shed, the same text reaches the parser and fails on its own merits.
  auto r = db->ExecuteNamed("THIS IS NOT SQL", {});
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.status().IsOverloaded()) << r.status().ToString();
}

TEST_F(DbOverloadTest, AdmissionGateBoundsInflightQueries) {
  server::ServerOptions opts;
  opts.max_inflight_queries = 1;
  opts.simulated_network_us = 150'000;  // each query in flight >= 150 ms
  auto db = MakeDb(opts);
  {
    // Setup runs before the clock matters; the simulated network just makes
    // these slow, not wrong.
    auto r = db->ExecuteDdl("CREATE TABLE T (a INT NOT NULL, b INT)");
    ASSERT_TRUE(r.ok());
    auto ins = db->Execute("INSERT INTO T (a, b) VALUES (1, 2)", {});
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  }

  std::thread busy([&] {
    auto r = db->Execute("SELECT b FROM T WHERE a = 1", {});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // The gate sees one query already in flight: reject fast, typed, hinted.
  auto t0 = Clock::now();
  auto r = db->Execute("SELECT b FROM T WHERE a = 1", {});
  double elapsed = ElapsedMs(t0);
  busy.join();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  EXPECT_GT(RetryAfterMsFromMessage(r.status().message()), 0u);
  EXPECT_LT(elapsed, 100.0) << "rejection paid the simulated network";
  auto stats = db->Stats();
  EXPECT_EQ(stats.queries_rejected, 1u);
  EXPECT_GE(stats.queries_admitted, 1u);
}

TEST_F(DbOverloadTest, DeadlineConsumedByNetworkExpiresBeforeExecution) {
  server::ServerOptions opts;
  opts.simulated_network_us = 20'000;  // 20 ms round trip
  auto db = MakeDb(opts);
  LoadSmallTable(db.get(), 2);

  uint64_t transitions0 = db->Stats().enclave_transitions;
  auto r = db->Execute("SELECT b FROM T WHERE a = @a", {Value::Int32(1)},
                       /*txn=*/0, /*session_id=*/0, /*deadline_ms=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  auto stats = db->Stats();
  EXPECT_GE(stats.queries_expired, 1u);
  // The budget died in the (simulated) network: execution never started and
  // the enclave was never entered for this query.
  EXPECT_EQ(stats.enclave_transitions, transitions0);
}

TEST_F(DbOverloadTest, LockWaitBoundedByQueryDeadlineEndToEnd) {
  server::ServerOptions opts;
  opts.engine.lock_timeout = std::chrono::milliseconds(5000);
  auto db = MakeDb(opts);
  LoadSmallTable(db.get(), 3);

  uint64_t txn = db->BeginTransaction();
  auto hold = db->Execute("UPDATE T SET b = 9 WHERE a = 1", {}, txn);
  ASSERT_TRUE(hold.ok()) << hold.status().ToString();

  // Autocommit writer with a 100 ms budget against a 5 s lock timeout.
  auto t0 = Clock::now();
  auto r = db->Execute("UPDATE T SET b = 8 WHERE a = 1", {}, /*txn=*/0,
                       /*session_id=*/0, /*deadline_ms=*/100);
  double elapsed = ElapsedMs(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_LT(elapsed, 2500.0) << "lock wait ignored the query deadline";
  auto stats = db->Stats();
  EXPECT_GE(stats.lock_waits_expired, 1u);
  EXPECT_GE(stats.queries_expired, 1u);
  ASSERT_TRUE(db->RollbackTransaction(txn).ok());
  // The row is untouched by the expired writer.
  auto check = db->Execute("SELECT b FROM T WHERE a = 1", {});
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].i32(), 2);
}

// ===========================================================================
// Mid-statement pool overload vs. transaction integrity
// ===========================================================================

/// Full AE deployment (vault, CMK/CEK, enclave worker pool). The
/// executor/write_shed fault point models overload striking *between* the
/// rows of one write statement — after earlier rows are applied — while
/// pool/queue_full models the pre-write shed of a predicate morsel, where
/// nothing has been applied yet. The pair proves the server's partial-write
/// distinction.
class EncryptedTxnOverloadTest : public ::testing::Test {
 protected:
  static constexpr const char* kVaultPath = "kv/txn-overload";

  void SetUp() override {
    fault::FaultRegistry::Global().Reset();
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey(kVaultPath, 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());

    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("txn-overload-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();

    server::ServerOptions opts;
    opts.enclave_worker_threads = 1;  // expression eval rides the pool
    db_ = std::make_unique<server::Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db_->platform()->tcg_log());

    client::DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    dopts.retry.base_backoff = std::chrono::milliseconds(0);
    dopts.retry.max_backoff = std::chrono::milliseconds(0);
    driver_ = std::make_unique<Driver>(db_.get(), &registry_,
                                       hgs_->signing_public(), dopts);

    ASSERT_TRUE(driver_
                    ->ProvisionCmk("CMK", vault_->name(), kVaultPath,
                                   /*enclave_enabled=*/true)
                    .ok());
    ASSERT_TRUE(driver_->ProvisionCek("CEK", "CMK").ok());
    Status st = driver_->ExecuteDdl(
        "CREATE TABLE Acct (id INT NOT NULL, cnt BIGINT, hot BOOL,"
        "  bal BIGINT ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK,"
        "    ENCRYPTION_TYPE = Randomized,"
        "    ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))");
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 1; i <= 3; ++i) {
      auto r = driver_->Query(
          "INSERT INTO Acct (id, cnt, hot, bal) VALUES (@i, @c, @h, @b)",
          {{"i", Value::Int32(i)},
           {"c", Value::Int64(0)},
           {"h", Value::Bool(false)},
           {"b", Value::Int64(100 * i)}});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }

  int64_t Count(int id) {
    auto r = driver_->Query("SELECT cnt FROM Acct WHERE id = @i",
                            {{"i", Value::Int32(id)}});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->rows.size() != 1) return -1;
    return r->rows[0][0].i64();
  }

  /// Arms executor/write_shed to let row 1 of a write loop through and shed
  /// at the row-2 boundary: row 1 is already applied when the statement dies
  /// with the same kOverloaded the pool emits when its queue is full.
  static void ArmMidStatementShed() {
    fault::FaultSpec spec = fault::FaultSpec::OneShot(
        Status::Overloaded("enclave worker queue full (injected)"));
    spec.skip = 1;
    fault::FaultRegistry::Global().Arm("executor/write_shed", spec);
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<server::Database> db_;
  std::unique_ptr<Driver> driver_;
};

TEST_F(EncryptedTxnOverloadTest,
       MidStatementOverloadInExplicitTxnAbortsInsteadOfReplaying) {
  uint64_t txn = driver_->Begin();
  ArmMidStatementShed();
  // Non-idempotent write: `cnt = cnt + 1` over all 3 rows. Shedding at the
  // row-2 boundary leaves row 1 already incremented inside the open
  // transaction; a silent replay would push row 1's cnt to 2. The server
  // must convert the mid-statement kOverloaded into kTransactionAborted so
  // the retry layer (which treats kOverloaded as provably-without-effect)
  // never replays it.
  auto r = driver_->Query("UPDATE Acct SET cnt = cnt + 1", {}, txn);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTransactionAborted()) << r.status().ToString();
  EXPECT_EQ(fault::FaultRegistry::Global().fires("executor/write_shed"), 1u);
  EXPECT_EQ(driver_->retries(), 0) << "partial write was silently replayed";
  (void)driver_->Rollback(txn);  // server already aborted; app-level cleanup

  // The application contract: restart the transaction, it applies once.
  uint64_t txn2 = driver_->Begin();
  auto r2 = driver_->Query("UPDATE Acct SET cnt = cnt + 1", {}, txn2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_TRUE(driver_->Commit(txn2).ok());
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(Count(i), 1) << "double/zero apply on row " << i;
  }
}

TEST_F(EncryptedTxnOverloadTest, AutocommitMidStatementOverloadReplaysCleanly) {
  ArmMidStatementShed();
  // Autocommit: the server aborts its internal transaction, so the partial
  // first attempt leaves no trace and the driver's transparent backoff-retry
  // of kOverloaded is safe — the statement lands exactly once.
  auto r = driver_->Query("UPDATE Acct SET cnt = cnt + 1", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(driver_->retries(), 1);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(Count(i), 1) << "double/zero apply on row " << i;
  }
}

TEST_F(EncryptedTxnOverloadTest, PreWriteShedInExplicitTxnReplaysSafely) {
  uint64_t txn = driver_->Begin();
  // The complementary case: the pool rejects the encrypted WHERE predicate's
  // morsel BEFORE the write loop touches any row. No op was logged, so the
  // server lets kOverloaded pass through and the driver replays it
  // transparently — even inside the explicit transaction.
  fault::FaultRegistry::Global().Arm(
      "pool/queue_full", fault::FaultSpec::OneShot(Status::OK()));
  auto r = driver_->Query("UPDATE Acct SET cnt = cnt + 1 WHERE bal > @min",
                          {{"min", Value::Int64(150)}}, txn);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(fault::FaultRegistry::Global().fires("pool/queue_full"), 1u);
  EXPECT_GE(driver_->retries(), 1) << "pre-write shed should replay, not fail";
  ASSERT_TRUE(driver_->Commit(txn).ok());
  EXPECT_EQ(Count(1), 0);  // bal=100, predicate false
  EXPECT_EQ(Count(2), 1);  // bal=200
  EXPECT_EQ(Count(3), 1);  // bal=300
}

// ===========================================================================
// Net server: connection caps, wire deadlines, stalled clients
// ===========================================================================

class NetOverloadTest : public DbOverloadTest {
 protected:
  void TearDown() override {
    if (server_) server_->Stop();
    DbOverloadTest::TearDown();
  }

  void StartServer(server::Database* db, net::ServerConfig config) {
    server_ = std::make_unique<net::Server>(db, config);
    ASSERT_TRUE(server_->Start().ok());
  }

  Result<std::unique_ptr<net::SocketTransport>> ConnectTransport() {
    net::SocketTransport::Options topts;
    topts.port = server_->port();
    topts.timeout_ms = 5000;
    return net::SocketTransport::Connect(topts);
  }

  std::unique_ptr<Driver> MakeSocketDriver(uint32_t deadline_ms = 0) {
    auto transport = ConnectTransport();
    if (!transport.ok()) return nullptr;
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    dopts.deadline_ms = deadline_ms;
    return std::make_unique<Driver>(std::move(transport).value(), &registry_,
                                    hgs_->signing_public(), dopts);
  }

  keys::KeyProviderRegistry registry_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(NetOverloadTest, MaxConnectionsRejectsTypedAndRecovers) {
  auto db = MakeDb(server::ServerOptions{});
  LoadSmallTable(db.get(), 2);
  net::ServerConfig config;
  config.max_connections = 2;
  config.overload_retry_after_ms = 15;
  StartServer(db.get(), config);

  auto t1 = ConnectTransport();
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  auto t2 = ConnectTransport();
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();

  // Connection 3 is over the cap: the server answers a typed kOverloaded
  // error frame (with a retry-after hint) instead of silently accepting.
  auto t3 = ConnectTransport();
  ASSERT_FALSE(t3.ok());
  EXPECT_TRUE(t3.status().IsOverloaded()) << t3.status().ToString();
  EXPECT_EQ(RetryAfterMsFromMessage(t3.status().message()), 15u);
  EXPECT_EQ(server_->stats().connections_rejected.load(), 1u);
  EXPECT_TRUE((*t1)->Ping().ok());  // existing sessions unaffected

  // Capacity freed: dropping one connection lets a new one in (possibly
  // after a short retry while the server notices the close).
  (*t2).reset();
  bool reconnected = false;
  for (int i = 0; i < 50 && !reconnected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto t4 = ConnectTransport();
    reconnected = t4.ok();
  }
  EXPECT_TRUE(reconnected) << "cap never released after a disconnect";
}

TEST_F(NetOverloadTest, AcceptRejectFaultPoint) {
  auto db = MakeDb(server::ServerOptions{});
  StartServer(db.get(), net::ServerConfig{});
  {
    fault::ScopedFault scoped("net/accept_reject",
                              fault::FaultSpec::OneShot(Status::OK()));
    auto t = ConnectTransport();
    ASSERT_FALSE(t.ok());
    EXPECT_TRUE(t.status().IsOverloaded()) << t.status().ToString();
  }
  auto t = ConnectTransport();
  EXPECT_TRUE(t.ok()) << t.status().ToString();
}

TEST_F(NetOverloadTest, WireDeadlineBoundsLockWaitAcrossTheSocket) {
  server::ServerOptions opts;
  opts.engine.lock_timeout = std::chrono::milliseconds(5000);
  auto db = MakeDb(opts);
  LoadSmallTable(db.get(), 3);
  StartServer(db.get(), net::ServerConfig{});

  // An in-process transaction pins the row; the socket client's 200 ms
  // budget must ride the Query frame and cut the server-side lock wait.
  uint64_t txn = db->BeginTransaction();
  auto hold = db->Execute("UPDATE T SET b = 9 WHERE a = 1", {}, txn);
  ASSERT_TRUE(hold.ok()) << hold.status().ToString();

  auto driver = MakeSocketDriver(/*deadline_ms=*/200);
  ASSERT_NE(driver, nullptr);
  auto t0 = Clock::now();
  auto r = driver->Query("UPDATE T SET b = 8 WHERE a = 1");
  double elapsed = ElapsedMs(t0);
  ASSERT_FALSE(r.ok());
  // kDeadlineExceeded is never replayed: exactly one attempt, typed return.
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_LT(elapsed, 2500.0) << "wire deadline did not bound the lock wait";
  EXPECT_GE(db->Stats().lock_waits_expired, 1u);
  ASSERT_TRUE(db->RollbackTransaction(txn).ok());
}

/// Minimal raw TCP client for byte-level misbehaviour.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval tv{8, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(Slice data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t w =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  /// Drains until the server closes the stream; false on recv timeout.
  bool DrainToEof() {
    uint8_t buf[256];
    for (;;) {
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) return true;
      if (r < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST_F(NetOverloadTest, StalledClientEvictedWhileOthersProgress) {
  auto db = MakeDb(server::ServerOptions{});
  LoadSmallTable(db.get(), 2);
  net::ServerConfig config;
  config.read_timeout_ms = 500;
  StartServer(db.get(), config);

  // The stalled client: a valid handshake, then a frame header promising 64
  // payload bytes that never arrive. Its worker must not be held past
  // read_timeout_ms.
  RawConn stalled(server_->port());
  ASSERT_TRUE(stalled.connected());
  net::HandshakeReq hs;
  ASSERT_TRUE(
      stalled.Send(net::EncodeFrame(net::MsgType::kHandshake, hs.Encode())));
  Bytes partial = net::EncodeFrame(net::MsgType::kPing, Bytes(64));
  partial.resize(net::kFrameHeaderSize + 10);  // header + 10 of 64 bytes
  ASSERT_TRUE(stalled.Send(partial));

  // Healthy sessions keep executing while the stall is pending.
  auto driver = MakeSocketDriver();
  ASSERT_NE(driver, nullptr);
  int ok = 0;
  auto t0 = Clock::now();
  while (ElapsedMs(t0) < 700.0) {
    auto r = driver->Query("SELECT b FROM T WHERE a = @a",
                           {{"a", Value::Int32(1)}});
    if (r.ok()) ++ok;
  }
  EXPECT_GT(ok, 10) << "healthy session starved behind a stalled client";

  // The stalled connection is closed once its read times out (handshake ack
  // is drained here too; EOF is what matters).
  EXPECT_TRUE(stalled.DrainToEof()) << "stalled client still holds a worker";
}

TEST_F(NetOverloadTest, StreamingRejectedClientDoesNotStallAdmission) {
  auto db = MakeDb(server::ServerOptions{});
  net::ServerConfig config;
  config.max_connections = 1;
  config.overload_retry_after_ms = 10;
  StartServer(db.get(), config);

  auto t1 = ConnectTransport();
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();

  // A hostile reject-ee: connects over the cap and streams bytes for as long
  // as the server will take them. The reject drain must not follow the
  // stream indefinitely on the acceptor thread — that would freeze admission
  // exactly when the server is at its connection cap.
  std::atomic<bool> stop{false};
  std::thread attacker([&] {
    RawConn conn(server_->port());
    if (!conn.connected()) return;
    Bytes junk(1024, 0xAB);
    while (!stop.load() && conn.Send(junk)) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // While the attacker streams, a polite over-cap client still receives its
  // typed rejection promptly instead of queueing behind the drain.
  auto t0 = Clock::now();
  auto t2 = ConnectTransport();
  double elapsed = ElapsedMs(t0);
  stop.store(true);
  attacker.join();
  ASSERT_FALSE(t2.ok());
  EXPECT_TRUE(t2.status().IsOverloaded()) << t2.status().ToString();
  EXPECT_LT(elapsed, 2000.0) << "reject drain stalled the accept loop";
  EXPECT_GE(server_->stats().connections_rejected.load(), 2u);

  // The admitted session was never disturbed.
  EXPECT_TRUE((*t1)->Ping().ok());
}

// ===========================================================================
// The acceptance stress: 4x overload over real sockets
// ===========================================================================

struct StressCounts {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> overloaded{0};
  std::atomic<uint64_t> deadline{0};
  std::atomic<uint64_t> other{0};
  std::atomic<uint64_t> wrong{0};
};

TEST_F(NetOverloadTest, FourTimesOverloadDegradesGracefully) {
  server::ServerOptions opts;
  opts.max_inflight_queries = 2;  // tiny capacity => 8 clients is 4x
  opts.overload_retry_after_ms = 2;
  auto db = MakeDb(opts);
  LoadSmallTable(db.get(), 50);
  net::ServerConfig config;
  config.max_connections = 32;
  StartServer(db.get(), config);

  // Baseline: one closed-loop client against the same deployment.
  uint64_t baseline = 0;
  {
    auto driver = MakeSocketDriver(/*deadline_ms=*/250);
    ASSERT_NE(driver, nullptr);
    auto t0 = Clock::now();
    while (ElapsedMs(t0) < 500.0) {
      auto r = driver->Query("SELECT b FROM T WHERE a = @a",
                             {{"a", Value::Int32(3)}});
      if (r.ok()) ++baseline;
    }
  }
  ASSERT_GT(baseline, 0u);
  double baseline_qps = static_cast<double>(baseline) / 0.5;

  // Overload: 8 closed-loop clients against an admission gate of 2.
  constexpr int kClients = 8;
  constexpr double kSeconds = 1.5;
  StressCounts counts;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto driver = MakeSocketDriver(/*deadline_ms=*/250);
      if (!driver) return;
      uint64_t seed = 0x9e3779b97f4a7c15ull + t;
      auto t0 = Clock::now();
      while (ElapsedMs(t0) < kSeconds * 1000.0) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        int key = static_cast<int>((seed >> 33) % 50);
        auto r = driver->Query("SELECT b FROM T WHERE a = @a",
                               {{"a", Value::Int32(key)}});
        if (r.ok()) {
          bool valid = r->rows.size() == 1 && !r->rows[0][0].is_null() &&
                       r->rows[0][0].i32() == 2 * key;
          (valid ? counts.ok : counts.wrong).fetch_add(1);
        } else if (r.status().IsOverloaded()) {
          counts.overloaded.fetch_add(1);
        } else if (r.status().IsDeadlineExceeded()) {
          counts.deadline.fetch_add(1);
        } else {
          counts.other.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  double goodput_qps = static_cast<double>(counts.ok.load()) / kSeconds;
  // Graceful degradation, in order of importance: correct results only,
  // every shed query typed, and goodput holding near single-client capacity.
  EXPECT_EQ(counts.wrong.load(), 0u);
  EXPECT_EQ(counts.other.load(), 0u)
      << "untyped failures under overload";
  EXPECT_GE(goodput_qps, 0.7 * baseline_qps)
      << "goodput " << goodput_qps << " qps collapsed below 70% of baseline "
      << baseline_qps << " qps";
  // The server survived: a fresh connection still answers correctly.
  auto after = MakeSocketDriver();
  ASSERT_NE(after, nullptr);
  auto r = after->Query("SELECT b FROM T WHERE a = @a", {{"a", Value::Int32(7)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].i32(), 14);

  auto stats = db->Stats();
  EXPECT_GE(stats.queries_admitted, counts.ok.load());
  // The gate did real work at 4x (either rejections surfaced to clients or
  // were absorbed by typed backoff-retries).
  EXPECT_GT(stats.queries_rejected, 0u);
}

}  // namespace
}  // namespace aedb
