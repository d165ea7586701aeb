#include <gtest/gtest.h>

#include <set>
#include <string>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "enclave/enclave.h"
#include "enclave/nonce_tracker.h"
#include "enclave/worker_pool.h"

namespace aedb::enclave {
namespace {

using types::EncKind;
using types::EncryptionType;
using types::TypeId;
using types::Value;

TEST(NonceTrackerTest, SequentialStaysCompact) {
  NonceTracker t;
  for (uint64_t n = 0; n < 1000; ++n) {
    ASSERT_TRUE(t.CheckAndRecord(n).ok());
  }
  EXPECT_EQ(t.range_count(), 1u);
  EXPECT_EQ(t.recorded_count(), 1000u);
}

TEST(NonceTrackerTest, ReplayDetected) {
  NonceTracker t;
  ASSERT_TRUE(t.CheckAndRecord(5).ok());
  EXPECT_TRUE(t.CheckAndRecord(5).IsReplayDetected());
}

TEST(NonceTrackerTest, OutOfOrderMergesRanges) {
  NonceTracker t;
  // Local reordering: 0 2 1 4 3 6 5 ...
  for (uint64_t base = 0; base < 100; base += 2) {
    ASSERT_TRUE(t.CheckAndRecord(base == 0 ? 0 : base).ok());
    if (base > 0) ASSERT_TRUE(t.CheckAndRecord(base - 1).ok());
  }
  EXPECT_LE(t.range_count(), 2u);
  // Every recorded nonce replays.
  for (uint64_t n = 0; n < 99; ++n) {
    EXPECT_TRUE(t.CheckAndRecord(n).IsReplayDetected()) << n;
  }
}

TEST(NonceTrackerTest, SparseNoncesKeepSeparateRanges) {
  NonceTracker t;
  ASSERT_TRUE(t.CheckAndRecord(10).ok());
  ASSERT_TRUE(t.CheckAndRecord(20).ok());
  ASSERT_TRUE(t.CheckAndRecord(30).ok());
  EXPECT_EQ(t.range_count(), 3u);
  // Fill the gap 11..19 -> merges with both neighbors of 10 and 20.
  for (uint64_t n = 11; n <= 19; ++n) ASSERT_TRUE(t.CheckAndRecord(n).ok());
  EXPECT_EQ(t.range_count(), 2u);
  EXPECT_FALSE(t.Seen(25));
  EXPECT_TRUE(t.Seen(15));
}

TEST(NonceTrackerTest, ZeroBoundary) {
  NonceTracker t;
  ASSERT_TRUE(t.CheckAndRecord(0).ok());
  EXPECT_TRUE(t.CheckAndRecord(0).IsReplayDetected());
  ASSERT_TRUE(t.CheckAndRecord(1).ok());
  EXPECT_EQ(t.range_count(), 1u);
}

// ---------------------------------------------------------------------------

class EnclaveTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kCekId = 42;

  void SetUp() override {
    crypto::HmacDrbg author_drbg(crypto::SecureRandom(48),
                                 Slice(std::string_view("author")));
    author_key_ = crypto::GenerateRsaKey(1024, &author_drbg);
    platform_ = std::make_unique<VbsPlatform>("known-good-boot", 2);
    image_ = EnclaveImage::MakeEsImage(3, author_key_);
    auto loaded = platform_->LoadEnclave(image_, EnclaveConfig{});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    enclave_ = std::move(loaded).value();
    cek_ = crypto::SecureRandom(32);
  }

  // Simulates the driver side: attest (create session) and install one CEK.
  uint64_t OpenSessionWithKey() {
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("client-dh")));
    client_dh_ = crypto::GenerateDhKeyPair(&drbg);
    auto resp = enclave_->CreateSession(crypto::DhPublicKeyBytes(client_dh_));
    EXPECT_TRUE(resp.ok());
    session_id_ = resp->session_id;
    auto secret = crypto::DhComputeSharedSecret(client_dh_.private_key,
                                                resp->enclave_dh_public);
    EXPECT_TRUE(secret.ok());
    channel_ = std::make_unique<crypto::CellCodec>(*secret);
    InstallCek(next_nonce_++, kCekId, cek_);
    return session_id_;
  }

  Bytes SealInstallPayload(uint64_t nonce, uint32_t cek_id, const Bytes& key) {
    Bytes plain;
    PutU64(&plain, nonce);
    PutU32(&plain, 1);
    PutU32(&plain, cek_id);
    PutLengthPrefixed(&plain, key);
    return channel_->Encrypt(plain, crypto::EncryptionScheme::kRandomized);
  }

  void InstallCek(uint64_t nonce, uint32_t cek_id, const Bytes& key) {
    Status st = enclave_->InstallCeks(session_id_, nonce,
                                      SealInstallPayload(nonce, cek_id, key));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  Bytes Cell(const Value& v,
             crypto::EncryptionScheme scheme =
                 crypto::EncryptionScheme::kRandomized) {
    crypto::CellCodec codec(cek_);
    return codec.Encrypt(v.Encode(), scheme);
  }

  EncryptionType Rnd() {
    return EncryptionType::Encrypted(EncKind::kRandomized, kCekId, true);
  }

  EncryptionType Det() {
    return EncryptionType::Encrypted(EncKind::kDeterministic, kCekId, true);
  }

  /// The client signs `query` into the session: programs that produce
  /// ciphertext may then run on behalf of that query text.
  void AuthorizeStatement(std::string_view query) {
    Bytes plain;
    PutU64(&plain, next_nonce_);
    Bytes hash = crypto::Sha256::Hash(Slice(query));
    plain.insert(plain.end(), hash.begin(), hash.end());
    Status st = enclave_->AuthorizeEncryption(
        session_id_, next_nonce_,
        channel_->Encrypt(plain, crypto::EncryptionScheme::kRandomized));
    ++next_nonce_;
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  /// Registers `C LIKE @p` as the scan workload compiles it: input 0 is the
  /// column cell, input 1 the parameter cell.
  uint64_t RegisterLike() {
    es::EsProgram p;
    p.GetData(0, TypeId::kString, Rnd());
    p.GetData(1, TypeId::kString, Rnd());
    p.Like();
    p.SetData(0, TypeId::kBool);
    auto handle = enclave_->RegisterExpression(p.Serialize());
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    return handle.ok() ? *handle : 0;
  }

  /// The columns of a 256-row morsel of `LIKE` inputs: a distinct column
  /// cell per row, and the parameter as a one-value column every row shares.
  es::Columns LikeColumns(const Bytes& param) {
    es::Columns columns(2);
    for (int i = 0; i < 256; ++i) {
      columns[0].push_back(
          Value::Binary(Cell(Value::String("Street" + std::to_string(i)))));
    }
    columns[1].push_back(Value::Binary(param));
    return columns;
  }

  /// One comparison: a one-cell CompareCellsBatch.
  Result<int> CompareOne(const Value& a, const Value& b) {
    Bytes cell_a = Cell(a);
    Bytes cell_b = Cell(b);
    std::vector<int> c;
    AEDB_ASSIGN_OR_RETURN(
        c, enclave_->CompareCellsBatch(kCekId, cell_a, {cell_b}));
    return c[0];
  }

  /// Registers `program` and evaluates it over one row: a morsel of one.
  Result<Value> EvalOne(const es::EsProgram& program, const Value& input,
                        std::string_view authorizing_query = {}) {
    uint64_t handle;
    AEDB_ASSIGN_OR_RETURN(handle,
                          enclave_->RegisterExpression(program.Serialize()));
    es::Columns out;
    AEDB_ASSIGN_OR_RETURN(
        out, enclave_->EvalRegisteredBatch(handle, es::Morsel::Of(1, {{input}}),
                                           session_id_, authorizing_query));
    return std::move(out[0][0]);
  }

  crypto::RsaPrivateKey author_key_;
  std::unique_ptr<VbsPlatform> platform_;
  EnclaveImage image_;
  std::unique_ptr<Enclave> enclave_;
  Bytes cek_;
  crypto::DhKeyPair client_dh_;
  std::unique_ptr<crypto::CellCodec> channel_;
  uint64_t session_id_ = 0;
  uint64_t next_nonce_ = 0;
};

TEST_F(EnclaveTest, PlatformRejectsTamperedImage) {
  EnclaveImage bad = image_;
  bad.version = 99;  // hash no longer matches the author signature
  auto r = platform_->LoadEnclave(bad, EnclaveConfig{});
  EXPECT_TRUE(r.status().IsSecurityError());
}

TEST_F(EnclaveTest, ReportMatchesImage) {
  EXPECT_EQ(enclave_->report().binary_hash, image_.BinaryHash());
  EXPECT_EQ(enclave_->report().author_id, image_.AuthorId());
  EXPECT_EQ(enclave_->report().enclave_version, 3u);
  EXPECT_EQ(enclave_->report().platform_version, 2u);
}

TEST_F(EnclaveTest, SessionRejectsDegenerateDh) {
  Bytes one = crypto::BigNum(1).ToBytesBE(256);
  EXPECT_TRUE(enclave_->CreateSession(one).status().IsSecurityError());
}

TEST_F(EnclaveTest, InstallAndCompareCells) {
  OpenSessionWithKey();
  EXPECT_TRUE(enclave_->HasCek(kCekId));
  auto c = CompareOne(Value::Int64(5), Value::Int64(9));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(*c, 0);
  auto c2 = CompareOne(Value::String("b"), Value::String("b"));
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(*c2, 0);
}

TEST_F(EnclaveTest, CompareCellsNullsSortFirst) {
  OpenSessionWithKey();
  auto c = CompareOne(Value::Null(TypeId::kInt64), Value::Int64(-100));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(*c, 0);
}

TEST_F(EnclaveTest, CompareWithoutKeyFails) {
  auto c = CompareOne(Value::Int64(1), Value::Int64(2));
  EXPECT_TRUE(c.status().IsKeyNotInEnclave());
}

// A row is a morsel of one and a comparison a one-cell batch: each still
// costs exactly one transition and counts exactly one eval or comparison.
TEST_F(EnclaveTest, MorselOfOneCostsOneTransition) {
  OpenSessionWithKey();
  es::EsProgram p;
  p.GetData(0, TypeId::kInt64, Rnd());
  p.GetData(1, TypeId::kInt64, Rnd());
  p.Comp(es::CompareOp::kLt);
  p.SetData(0, TypeId::kBool);
  auto handle = enclave_->RegisterExpression(p.Serialize());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const EnclaveStats& stats = enclave_->stats();

  uint64_t transitions = stats.transitions.load();
  uint64_t evals = stats.evals.load();
  uint64_t comparisons = stats.comparisons.load();
  const es::Columns row = {{Value::Binary(Cell(Value::Int64(1)))},
                           {Value::Binary(Cell(Value::Int64(2)))}};
  auto r = enclave_->EvalRegisteredBatch(*handle, es::Morsel::Of(1, row));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  ASSERT_EQ((*r)[0].size(), 1u);
  EXPECT_TRUE((*r)[0][0].bool_v());
  EXPECT_EQ(stats.transitions.load(), transitions + 1);
  EXPECT_EQ(stats.evals.load(), evals + 1);
  EXPECT_EQ(stats.comparisons.load(), comparisons);

  transitions = stats.transitions.load();
  evals = stats.evals.load();
  auto c = CompareOne(Value::Int64(3), Value::Int64(2));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_GT(*c, 0);
  EXPECT_EQ(stats.transitions.load(), transitions + 1);
  EXPECT_EQ(stats.comparisons.load(), comparisons + 1);
  EXPECT_EQ(stats.evals.load(), evals);
}

TEST_F(EnclaveTest, ReplayedInstallRejected) {
  OpenSessionWithKey();
  uint64_t used_nonce = next_nonce_ - 1;
  Status st = enclave_->InstallCeks(
      session_id_, used_nonce, SealInstallPayload(used_nonce, kCekId, cek_));
  EXPECT_TRUE(st.IsReplayDetected());
}

TEST_F(EnclaveTest, MismatchedOuterNonceRejected) {
  OpenSessionWithKey();
  // Outer nonce says 100, sealed payload says 99: SQL (the man in the middle)
  // cannot relabel messages.
  Status st = enclave_->InstallCeks(session_id_, 100,
                                    SealInstallPayload(99, kCekId, cek_));
  EXPECT_TRUE(st.IsSecurityError());
}

TEST_F(EnclaveTest, TamperedSealedPayloadRejected) {
  OpenSessionWithKey();
  Bytes sealed = SealInstallPayload(next_nonce_, kCekId, cek_);
  sealed[sealed.size() / 2] ^= 1;
  Status st = enclave_->InstallCeks(session_id_, next_nonce_, sealed);
  EXPECT_FALSE(st.ok());
}

TEST_F(EnclaveTest, EvalRegisteredExpression) {
  OpenSessionWithKey();
  es::EsProgram p;
  p.GetData(0, TypeId::kString, Rnd());
  p.GetData(1, TypeId::kString, Rnd());
  p.Comp(es::CompareOp::kEq);
  p.SetData(0, TypeId::kBool);
  auto handle = enclave_->RegisterExpression(p.Serialize());
  ASSERT_TRUE(handle.ok());
  const es::Columns row = {{Value::Binary(Cell(Value::String("SMITH")))},
                           {Value::Binary(Cell(Value::String("SMITH")))}};
  auto r = enclave_->EvalRegisteredBatch(*handle, es::Morsel::Of(1, row));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE((*r)[0][0].bool_v());
  EXPECT_GE(enclave_->stats().evals.load(), 1u);
}

TEST_F(EnclaveTest, EncryptOracleRequiresAuthorization) {
  OpenSessionWithKey();
  es::EsProgram p;
  p.GetData(0, TypeId::kInt64);
  p.SetData(0, TypeId::kInt64, Rnd());
  std::string ddl = "ALTER TABLE T ALTER COLUMN value ENCRYPTED";

  // Without client authorization: denied.
  auto r = EvalOne(p, Value::Int64(7), ddl);
  EXPECT_TRUE(r.status().IsPermissionDenied()) << r.status().ToString();

  // Client signs the query hash into the session; now it runs.
  AuthorizeStatement(ddl);

  auto r2 = EvalOne(p, Value::Int64(7), ddl);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  // Round trip: the produced cell decrypts to the input under the CEK.
  crypto::CellCodec codec(cek_);
  auto back = codec.Decrypt(r2->bin());
  ASSERT_TRUE(back.ok());
  size_t off = 0;
  EXPECT_TRUE(*Value::Decode(*back, &off) == Value::Int64(7));

  // A *different* query text is still denied.
  auto r3 = EvalOne(p, Value::Int64(7), "ALTER TABLE Other ...");
  EXPECT_TRUE(r3.status().IsPermissionDenied());
}

// A morsel runs column-major: the parameter is a one-value column every row
// shares, decrypted once; the distinct column cells are decrypted once each.
TEST_F(EnclaveTest, MorselDecryptsARepeatedParameterOnce) {
  OpenSessionWithKey();
  uint64_t handle = RegisterLike();
  const es::Columns columns = LikeColumns(Cell(Value::String("Street1%")));
  const EnclaveStats& stats = enclave_->stats();
  uint64_t decrypts = stats.decrypts.load();
  uint64_t evals = stats.evals.load();
  uint64_t transitions = stats.transitions.load();
  auto r = enclave_->EvalRegisteredBatch(handle, es::Morsel::Of(256, columns));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  ASSERT_EQ((*r)[0].size(), 256u);
  for (size_t i = 0; i < 256; ++i) {
    std::string street = "Street" + std::to_string(i);
    EXPECT_EQ((*r)[0][i].bool_v(), types::SqlLike(street, "Street1%")) << i;
  }
  EXPECT_EQ(stats.decrypts.load(), decrypts + 256 + 1);
  // The leakage counters keep their per-row meaning.
  EXPECT_EQ(stats.evals.load(), evals + 256);
  EXPECT_EQ(stats.transitions.load(), transitions + 1);
}

// The parameter column's one cell has a flipped byte: the morsel fails with
// exactly the status a morsel of one row returns.
TEST_F(EnclaveTest, FlippedParameterFailsLikeAMorselOfOne) {
  OpenSessionWithKey();
  uint64_t handle = RegisterLike();
  es::Columns columns = LikeColumns(Cell(Value::String("Street1%")));
  Bytes flipped = columns[1][0].bin();
  flipped[flipped.size() / 2] ^= 0x01;
  columns[1][0] = Value::Binary(flipped);

  const es::Columns first = {{columns[0][0]}, {columns[1][0]}};
  auto one = enclave_->EvalRegisteredBatch(handle, es::Morsel::Of(1, first));
  ASSERT_FALSE(one.ok());
  auto all = enclave_->EvalRegisteredBatch(handle, es::Morsel::Of(256, columns));
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), one.status().code());
  EXPECT_EQ(all.status().message(), one.status().message());
  EXPECT_TRUE(all.status().IsSecurityError()) << all.status().ToString();
}

// The DET-to-RND conversion ALTER COLUMN registers: a morsel of equal
// plaintexts (byte-equal DET cells, each decrypted) still comes out as
// distinct randomized cells, because encryption stays per row.
TEST_F(EnclaveTest, RndConversionGivesEqualPlaintextsDistinctCells) {
  OpenSessionWithKey();
  es::EsProgram p;
  p.GetData(0, TypeId::kString, Det());
  p.SetData(0, TypeId::kString, Rnd());
  auto handle = enclave_->RegisterExpression(p.Serialize());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  std::string ddl =
      "ALTER TABLE T ALTER COLUMN c VARCHAR(20) ENCRYPTED WITH (...)";
  AuthorizeStatement(ddl);

  Bytes det = Cell(Value::String("SMITH"), crypto::EncryptionScheme::kDeterministic);
  const es::Columns column = {std::vector<Value>(256, Value::Binary(det))};
  uint64_t decrypts = enclave_->stats().decrypts.load();
  auto r = enclave_->EvalRegisteredBatch(*handle, es::Morsel::Of(256, column),
                                         session_id_, ddl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(enclave_->stats().decrypts.load(), decrypts + 256);
  ASSERT_EQ(r->size(), 1u);
  std::set<Bytes> cells;
  crypto::CellCodec codec(cek_);
  for (const Value& cell : (*r)[0]) {
    cells.insert(cell.bin());
    auto back = codec.Decrypt(cell.bin());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    size_t off = 0;
    EXPECT_TRUE(*Value::Decode(*back, &off) == Value::String("SMITH"));
  }
  EXPECT_EQ(cells.size(), 256u);
}

TEST_F(EnclaveTest, ClearKeysSimulatesRestart) {
  OpenSessionWithKey();
  EXPECT_TRUE(enclave_->HasCek(kCekId));
  enclave_->ClearKeys();
  EXPECT_FALSE(enclave_->HasCek(kCekId));
  auto c = CompareOne(Value::Int64(1), Value::Int64(2));
  EXPECT_TRUE(c.status().IsKeyNotInEnclave());
}

TEST_F(EnclaveTest, NestedTMEvalRejected) {
  OpenSessionWithKey();
  es::EsProgram inner;
  inner.Const(Value::Int32(1));
  inner.SetData(0, TypeId::kInt32);
  es::EsProgram outer;
  outer.TMEval(inner, 0, 1);
  outer.SetData(0, TypeId::kInt32);
  EXPECT_TRUE(
      enclave_->RegisterExpression(outer.Serialize()).status().IsSecurityError());
}

TEST_F(EnclaveTest, WorkerPoolEvaluates) {
  OpenSessionWithKey();
  es::EsProgram p;
  p.GetData(0, TypeId::kInt64, Rnd());
  p.GetData(1, TypeId::kInt64, Rnd());
  p.Comp(es::CompareOp::kLt);
  p.SetData(0, TypeId::kBool);
  auto handle = enclave_->RegisterExpression(p.Serialize());
  ASSERT_TRUE(handle.ok());

  EnclaveWorkerPool::Options opts;
  opts.num_threads = 2;
  EnclaveWorkerPool pool(enclave_.get(), opts);
  for (int i = 0; i < 50; ++i) {
    const es::Columns row = {{Value::Binary(Cell(Value::Int64(i)))},
                             {Value::Binary(Cell(Value::Int64(25)))}};
    auto r = pool.SubmitEvalBatch(*handle, es::Morsel::Of(1, row));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)[0][0].bool_v(), i < 25);
  }
}

// A pool worker reads the submitter's column morsel in place and returns
// what the synchronous call gate returns, with the same counts.
TEST_F(EnclaveTest, WorkerPoolEvaluatesAColumnMorsel) {
  OpenSessionWithKey();
  uint64_t handle = RegisterLike();
  const es::Columns columns = LikeColumns(Cell(Value::String("Street2%")));
  const es::Morsel morsel = es::Morsel::Of(256, columns);
  const EnclaveStats& stats = enclave_->stats();
  uint64_t decrypts = stats.decrypts.load();
  uint64_t evals = stats.evals.load();
  auto direct = enclave_->EvalRegisteredBatch(handle, morsel);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  EnclaveWorkerPool::Options opts;
  opts.num_threads = 2;
  EnclaveWorkerPool pool(enclave_.get(), opts);
  auto pooled = pool.SubmitEvalBatch(handle, morsel);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_EQ(*pooled, *direct);
  EXPECT_EQ(stats.decrypts.load(), decrypts + 2 * 257);
  EXPECT_EQ(stats.evals.load(), evals + 2 * 256);
}

TEST_F(EnclaveTest, TransitionCostCharged) {
  EnclaveConfig cfg;
  cfg.transition_cost_ns = 1000;
  auto loaded = platform_->LoadEnclave(image_, cfg);
  ASSERT_TRUE(loaded.ok());
  auto& e = *loaded;
  uint64_t before = e->stats().transitions.load();
  (void)e->HasCek(1);  // not an ecall; no charge
  Bytes empty;
  auto r = e->CompareCellsBatch(1, empty, {empty});
  (void)r;
  EXPECT_EQ(e->stats().transitions.load(), before + 1);
}

}  // namespace
}  // namespace aedb::enclave
