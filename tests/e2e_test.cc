#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "client/driver.h"
#include "client/transport.h"
#include "crypto/drbg.h"
#include "server/database.h"

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using server::Database;
using server::ServerOptions;
using types::EncKind;
using types::TypeId;
using types::Value;

/// In-process transport that counts the enclave transitions the server
/// spends executing enclave DDL, apart from the driver's own attestation,
/// key-install and authorization calls.
class DdlTransitionMeter : public client::InProcessTransport {
 public:
  explicit DdlTransitionMeter(Database* db)
      : InProcessTransport(db), database_(db) {}

  Status ExecuteDdlOnShard(uint32_t shard, const std::string& sql,
                           uint64_t session_id) override {
    const uint64_t before = database_->Stats().enclave_transitions;
    Status st = InProcessTransport::ExecuteDdlOnShard(shard, sql, session_id);
    transitions += database_->Stats().enclave_transitions - before;
    return st;
  }

  uint64_t transitions = 0;

 private:
  Database* database_;
};

/// Full deployment fixture: key vault, HGS, enclave author, server, driver.
class E2eTest : public ::testing::Test {
 protected:
  static constexpr const char* kVaultPath = "https://vault.example/keys/cmk1";
  static constexpr const char* kVaultPathNoEnclave =
      "https://vault.example/keys/cmk2";

  void SetUp() override {
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey(kVaultPath, 1024).ok());
    ASSERT_TRUE(vault_->CreateKey(kVaultPathNoEnclave, 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());

    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("e2e-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();

    ServerOptions opts;
    opts.capture_tds = true;
    db_ = std::make_unique<Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db_->platform()->tcg_log());

    DriverOptions driver_opts;
    driver_opts.enclave_policy.trusted_author_id = image_.AuthorId();
    driver_ = std::make_unique<Driver>(db_.get(), &registry_,
                                       hgs_->signing_public(), driver_opts);
  }

  // Standard schema: an accounts table with one DET and two RND columns.
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

  /// An enclave-disabled key, and a Cards table with a plaintext Pan column
  /// of five rows for the client-side tool to encrypt.
  void ProvisionColdKeyAndCards() {
    ASSERT_TRUE(driver_
                    ->ProvisionCmk("ColdCMK", vault_->name(),
                                   kVaultPathNoEnclave,
                                   /*enclave_enabled=*/false)
                    .ok());
    ASSERT_TRUE(driver_->ProvisionCek("ColdCEK", "ColdCMK").ok());
    ASSERT_TRUE(
        driver_->ExecuteDdl("CREATE TABLE Cards (Id INT, Pan VARCHAR(19))")
            .ok());
    for (int i = 0; i < 5; ++i) {
      auto r = driver_->Query(
          "INSERT INTO Cards (Id, Pan) VALUES (@i, @p)",
          {{"i", Value::Int32(i)},
           {"p", Value::String("4111-1111-" + std::to_string(i))}});
      ASSERT_TRUE(r.ok());
    }
  }

  void LoadSampleAccounts() {
    InsertAccount(1, "Seattle", 100, "SMITH");
    InsertAccount(2, "Seattle", 200, "SMYTHE");
    InsertAccount(3, "Zurich", 200, "BARNES");
    InsertAccount(4, "Zurich", 550, "SMITHSON");
    InsertAccount(5, "Berlin", 50, "ADAMS");
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Driver> driver_;
};

TEST_F(E2eTest, InsertAndPointLookupOnDetColumn) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  // DET equality: evaluated on ciphertext, no enclave needed.
  auto r = driver_->Query("SELECT AcctID, AcctBal FROM Account WHERE Branch = @b",
                          {{"b", Value::String("Seattle")}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
  // Results came back decrypted.
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[1].type(), TypeId::kInt64);
  }
}

TEST_F(E2eTest, EnclaveEqualityAndRangeOnRndColumn) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  // The running example: select * from T where value = @v over RND (§3).
  auto eq = driver_->Query("SELECT AcctID FROM Account WHERE AcctBal = @v",
                           {{"v", Value::Int64(200)}});
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  EXPECT_EQ(eq->rows.size(), 2u);
  EXPECT_GE(db_->enclave()->stats().evals.load(), 1u);

  auto range = driver_->Query(
      "SELECT AcctID FROM Account WHERE AcctBal BETWEEN @lo AND @hi",
      {{"lo", Value::Int64(100)}, {"hi", Value::Int64(300)}});
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->rows.size(), 3u);
}

TEST_F(E2eTest, EnclaveLikeOnRndColumn) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  auto r = driver_->Query("SELECT AcctID FROM Account WHERE Owner LIKE @p",
                          {{"p", Value::String("SMI%")}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);  // SMITH, SMITHSON
}

TEST_F(E2eTest, EncryptedRangeIndexServesRangeQueries) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  ASSERT_TRUE(driver_->ExecuteDdl("CREATE INDEX idx_bal ON Account (AcctBal)").ok());
  const sql::IndexDef* index = *db_->catalog().GetIndex("idx_bal");
  EXPECT_EQ(index->kind, sql::IndexKind::kRange);
  uint64_t comparisons_before = db_->engine().index_tree(index->id)->comparisons();
  EXPECT_GT(comparisons_before, 0u);  // the build sorted via the enclave

  auto r = driver_->Query("SELECT AcctID FROM Account WHERE AcctBal >= @lo",
                          {{"lo", Value::Int64(200)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_GT(db_->engine().index_tree(index->id)->comparisons(), comparisons_before);
}

TEST_F(E2eTest, EqualityIndexOnDetColumn) {
  ProvisionAndCreateSchema();
  ASSERT_TRUE(
      driver_->ExecuteDdl("CREATE INDEX idx_branch ON Account (Branch)").ok());
  const sql::IndexDef* index = *db_->catalog().GetIndex("idx_branch");
  EXPECT_EQ(index->kind, sql::IndexKind::kEquality);
  LoadSampleAccounts();
  auto r = driver_->Query("SELECT AcctID FROM Account WHERE Branch = @b",
                          {{"b", Value::String("Zurich")}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(E2eTest, UpdateAndDeleteThroughEnclavePredicates) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  auto upd = driver_->Query(
      "UPDATE Account SET AcctBal = @new WHERE AcctBal = @old",
      {{"new", Value::Int64(999)}, {"old", Value::Int64(200)}});
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->rows[0][0].i64(), 2);

  auto del = driver_->Query("DELETE FROM Account WHERE AcctBal > @min",
                            {{"min", Value::Int64(500)}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->rows[0][0].i64(), 3);  // the two 999s plus 550

  auto remaining = driver_->Query("SELECT COUNT(*) FROM Account");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining->rows[0][0].i64(), 2);
}

TEST_F(E2eTest, TransactionsRollBack) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  uint64_t txn = driver_->Begin();
  auto r = driver_->Query("DELETE FROM Account WHERE AcctID = @id",
                          {{"id", Value::Int32(1)}}, txn);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(driver_->Rollback(txn).ok());
  auto count = driver_->Query("SELECT COUNT(*) FROM Account");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].i64(), 5);
}

TEST_F(E2eTest, GroupByDetCiphertextEquality) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  auto r = driver_->Query(
      "SELECT Branch, COUNT(*) FROM Account GROUP BY Branch");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
  // The branch values decrypt for the client.
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[0].type(), TypeId::kString);
  }
}

TEST_F(E2eTest, DetEquiJoin) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  ASSERT_TRUE(driver_
                  ->ExecuteDdl(
                      "CREATE TABLE BranchInfo (BName VARCHAR(20) ENCRYPTED "
                      "WITH (COLUMN_ENCRYPTION_KEY = MyCEK, ENCRYPTION_TYPE = "
                      "Deterministic, ALGORITHM = "
                      "'AEAD_AES_256_CBC_HMAC_SHA_256'), Region VARCHAR(10))")
                  .ok());
  for (auto [name, region] :
       {std::pair<const char*, const char*>{"Seattle", "US"},
        {"Zurich", "EU"},
        {"Berlin", "EU"}}) {
    auto r = driver_->Query(
        "INSERT INTO BranchInfo (BName, Region) VALUES (@n, @r)",
        {{"n", Value::String(name)}, {"r", Value::String(region)}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto joined = driver_->Query(
      "SELECT AcctID, Region FROM Account JOIN BranchInfo ON "
      "Account.Branch = BranchInfo.BName WHERE Region = @reg",
      {{"reg", Value::String("EU")}});
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->rows.size(), 3u);  // Zurich x2 + Berlin x1
}

TEST_F(E2eTest, InitialEncryptionThroughEnclave) {
  ProvisionAndCreateSchema();
  // A plaintext column encrypted in place — no client round trip (§2.4.2).
  ASSERT_TRUE(driver_->ExecuteDdl("CREATE TABLE People (Id INT, Ssn VARCHAR(11))").ok());
  for (int i = 0; i < 10; ++i) {
    auto r = driver_->Query("INSERT INTO People (Id, Ssn) VALUES (@i, @s)",
                            {{"i", Value::Int32(i)},
                             {"s", Value::String("123-45-000" + std::to_string(i))}});
    ASSERT_TRUE(r.ok());
  }
  Status st = driver_->ExecuteEnclaveDdl(
      "ALTER TABLE People ALTER COLUMN Ssn VARCHAR(11) ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = MyCEK, ENCRYPTION_TYPE = Randomized, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')");
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Data is now ciphertext on pages but still queryable via the enclave.
  auto r = driver_->Query("SELECT Id FROM People WHERE Ssn = @s",
                          {{"s", Value::String("123-45-0007")}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].i32(), 7);

  // And the pages no longer contain the SSN plaintext.
  std::string needle = "123-45-0007";
  bool found = false;
  db_->engine().ForEachPageRaw([&](uint32_t, Slice page) {
    std::string_view haystack(reinterpret_cast<const char*>(page.data()),
                              page.size());
    if (haystack.find(needle) != std::string_view::npos) found = true;
  });
  EXPECT_FALSE(found);
}

// ALTER COLUMN converts the column in morsels: one registration, then one
// transition per eval_batch_size (default 256) rows, not one per row.
TEST_F(E2eTest, InitialEncryptionCrossesTheGateOncePerMorsel) {
  ProvisionAndCreateSchema();
  constexpr int kRows = 600;
  ASSERT_TRUE(
      driver_->ExecuteDdl("CREATE TABLE Wide (Id INT, Ssn VARCHAR(11))").ok());
  auto ssn = [](int i) { return "900-00-" + std::to_string(1000 + i); };
  for (int i = 0; i < kRows; ++i) {
    auto r = driver_->Query("INSERT INTO Wide (Id, Ssn) VALUES (@i, @s)",
                            {{"i", Value::Int32(i)},
                             {"s", Value::String(ssn(i))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  DriverOptions opts;
  opts.enclave_policy.trusted_author_id = image_.AuthorId();
  auto meter = std::make_unique<DdlTransitionMeter>(db_.get());
  DdlTransitionMeter* metered = meter.get();
  Driver admin(std::move(meter), &registry_, hgs_->signing_public(), opts);
  Status st = admin.ExecuteEnclaveDdl(
      "ALTER TABLE Wide ALTER COLUMN Ssn VARCHAR(11) ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = MyCEK, ENCRYPTION_TYPE = Randomized, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')");
  ASSERT_TRUE(st.ok()) << st.ToString();
  // ceil(600 / 256) = 3 morsels, plus registering the conversion program.
  EXPECT_GE(metered->transitions, 3u);
  EXPECT_LE(metered->transitions, 4u);

  // A fresh driver (no cached describe, keys or session) reads every row
  // back unchanged.
  Driver reader(db_.get(), &registry_, hgs_->signing_public(), opts);
  auto rows = reader.Query("SELECT Id, Ssn FROM Wide");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), static_cast<size_t>(kRows));
  std::set<int> ids;
  for (const auto& row : rows->rows) {
    ids.insert(row[0].i32());
    EXPECT_EQ(row[1].str(), ssn(row[0].i32()));
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kRows));
}

TEST_F(E2eTest, UnauthorizedInitialEncryptionRejected) {
  ProvisionAndCreateSchema();
  ASSERT_TRUE(driver_->ExecuteDdl("CREATE TABLE P2 (Id INT, S VARCHAR(8))").ok());
  auto ins = driver_->Query("INSERT INTO P2 (Id, S) VALUES (@i, @s)",
                            {{"i", Value::Int32(1)}, {"s", Value::String("x")}});
  ASSERT_TRUE(ins.ok());
  // Bypass the driver's authorization step: the enclave must refuse.
  Status st = db_->ExecuteDdl(
      "ALTER TABLE P2 ALTER COLUMN S VARCHAR(8) ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = MyCEK, ENCRYPTION_TYPE = Randomized, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')",
      driver_->session_id());
  EXPECT_FALSE(st.ok());
}

TEST_F(E2eTest, KeyRotationThroughEnclave) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  ASSERT_TRUE(driver_->ProvisionCek("MyCEK2", "MyCMK").ok());
  Status st = driver_->ExecuteEnclaveDdl(
      "ALTER TABLE Account ALTER COLUMN Owner VARCHAR(40) ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = MyCEK2, ENCRYPTION_TYPE = Randomized, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto r = driver_->Query("SELECT AcctID FROM Account WHERE Owner = @o",
                          {{"o", Value::String("BARNES")}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(E2eTest, NonAeConnectionSkipsDescribe) {
  ProvisionAndCreateSchema();
  ASSERT_TRUE(driver_->ExecuteDdl("CREATE TABLE Plain (a INT, b INT)").ok());
  DriverOptions pt_opts;
  pt_opts.column_encryption_enabled = false;
  Driver pt_driver(db_.get(), &registry_, hgs_->signing_public(), pt_opts);
  uint64_t before = db_->describe_calls();
  auto r = pt_driver.Query("INSERT INTO Plain (a, b) VALUES (@a, @b)",
                           {{"a", Value::Int32(1)}, {"b", Value::Int32(2)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(db_->describe_calls(), before);  // no extra round trip
}

TEST_F(E2eTest, DescribeCachingAvoidsRoundTrips) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  uint64_t before = db_->describe_calls();
  for (int i = 0; i < 5; ++i) {
    auto r = driver_->Query("SELECT AcctID FROM Account WHERE Branch = @b",
                            {{"b", Value::String("Seattle")}});
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(db_->describe_calls() - before, 1u);
  EXPECT_LE(driver_->attestations(), 1);
  EXPECT_LE(vault_->unwrap_calls(), 2);  // CEK cache works
}

TEST_F(E2eTest, CrashRecoveryWithDeferredTransactionsEndToEnd) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  ASSERT_TRUE(driver_->ExecuteDdl("CREATE INDEX idx_bal ON Account (AcctBal)").ok());

  // Leave a transaction in flight, then crash.
  uint64_t txn = driver_->Begin();
  auto r = driver_->Query(
      "INSERT INTO Account (AcctID, Branch, AcctBal, Owner) VALUES "
      "(@i, @b, @v, @o)",
      {{"i", Value::Int32(99)},
       {"b", Value::String("Oslo")},
       {"v", Value::Int64(777)},
       {"o", Value::String("LOSER")}},
      txn);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  auto recovery = db_->Restart();  // enclave keys gone, WAL replayed
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery->deferred_txns.empty());
  // The deferred transaction pins the log: a checkpoint is refused.
  EXPECT_EQ(db_->Checkpoint(std::chrono::milliseconds(0)).code(),
            StatusCode::kFailedPrecondition);

  // Client reconnects; the driver re-attests and re-sends keys, which
  // resolves the deferred transactions (§4.5).
  driver_->InvalidateSession();
  auto q = driver_->Query("SELECT AcctID FROM Account WHERE AcctBal >= @v",
                          {{"v", Value::Int64(100)}});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->rows.size(), 4u);  // loser insert rolled back
  EXPECT_FALSE(db_->engine().HasDeferredTxns());
  EXPECT_TRUE(db_->Checkpoint(std::chrono::milliseconds(0)).ok());
}

TEST_F(E2eTest, ClientSideToolForEnclaveDisabledKeys) {
  ProvisionAndCreateSchema();
  ProvisionColdKeyAndCards();
  // In-place DDL must refuse (enclave-disabled key)...
  Status direct = db_->ExecuteDdl(
      "ALTER TABLE Cards ALTER COLUMN Pan VARCHAR(19) ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = ColdCEK, ENCRYPTION_TYPE = Deterministic, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')");
  EXPECT_EQ(direct.code(), StatusCode::kNotSupported);
  // ...so the client tool does the round trip.
  Status st = driver_->ClientSideEncryptColumn("Cards", "Pan", "ColdCEK",
                                               EncKind::kDeterministic, "Id");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto r = driver_->Query("SELECT Id FROM Cards WHERE Pan = @p",
                          {{"p", Value::String("4111-1111-3")}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].i32(), 3);
}

// The tool's column change is DDL: it must outlive a restart, or the column
// reads as plaintext over the tool's ciphertext.
TEST_F(E2eTest, ClientSideToolChangeSurvivesRestart) {
  ProvisionColdKeyAndCards();
  Status st = driver_->ClientSideEncryptColumn("Cards", "Pan", "ColdCEK",
                                               EncKind::kDeterministic, "Id");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto restarted = db_->Restart();
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  driver_->InvalidateSession();

  auto enc = db_->ColumnEncryption("Cards", "Pan");
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_EQ(enc->kind, EncKind::kDeterministic);
  auto r = driver_->Query("SELECT Id FROM Cards WHERE Pan = @p",
                          {{"p", Value::String("4111-1111-3")}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].i32(), 3);
}

// --- Figure 5: operation leakage / adversary view ---

class LeakageTest : public E2eTest {};

TEST_F(LeakageTest, PlaintextNeverOnPagesWalOrWire) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  auto r = driver_->Query("SELECT Owner FROM Account WHERE AcctBal = @v",
                          {{"v", Value::Int64(550)}});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].str(), "SMITHSON");

  auto contains = [](Slice haystack, std::string_view needle) {
    std::string_view h(reinterpret_cast<const char*>(haystack.data()),
                       haystack.size());
    return h.find(needle) != std::string_view::npos;
  };
  // Pages: encrypted columns are cells; plaintext only for AcctID.
  for (std::string_view secret : {"SMITHSON", "Seattle", "Zurich"}) {
    bool leaked = false;
    db_->engine().ForEachPageRaw([&](uint32_t, Slice page) {
      if (contains(page, secret)) leaked = true;
    });
    EXPECT_FALSE(leaked) << secret << " on a page";
    // WAL.
    EXPECT_FALSE(contains(db_->engine().wal().RawBytes(), secret))
        << secret << " in the WAL";
    // TDS request/response (the balance went over the wire encrypted; the
    // owner came back encrypted).
    EXPECT_FALSE(contains(db_->tds_capture().last_request, secret));
    EXPECT_FALSE(contains(db_->tds_capture().last_response, secret));
  }
}

TEST_F(LeakageTest, DetLeaksFrequenciesRndDoesNot) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  // Adversary scans pages and collects cells per column. The two Seattle
  // rows share a Branch cell (DET) but their AcctBal=200 twins (rows 2,3)
  // have distinct cells (RND).
  const sql::TableDef* table = *db_->catalog().GetTable("Account");
  std::map<int, std::vector<Bytes>> cells_by_column;
  db_->engine().table(table->id)->Scan([&](const storage::Rid&, Slice record) {
    auto row = sql::DecodeRow(record, table->columns.size());
    for (size_t c = 0; c < row->size(); ++c) {
      if ((*row)[c].type() == TypeId::kBinary) {
        cells_by_column[static_cast<int>(c)].push_back((*row)[c].bin());
      }
    }
    return true;
  });
  // Branch is column 1 (DET): Seattle repeats -> duplicate ciphertexts.
  auto& branch_cells = cells_by_column[1];
  std::set<Bytes> distinct_branches(branch_cells.begin(), branch_cells.end());
  EXPECT_EQ(branch_cells.size(), 5u);
  EXPECT_EQ(distinct_branches.size(), 3u);  // frequency leak (Figure 5 row 1)
  // AcctBal is column 2 (RND): equal balances still yield distinct cells.
  auto& bal_cells = cells_by_column[2];
  std::set<Bytes> distinct_bals(bal_cells.begin(), bal_cells.end());
  EXPECT_EQ(distinct_bals.size(), bal_cells.size());  // IND-CPA, no dupes
}

TEST_F(LeakageTest, RangeIndexRevealsOrderingOnly) {
  ProvisionAndCreateSchema();
  LoadSampleAccounts();
  ASSERT_TRUE(driver_->ExecuteDdl("CREATE INDEX idx_bal ON Account (AcctBal)").ok());
  // The adversary can read the B+-tree's ordering of ciphertext keys
  // (Figure 5 row 2) — but the cells themselves stay opaque.
  const sql::IndexDef* index = *db_->catalog().GetIndex("idx_bal");
  storage::BTree* tree = db_->engine().index_tree(index->id);
  size_t entries = 0;
  for (auto it = tree->Begin(); it.Valid(); it.Next()) {
    auto key = it.key();
    ASSERT_TRUE(key.ok());
    EXPECT_TRUE(crypto::CellCodec::LooksLikeCell(*key));
    ++entries;
  }
  EXPECT_EQ(entries, 5u);
}

}  // namespace
}  // namespace aedb
