#include <gtest/gtest.h>

#include "sql/binder.h"
#include "sql/catalog.h"
#include "sql/parser.h"

namespace aedb::sql {
namespace {

using types::EncKind;
using types::EncryptionType;
using types::TypeId;

// --- Parser ---

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT a, b FROM t WHERE a = 5 AND b < @p LIMIT 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const SelectStmt& sel = *stmt->select;
  EXPECT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.table, "t");
  EXPECT_EQ(sel.limit, 3);
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->kind, Expr::Kind::kAnd);
}

TEST(ParserTest, SelectStarOrderBy) {
  auto stmt = Parse("select * from Customers order by name desc");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select->select_all);
  EXPECT_EQ(stmt->select->order_by, "name");
  EXPECT_TRUE(stmt->select->order_desc);
}

TEST(ParserTest, Aggregates) {
  auto stmt = Parse("SELECT COUNT(*), SUM(bal) AS total, MIN(a), MAX(a), AVG(a) "
                    "FROM t GROUP BY branch");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& sel = *stmt->select;
  ASSERT_EQ(sel.items.size(), 5u);
  EXPECT_EQ(sel.items[0].agg, AggFunc::kCount);
  EXPECT_TRUE(sel.items[0].star);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(sel.items[1].alias, "total");
  EXPECT_EQ(sel.group_by, "branch");
}

TEST(ParserTest, Join) {
  auto stmt = Parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z = 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->select->join_table, "b");
  EXPECT_EQ(stmt->select->join_left, "a.x");
  EXPECT_EQ(stmt->select->join_right, "b.y");
}

TEST(ParserTest, PredicateForms) {
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE a BETWEEN 1 AND 10").ok());
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE name LIKE 'SM%'").ok());
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE name NOT LIKE '%x%'").ok());
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE a IS NULL").ok());
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE a IS NOT NULL").ok());
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)").ok());
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE (a + 1) * 2 >= b / 3").ok());
}

TEST(ParserTest, InsertUpdateDelete) {
  auto ins = Parse("INSERT INTO t (a, b) VALUES (@x, 'hi'), (2, @y)");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->insert->rows.size(), 2u);
  auto upd = Parse("UPDATE t SET a = a + 1, b = @v WHERE c = 3");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->update->sets.size(), 2u);
  auto del = Parse("DELETE FROM t WHERE a = @k");
  ASSERT_TRUE(del.ok());
}

TEST(ParserTest, CreateTableWithEncryption) {
  auto stmt = Parse(
      "CREATE TABLE T (id INT NOT NULL, value INT ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = MyCEK, ENCRYPTION_TYPE = Randomized, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const CreateTableStmt& ct = *stmt->create_table;
  ASSERT_EQ(ct.columns.size(), 2u);
  EXPECT_TRUE(ct.columns[0].not_null);
  EXPECT_FALSE(ct.columns[0].enc.encrypted);
  EXPECT_TRUE(ct.columns[1].enc.encrypted);
  EXPECT_EQ(ct.columns[1].enc.cek_name, "MyCEK");
  EXPECT_EQ(ct.columns[1].enc.kind, EncKind::kRandomized);
}

TEST(ParserTest, KeyDdl) {
  auto cmk = Parse(
      "CREATE COLUMN MASTER KEY MyCMK WITH ("
      "KEY_STORE_PROVIDER_NAME = N'AZURE_KEY_VAULT_PROVIDER', "
      "KEY_PATH = N'https://vault.example/keys/k1', "
      "ENCLAVE_COMPUTATIONS (SIGNATURE = 0x6FCF))");
  ASSERT_TRUE(cmk.ok()) << cmk.status().ToString();
  EXPECT_TRUE(cmk->create_cmk->enclave_computations);
  EXPECT_EQ(cmk->create_cmk->key_path, "https://vault.example/keys/k1");

  auto cek = Parse(
      "CREATE COLUMN ENCRYPTION KEY MyCEK WITH VALUES ("
      "COLUMN_MASTER_KEY = MyCMK, ALGORITHM = 'RSA_OAEP', "
      "ENCRYPTED_VALUE = 0x0170, SIGNATURE = 0xAB)");
  ASSERT_TRUE(cek.ok()) << cek.status().ToString();
  EXPECT_EQ(cek->create_cek->cmk, "MyCMK");
  EXPECT_EQ(cek->create_cek->encrypted_value, (Bytes{0x01, 0x70}));
}

TEST(ParserTest, AlterColumn) {
  auto stmt = Parse(
      "ALTER TABLE T ALTER COLUMN value INT ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = K2, ENCRYPTION_TYPE = Deterministic)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->alter_column->column, "value");
  EXPECT_EQ(stmt->alter_column->enc.kind, EncKind::kDeterministic);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELEKT * FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t extra junk").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE s = 'unterminated").ok());
}

// --- Binder / encryption-type inference (§4.3) ---

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // CEK ids: 1 = DET-usable enclave-disabled, 2 = enclave-enabled.
    keys::CmkInfo plain_cmk;
    plain_cmk.name = "cmk_plain";
    plain_cmk.provider_name = "p";
    plain_cmk.key_path = "kp1";
    plain_cmk.enclave_enabled = false;
    ASSERT_TRUE(catalog_.AddCmk(plain_cmk).ok());
    keys::CmkInfo enclave_cmk = plain_cmk;
    enclave_cmk.name = "cmk_enclave";
    enclave_cmk.key_path = "kp2";
    enclave_cmk.enclave_enabled = true;
    ASSERT_TRUE(catalog_.AddCmk(enclave_cmk).ok());
    keys::CekInfo cek1;
    cek1.name = "cek1";
    cek1.values.push_back({"cmk_plain", "RSA_OAEP", {1}, {2}});
    ASSERT_TRUE(catalog_.AddCek(cek1).ok());
    keys::CekInfo cek2;
    cek2.name = "cek2";
    cek2.values.push_back({"cmk_enclave", "RSA_OAEP", {1}, {2}});
    ASSERT_TRUE(catalog_.AddCek(cek2).ok());

    TableDef t;
    t.name = "T";
    t.columns = {
        {"id", TypeId::kInt32, EncryptionType::Plaintext(), false},
        {"det_ssn", TypeId::kString,
         EncryptionType::Encrypted(EncKind::kDeterministic, 1, false), true},
        {"rnd_bal", TypeId::kInt64,
         EncryptionType::Encrypted(EncKind::kRandomized, 2, true), true},
        {"rnd_name", TypeId::kString,
         EncryptionType::Encrypted(EncKind::kRandomized, 2, true), true},
        {"rnd_noenclave", TypeId::kInt32,
         EncryptionType::Encrypted(EncKind::kRandomized, 1, false), true},
    };
    ASSERT_TRUE(catalog_.CreateTable(std::move(t)).ok());
  }

  Result<BoundStatement> Bind(const std::string& sql) {
    Statement stmt;
    AEDB_ASSIGN_OR_RETURN(stmt, Parse(sql));
    Binder binder(&catalog_);
    return binder.Bind(std::move(stmt));
  }

  Catalog catalog_;
};

TEST_F(BinderTest, ParamGetsColumnEncryptionType) {
  // The paper's Example 4.2: @v must come out Deterministic(cek of column).
  auto bound = Bind("SELECT * FROM T WHERE det_ssn = @v");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->params.size(), 1u);
  EXPECT_EQ(bound->params[0].name, "v");
  EXPECT_EQ(bound->params[0].type, TypeId::kString);
  EXPECT_EQ(bound->params[0].enc.kind, EncKind::kDeterministic);
  EXPECT_EQ(bound->params[0].enc.cek_id, 1u);
  EXPECT_FALSE(bound->requires_enclave);  // DET equality is host-evaluable
}

TEST_F(BinderTest, RndEqualityNeedsEnclave) {
  auto bound = Bind("SELECT * FROM T WHERE rnd_bal = @v");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_TRUE(bound->requires_enclave);
  EXPECT_EQ(bound->enclave_ceks, std::vector<uint32_t>{2});
  EXPECT_EQ(bound->params[0].enc.kind, EncKind::kRandomized);
}

TEST_F(BinderTest, RangeOnRndEnclaveOk) {
  EXPECT_TRUE(Bind("SELECT * FROM T WHERE rnd_bal > @v").ok());
  EXPECT_TRUE(Bind("SELECT * FROM T WHERE rnd_bal BETWEEN @a AND @b").ok());
  EXPECT_TRUE(Bind("SELECT * FROM T WHERE rnd_name LIKE @p").ok());
}

TEST_F(BinderTest, RangeOnDetRejectedWithoutEnclave) {
  auto r = Bind("SELECT * FROM T WHERE det_ssn < @v");
  EXPECT_TRUE(r.status().IsTypeCheckError()) << r.status().ToString();
}

TEST_F(BinderTest, NothingOnRndWithoutEnclave) {
  auto r = Bind("SELECT * FROM T WHERE rnd_noenclave = @v");
  EXPECT_TRUE(r.status().IsTypeCheckError());
}

TEST_F(BinderTest, LiteralAgainstEncryptedRejected) {
  // Literals are plaintext in the query text; only parameters can be
  // encrypted (transparency via parameterized queries, §2.5).
  auto r = Bind("SELECT * FROM T WHERE det_ssn = 'abc'");
  EXPECT_TRUE(r.status().IsTypeCheckError()) << r.status().ToString();
}

TEST_F(BinderTest, CrossCekComparisonRejected) {
  auto r = Bind("SELECT * FROM T WHERE det_ssn = rnd_name");
  EXPECT_TRUE(r.status().IsTypeCheckError());
}

TEST_F(BinderTest, TransitiveConstraintThroughParams) {
  // @p = @q AND @p = rnd_bal: the class constraint propagates so @q also
  // resolves Randomized (validated post-solve).
  auto bound = Bind("SELECT * FROM T WHERE @p = @q AND @p = rnd_bal");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  for (const BoundParam& p : bound->params) {
    EXPECT_EQ(p.enc.kind, EncKind::kRandomized) << p.name;
    EXPECT_EQ(p.enc.cek_id, 2u);
  }
}

TEST_F(BinderTest, UnconstrainedParamResolvesPlaintext) {
  auto bound = Bind("SELECT * FROM T WHERE id = @v");
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound->params[0].enc.is_encrypted());
  EXPECT_FALSE(bound->requires_enclave);
}

TEST_F(BinderTest, ArithmeticOnEncryptedRejected) {
  auto r = Bind("SELECT * FROM T WHERE rnd_bal + 1 = @v");
  EXPECT_TRUE(r.status().IsTypeCheckError());
}

TEST_F(BinderTest, OrderByEncryptedRejected) {
  auto r = Bind("SELECT * FROM T ORDER BY rnd_name");
  EXPECT_TRUE(r.status().IsTypeCheckError());
}

TEST_F(BinderTest, GroupByDetAllowedRndRejected) {
  EXPECT_TRUE(Bind("SELECT det_ssn, COUNT(*) FROM T GROUP BY det_ssn").ok());
  EXPECT_TRUE(Bind("SELECT rnd_name, COUNT(*) FROM T GROUP BY rnd_name")
                  .status()
                  .IsTypeCheckError());
}

TEST_F(BinderTest, AggregateOverEncryptedRejected) {
  auto r = Bind("SELECT SUM(rnd_bal) FROM T");
  EXPECT_TRUE(r.status().IsTypeCheckError());
}

TEST_F(BinderTest, InsertParamsInheritColumnTypes) {
  auto bound = Bind(
      "INSERT INTO T (id, det_ssn, rnd_bal) VALUES (@i, @s, @b)");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->params.size(), 3u);
  EXPECT_FALSE(bound->params[0].enc.is_encrypted());
  EXPECT_EQ(bound->params[1].enc.kind, EncKind::kDeterministic);
  EXPECT_EQ(bound->params[2].enc.kind, EncKind::kRandomized);
  EXPECT_EQ(bound->params[2].type, TypeId::kInt64);
  // Writes never need the enclave: the driver encrypts.
  EXPECT_FALSE(bound->requires_enclave);
}

TEST_F(BinderTest, UnknownNamesRejected) {
  EXPECT_TRUE(Bind("SELECT * FROM NoSuch WHERE a = 1").status().IsNotFound());
  EXPECT_TRUE(Bind("SELECT * FROM T WHERE nocol = 1").status().IsNotFound());
}

TEST_F(BinderTest, IsNullOnEncryptedNeedsEnclave) {
  auto ok = Bind("SELECT * FROM T WHERE rnd_bal IS NULL");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->requires_enclave);
  EXPECT_TRUE(Bind("SELECT * FROM T WHERE rnd_noenclave IS NULL")
                  .status()
                  .IsTypeCheckError());
}

// --- Catalog & rows ---

TEST(CatalogTest, RowCodecRoundTrip) {
  std::vector<types::Value> row = {
      types::Value::Int32(7),
      types::Value::String("x"),
      types::Value::Null(TypeId::kInt64),
      types::Value::Binary({1, 2, 3}),
  };
  Bytes rec = EncodeRow(row);
  auto back = DecodeRow(rec, 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, row);
  EXPECT_FALSE(DecodeRow(rec, 3).ok());  // trailing bytes detected

  // With a column set only its columns are built; the skipped slots are
  // NULLs of their stored types.
  const ColumnSet columns = {true, false, false, true};
  auto some = DecodeRow(rec, 4, &columns);
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  ASSERT_EQ(some->size(), 4u);
  EXPECT_EQ((*some)[0], row[0]);
  EXPECT_TRUE((*some)[1].is_null());
  EXPECT_EQ((*some)[1].type(), TypeId::kString);
  EXPECT_TRUE((*some)[2].is_null());
  EXPECT_EQ((*some)[2].type(), TypeId::kInt64);
  EXPECT_EQ((*some)[3], row[3]);
  EXPECT_FALSE(DecodeRow(rec, 3, &columns).ok());  // trailing bytes detected

  // The column-major decoder builds the same rows: one value column per
  // column in the set, the stored types of the others.
  ColumnBatch all(4);
  ASSERT_TRUE(all.Append(rec).ok());
  EXPECT_EQ(all.TakeRow(0), row);
  ColumnBatch batch(4, &columns);
  ASSERT_TRUE(batch.Append(rec).ok());
  ASSERT_TRUE(batch.Append(rec).ok());
  EXPECT_EQ(batch.rows(), 2u);
  EXPECT_TRUE(batch.reads(3));
  EXPECT_FALSE(batch.reads(1));
  EXPECT_EQ(batch.column(3).size(), 2u);
  EXPECT_TRUE(batch.column(1).empty());
  EXPECT_EQ(batch.TakeRow(1), *some);
  batch.Clear();
  EXPECT_EQ(batch.rows(), 0u);

  // A skipped column is still checked, by both decoders, and a record that
  // fails leaves the column-major batch as it was. Column 1 ("x") starts at
  // byte 6: tag, NULL flag, then a 4-byte length at bytes 8-11.
  ASSERT_TRUE(batch.Append(rec).ok());
  auto decode = [&](Slice bad) {
    StatusCode by_row = DecodeRow(bad, 4, &columns).status().code();
    EXPECT_EQ(batch.Append(bad).code(), by_row);
    EXPECT_EQ(batch.rows(), 1u);
    return by_row;
  };
  auto corrupt = [&](size_t at, std::initializer_list<uint8_t> bytes) {
    Bytes bad = rec;
    for (uint8_t b : bytes) bad[at++] = b;
    return decode(bad);
  };
  EXPECT_EQ(corrupt(6, {0x7f}), StatusCode::kCorruption);  // bad tag
  EXPECT_EQ(corrupt(8, {0xe8, 0x03}), StatusCode::kCorruption);  // 1000 bytes
  EXPECT_EQ(corrupt(8, {0xff, 0xff, 0xff, 0xff}), StatusCode::kCorruption);
  EXPECT_EQ(decode(Slice(rec.data(), 9)),
            StatusCode::kCorruption);  // length cut short
  EXPECT_EQ(decode(Slice(rec.data(), rec.size() - 1)),
            StatusCode::kCorruption);  // last read column cut short
  // The next record lines up with the row before the failed ones.
  Bytes next = EncodeRow({types::Value::Int32(8), types::Value::String("y"),
                          types::Value::Int64(5), types::Value::Binary({4})});
  ASSERT_TRUE(batch.Append(next).ok());
  EXPECT_EQ(batch.rows(), 2u);
  EXPECT_EQ(batch.TakeRow(0), *some);
  EXPECT_EQ(batch.TakeRow(1), *DecodeRow(next, 4, &columns));
}

TEST(CatalogTest, CaseInsensitiveLookups) {
  Catalog catalog;
  TableDef t;
  t.name = "Customers";
  t.columns = {{"Name", TypeId::kString, EncryptionType::Plaintext(), true}};
  ASSERT_TRUE(catalog.CreateTable(std::move(t)).ok());
  auto found = catalog.GetTable("CUSTOMERS");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->FindColumn("name"), 0);
}

}  // namespace
}  // namespace aedb::sql
