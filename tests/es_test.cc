#include <gtest/gtest.h>

#include "crypto/cell_codec.h"
#include "crypto/drbg.h"
#include "es/evaluator.h"
#include "es/program.h"

namespace aedb::es {
namespace {

using types::EncKind;
using types::EncryptionType;
using types::TypeId;
using types::Value;

// Minimal crypto provider for evaluator tests (stands in for the enclave's).
class TestCrypto : public CellCryptoProvider {
 public:
  TestCrypto() : cek_(crypto::SecureRandom(32)), codec_(cek_) {}

  Result<Value> DecryptDatum(const EncryptionType& enc, TypeId,
                             const Value& wire) override {
    (void)enc;
    Bytes plain;
    AEDB_ASSIGN_OR_RETURN(plain, codec_.Decrypt(wire.bin()));
    size_t off = 0;
    return Value::Decode(plain, &off);
  }
  Result<Value> EncryptDatum(const EncryptionType& enc,
                             const Value& plain) override {
    return Value::Binary(codec_.Encrypt(plain.Encode(), enc.scheme()));
  }

  Value Cell(const Value& v) {
    return Value::Binary(
        codec_.Encrypt(v.Encode(), crypto::EncryptionScheme::kRandomized));
  }

 private:
  Bytes cek_;
  crypto::CellCodec codec_;
};

EvalContext HostCtx() { return EvalContext{}; }

Result<std::vector<Value>> RunProgram(const EsProgram& p, std::vector<Value> inputs,
                               EvalContext ctx = HostCtx()) {
  EsEvaluator ev(ctx);
  return ev.Eval(p, inputs);
}

/// Rows turned into a morsel's columns: column j holds every row's value j.
Columns ColumnsOf(const std::vector<std::vector<Value>>& rows) {
  Columns columns(rows.empty() ? 0 : rows[0].size());
  for (const std::vector<Value>& row : rows) {
    for (size_t j = 0; j < row.size(); ++j) columns[j].push_back(row[j]);
  }
  return columns;
}

/// Runs EvalBatch over `rows` sent as a column-major morsel.
Result<Columns> EvalRows(EsEvaluator& ev, const EsProgram& p,
                         const std::vector<std::vector<Value>>& rows) {
  const Columns columns = ColumnsOf(rows);
  return ev.EvalBatch(p, Morsel::Of(rows.size(), columns));
}

TEST(EsProgramTest, SerializeRoundTrip) {
  EsProgram p;
  p.GetData(0, TypeId::kInt32);
  p.Const(Value::Int32(5));
  p.Comp(CompareOp::kLt);
  p.SetData(0, TypeId::kBool);
  EsProgram inner;
  inner.GetData(0, TypeId::kString,
                EncryptionType::Encrypted(EncKind::kRandomized, 3, true));
  inner.GetData(1, TypeId::kString,
                EncryptionType::Encrypted(EncKind::kRandomized, 3, true));
  inner.Comp(CompareOp::kEq);
  inner.SetData(0, TypeId::kBool);
  p.TMEval(inner, 2, 1);

  Bytes ser = p.Serialize();
  auto back = EsProgram::Deserialize(ser);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Serialize(), ser);
  EXPECT_EQ(back->num_outputs(), p.num_outputs());
  EXPECT_TRUE(back->RequiresEnclave());
  EXPECT_EQ(back->ReferencedCekIds(), std::vector<uint32_t>{3});
  EXPECT_FALSE(back->ProducesCiphertext());
}

TEST(EsProgramTest, DeserializeRejectsGarbage) {
  Bytes junk = {9, 9, 9};
  EXPECT_FALSE(EsProgram::Deserialize(junk).ok());
}

TEST(EsProgramTest, ProducesCiphertextDetection) {
  EsProgram p;
  p.GetData(0, TypeId::kInt32);
  p.SetData(0, TypeId::kInt32,
            EncryptionType::Encrypted(EncKind::kRandomized, 1, true));
  EXPECT_TRUE(p.ProducesCiphertext());
}

TEST(EsEvaluatorTest, ComparisonOps) {
  for (auto [op, expected] : std::initializer_list<std::pair<CompareOp, bool>>{
           {CompareOp::kEq, false},
           {CompareOp::kNe, true},
           {CompareOp::kLt, true},
           {CompareOp::kLe, true},
           {CompareOp::kGt, false},
           {CompareOp::kGe, false}}) {
    EsProgram p;
    p.GetData(0, TypeId::kInt32);
    p.GetData(1, TypeId::kInt32);
    p.Comp(op);
    p.SetData(0, TypeId::kBool);
    auto r = RunProgram(p, {Value::Int32(1), Value::Int32(2)});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0].bool_v(), expected) << CompareOpName(op);
  }
}

TEST(EsEvaluatorTest, ArithmeticAndPrecedenceShape) {
  // (a + b) * c - a / b
  EsProgram p;
  p.GetData(0, TypeId::kInt64);
  p.GetData(1, TypeId::kInt64);
  p.Arith(OpCode::kAdd);
  p.GetData(2, TypeId::kInt64);
  p.Arith(OpCode::kMul);
  p.GetData(0, TypeId::kInt64);
  p.GetData(1, TypeId::kInt64);
  p.Arith(OpCode::kDiv);
  p.Arith(OpCode::kSub);
  p.SetData(0, TypeId::kInt64);
  auto r = RunProgram(p, {Value::Int64(10), Value::Int64(3), Value::Int64(2)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].i64(), (10 + 3) * 2 - 10 / 3);
}

TEST(EsEvaluatorTest, DoubleArithmetic) {
  EsProgram p;
  p.GetData(0, TypeId::kDouble);
  p.GetData(1, TypeId::kInt32);
  p.Arith(OpCode::kMul);
  p.SetData(0, TypeId::kDouble);
  auto r = RunProgram(p, {Value::Double(1.5), Value::Int32(4)});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].dbl(), 6.0);
}

TEST(EsEvaluatorTest, DivisionByZeroFails) {
  EsProgram p;
  p.Const(Value::Int32(1));
  p.Const(Value::Int32(0));
  p.Arith(OpCode::kDiv);
  p.SetData(0, TypeId::kInt64);
  EXPECT_FALSE(RunProgram(p, {}).ok());
}

TEST(EsEvaluatorTest, ThreeValuedLogic) {
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL; NULL OR TRUE = TRUE.
  auto logic = [](OpCode op, Value a, Value b) {
    EsProgram p;
    p.GetData(0, TypeId::kBool);
    p.GetData(1, TypeId::kBool);
    p.Logic(op);
    p.SetData(0, TypeId::kBool);
    return RunProgram(p, {a, b});
  };
  Value null_bool = Value::Null(TypeId::kBool);
  auto r1 = logic(OpCode::kAnd, null_bool, Value::Bool(false));
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE((*r1)[0].is_null());
  EXPECT_FALSE((*r1)[0].bool_v());
  auto r2 = logic(OpCode::kAnd, null_bool, Value::Bool(true));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE((*r2)[0].is_null());
  auto r3 = logic(OpCode::kOr, null_bool, Value::Bool(true));
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE((*r3)[0].bool_v());
  auto r4 = logic(OpCode::kOr, null_bool, Value::Bool(false));
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE((*r4)[0].is_null());
}

TEST(EsEvaluatorTest, ComparisonWithNullIsNull) {
  EsProgram p;
  p.GetData(0, TypeId::kInt32);
  p.Const(Value::Int32(5));
  p.Comp(CompareOp::kEq);
  p.SetData(0, TypeId::kBool);
  auto r = RunProgram(p, {Value::Null(TypeId::kInt32)});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)[0].is_null());
}

TEST(EsEvaluatorTest, NotAndIsNull) {
  EsProgram p;
  p.GetData(0, TypeId::kBool);
  p.Logic(OpCode::kNot);
  p.SetData(0, TypeId::kBool);
  p.GetData(1, TypeId::kInt32);
  p.IsNull();
  p.SetData(1, TypeId::kBool);
  auto r = RunProgram(p, {Value::Bool(true), Value::Null(TypeId::kInt32)});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE((*r)[0].bool_v());
  EXPECT_TRUE((*r)[1].bool_v());
}

TEST(EsEvaluatorTest, LikeMatching) {
  EsProgram p;
  p.GetData(0, TypeId::kString);
  p.GetData(1, TypeId::kString);
  p.Like();
  p.SetData(0, TypeId::kBool);
  auto r = RunProgram(p, {Value::String("BARNES"), Value::String("BAR%")});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)[0].bool_v());
}

TEST(EsEvaluatorTest, HostRefusesEncryptedAnnotations) {
  // The host evaluator has no crypto provider: touching an encrypted
  // annotation must fail — by construction the host never sees plaintext.
  EsProgram p;
  p.GetData(0, TypeId::kInt32,
            EncryptionType::Encrypted(EncKind::kRandomized, 1, true));
  p.SetData(0, TypeId::kInt32);
  auto r = RunProgram(p, {Value::Binary({1, 2, 3})});
  EXPECT_TRUE(r.status().IsSecurityError());
}

TEST(EsEvaluatorTest, EnclaveDecryptCompare) {
  TestCrypto crypto;
  EvalContext ctx;
  ctx.crypto = &crypto;
  EsProgram p;
  auto enc = EncryptionType::Encrypted(EncKind::kRandomized, 1, true);
  p.GetData(0, TypeId::kString, enc);
  p.GetData(1, TypeId::kString, enc);
  p.Comp(CompareOp::kEq);
  p.SetData(0, TypeId::kBool);
  auto r = RunProgram(p, {crypto.Cell(Value::String("SMITH")),
                   crypto.Cell(Value::String("SMITH"))},
               ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE((*r)[0].bool_v());
}

TEST(EsEvaluatorTest, TaintBlocksCiphertextVsPlaintextComparison) {
  // An adversarial program comparing a decrypted column against a chosen
  // plaintext constant must be rejected (paper §4.4.1 security checks).
  TestCrypto crypto;
  EvalContext ctx;
  ctx.crypto = &crypto;
  EsProgram p;
  p.GetData(0, TypeId::kString,
            EncryptionType::Encrypted(EncKind::kRandomized, 1, true));
  p.Const(Value::String("guess"));
  p.Comp(CompareOp::kEq);
  p.SetData(0, TypeId::kBool);
  auto r = RunProgram(p, {crypto.Cell(Value::String("secret"))}, ctx);
  EXPECT_TRUE(r.status().IsSecurityError()) << r.status().ToString();
}

TEST(EsEvaluatorTest, TaintBlocksPlaintextExfiltration) {
  // Decrypt-then-output-as-plaintext must be rejected.
  TestCrypto crypto;
  EvalContext ctx;
  ctx.crypto = &crypto;
  EsProgram p;
  p.GetData(0, TypeId::kString,
            EncryptionType::Encrypted(EncKind::kRandomized, 1, true));
  p.SetData(0, TypeId::kString);  // plaintext annotation!
  auto r = RunProgram(p, {crypto.Cell(Value::String("secret"))}, ctx);
  EXPECT_TRUE(r.status().IsSecurityError());
}

TEST(EsEvaluatorTest, EncryptionRequiresAuthorization) {
  TestCrypto crypto;
  EvalContext ctx;
  ctx.crypto = &crypto;
  ctx.encryption_authorized = false;
  EsProgram p;
  p.GetData(0, TypeId::kInt32);
  p.SetData(0, TypeId::kInt32,
            EncryptionType::Encrypted(EncKind::kRandomized, 1, true));
  auto r = RunProgram(p, {Value::Int32(5)}, ctx);
  EXPECT_TRUE(r.status().IsPermissionDenied());

  ctx.encryption_authorized = true;
  auto r2 = RunProgram(p, {Value::Int32(5)}, ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)[0].type(), TypeId::kBinary);  // ciphertext out
}

TEST(EsEvaluatorTest, StackUnderflowDetected) {
  EsProgram p;
  p.Comp(CompareOp::kEq);
  p.SetData(0, TypeId::kBool);
  EXPECT_FALSE(RunProgram(p, {}).ok());
}

TEST(EsEvaluatorTest, UnwrittenOutputDetected) {
  EsProgram p;
  p.set_num_outputs(2);
  p.Const(Value::Int32(1));
  p.SetData(0, TypeId::kInt32);
  EXPECT_FALSE(RunProgram(p, {}).ok());
}

TEST(EsEvaluatorTest, InputIndexOutOfRange) {
  EsProgram p;
  p.GetData(3, TypeId::kInt32);
  p.SetData(0, TypeId::kInt32);
  EXPECT_FALSE(RunProgram(p, {Value::Int32(1)}).ok());
}

TEST(EsEvaluatorTest, GetDataTypeMismatch) {
  EsProgram p;
  p.GetData(0, TypeId::kString);
  p.SetData(0, TypeId::kString);
  EXPECT_FALSE(RunProgram(p, {Value::Int32(1)}).ok());
}

// TMEval host→"enclave" routing via a test invoker that evaluates the morsel
// row by row with the row interpreter. `calls` counts crossings, one per
// morsel, whatever its size.
class TestInvoker : public EnclaveInvoker {
 public:
  explicit TestInvoker(TestCrypto* crypto) : crypto_(crypto) {}
  Result<Columns> EvalInEnclaveBatch(Slice program_bytes, const Morsel& morsel,
                                     uint32_t) override {
    ++calls;
    last_batch_size = morsel.rows;
    EsProgram p;
    AEDB_ASSIGN_OR_RETURN(p, EsProgram::Deserialize(program_bytes));
    EvalContext ctx;
    ctx.crypto = crypto_;
    EsEvaluator ev(ctx);
    Columns out(p.num_outputs());
    for (size_t r = 0; r < morsel.rows; ++r) {
      std::vector<Value> inputs;
      for (size_t c = 0; c < morsel.columns.size(); ++c) {
        inputs.push_back(morsel.at(c, r));
      }
      std::vector<Value> row;
      AEDB_ASSIGN_OR_RETURN(row, ev.Eval(p, inputs));
      for (size_t k = 0; k < row.size(); ++k) out[k].push_back(row[k]);
    }
    return out;
  }
  TestCrypto* crypto_;
  int calls = 0;
  size_t last_batch_size = 0;
};

TEST(EsEvaluatorTest, TMEvalRoutesToEnclave) {
  TestCrypto crypto;
  TestInvoker invoker(&crypto);
  EvalContext host_ctx;
  host_ctx.enclave = &invoker;

  auto enc = EncryptionType::Encrypted(EncKind::kRandomized, 1, true);
  EsProgram inner;
  inner.GetData(0, TypeId::kInt64, enc);
  inner.GetData(1, TypeId::kInt64, enc);
  inner.Comp(CompareOp::kLt);
  inner.SetData(0, TypeId::kBool);

  EsProgram host;
  host.GetData(0, TypeId::kBinary);
  host.GetData(1, TypeId::kBinary);
  host.TMEval(inner, 2, 1);
  host.SetData(0, TypeId::kBool);

  auto r = RunProgram(host, {crypto.Cell(Value::Int64(3)), crypto.Cell(Value::Int64(9))},
               host_ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE((*r)[0].bool_v());
  EXPECT_EQ(invoker.calls, 1);
  EXPECT_EQ(invoker.last_batch_size, 1u);  // the row crossed as a morsel of one
}

TEST(EsEvaluatorTest, TMEvalWithoutEnclaveFails) {
  EsProgram inner;
  inner.Const(Value::Int32(1));
  inner.SetData(0, TypeId::kInt32);
  EsProgram host;
  host.TMEval(inner, 0, 1);
  host.SetData(0, TypeId::kInt32);
  auto r = RunProgram(host, {});
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// ---- vectorized EvalBatch ----

TEST(EsEvaluatorTest, EvalBatchMatchesRowLoop) {
  // (a + b) * 2 < 20, mixed arithmetic and comparison over plaintext rows.
  EsProgram p;
  p.GetData(0, TypeId::kInt64);
  p.GetData(1, TypeId::kInt64);
  p.Arith(OpCode::kAdd);
  p.Const(Value::Int64(2));
  p.Arith(OpCode::kMul);
  p.Const(Value::Int64(20));
  p.Comp(CompareOp::kLt);
  p.SetData(0, TypeId::kBool);

  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 7; ++i) {
    rows.push_back({Value::Int64(i), Value::Int64(i * 3)});
  }
  EsEvaluator ev(HostCtx());
  auto batch = EvalRows(ev, p, rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ((*batch)[0].size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    auto scalar = RunProgram(p, rows[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ((*batch)[0][i].bool_v(), (*scalar)[0].bool_v()) << "row " << i;
  }
}

TEST(EsEvaluatorTest, EvalBatchSizeOneIsRowAtATime) {
  EsProgram p;
  p.GetData(0, TypeId::kInt32);
  p.Const(Value::Int32(5));
  p.Comp(CompareOp::kGe);
  p.SetData(0, TypeId::kBool);
  EsEvaluator ev(HostCtx());
  auto one = EvalRows(ev, p, {{Value::Int32(7)}});
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  ASSERT_EQ((*one)[0].size(), 1u);
  EXPECT_TRUE((*one)[0][0].bool_v());
  auto empty = ev.EvalBatch(p, Morsel{});
  ASSERT_TRUE(empty.ok());
  ASSERT_EQ(empty->size(), 1u);
  EXPECT_TRUE((*empty)[0].empty());
}

TEST(EsEvaluatorTest, EvalBatchReportsLowestFailingRowError) {
  // Division by zero is data-dependent: the row loop would have surfaced the
  // first failing row's error, so the batch must report exactly that.
  EsProgram p;
  p.GetData(0, TypeId::kInt64);
  p.GetData(1, TypeId::kInt64);
  p.Arith(OpCode::kDiv);
  p.SetData(0, TypeId::kInt64);
  std::vector<std::vector<Value>> rows = {
      {Value::Int64(10), Value::Int64(2)},
      {Value::Int64(10), Value::Int64(0)},  // fails
      {Value::Int64(9), Value::Int64(3)},
  };
  EsEvaluator ev(HostCtx());
  auto batch = EvalRows(ev, p, rows);
  auto scalar = RunProgram(p, rows[1]);
  ASSERT_FALSE(batch.ok());
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(batch.status().code(), scalar.status().code());
}

TEST(EsEvaluatorTest, EvalBatchEnforcesTaint) {
  // The §4.4.1 security check must hold for every row of a batch: comparing
  // a decrypted column against attacker-chosen plaintext is rejected.
  TestCrypto crypto;
  EvalContext ctx;
  ctx.crypto = &crypto;
  EsProgram p;
  p.GetData(0, TypeId::kString,
            EncryptionType::Encrypted(EncKind::kRandomized, 1, true));
  p.Const(Value::String("guess"));
  p.Comp(CompareOp::kEq);
  p.SetData(0, TypeId::kBool);
  std::vector<std::vector<Value>> rows = {
      {crypto.Cell(Value::String("a"))},
      {crypto.Cell(Value::String("b"))},
  };
  EsEvaluator ev(ctx);
  auto r = EvalRows(ev, p, rows);
  EXPECT_TRUE(r.status().IsSecurityError()) << r.status().ToString();
}

TEST(EsEvaluatorTest, EvalBatchCrossesEnclaveOncePerMorsel) {
  TestCrypto crypto;
  TestInvoker invoker(&crypto);
  EvalContext host_ctx;
  host_ctx.enclave = &invoker;

  auto enc = EncryptionType::Encrypted(EncKind::kRandomized, 1, true);
  EsProgram inner;
  inner.GetData(0, TypeId::kInt64, enc);
  inner.GetData(1, TypeId::kInt64, enc);
  inner.Comp(CompareOp::kLt);
  inner.SetData(0, TypeId::kBool);
  EsProgram host;
  host.GetData(0, TypeId::kBinary);
  host.GetData(1, TypeId::kBinary);
  host.TMEval(inner, 2, 1);
  host.SetData(0, TypeId::kBool);

  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back({crypto.Cell(Value::Int64(i)), crypto.Cell(Value::Int64(5))});
  }
  EsEvaluator ev(host_ctx);
  auto r = EvalRows(ev, host, rows);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(invoker.calls, 1);  // nine rows, one crossing
  EXPECT_EQ(invoker.last_batch_size, 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ((*r)[0][i].bool_v(), i < 5) << "row " << i;
  }
}

// Rows that failed on the host before a TMEval stay out of the enclave: the
// morsel crosses with the running rows only, and the error reported is the
// failed row's, as the row loop reports it.
TEST(EsEvaluatorTest, RowsFailedOnTheHostStayOutOfTheEnclave) {
  TestCrypto crypto;
  TestInvoker invoker(&crypto);
  EvalContext host_ctx;
  host_ctx.enclave = &invoker;

  auto enc = EncryptionType::Encrypted(EncKind::kRandomized, 1, true);
  EsProgram inner;
  inner.GetData(0, TypeId::kInt64, enc);
  inner.GetData(1, TypeId::kInt64, enc);
  inner.Comp(CompareOp::kLt);
  inner.SetData(0, TypeId::kBool);
  EsProgram host;
  host.GetData(0, TypeId::kBool);  // row 2 holds an int: fails here
  host.GetData(1, TypeId::kBinary);
  host.GetData(2, TypeId::kBinary);
  host.TMEval(inner, 2, 1);
  host.Logic(OpCode::kAnd);
  host.SetData(0, TypeId::kBool);

  Columns columns(3);
  for (int i = 0; i < 4; ++i) {
    columns[0].push_back(i == 2 ? Value::Int32(1) : Value::Bool(true));
    columns[1].push_back(crypto.Cell(Value::Int64(i)));
  }
  columns[2].push_back(crypto.Cell(Value::Int64(2)));
  EsEvaluator ev(host_ctx);
  auto r = ev.EvalBatch(host, Morsel::Of(4, columns));
  auto row = RunProgram(host, {columns[0][2], columns[1][2], columns[2][0]},
                        host_ctx);
  ASSERT_FALSE(r.ok());
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(r.status().message(), row.status().message());
  EXPECT_EQ(invoker.calls, 1);  // the morsel; the row loop above never crossed
  EXPECT_EQ(invoker.last_batch_size, 3u);
}

// A one-value column is shared by every row: the batch equals the row loop
// over rows that each repeat the value.
TEST(EsEvaluatorTest, SharedColumnMatchesRowLoop) {
  EsProgram p;
  p.GetData(0, TypeId::kInt64);
  p.GetData(1, TypeId::kInt64);
  p.Arith(OpCode::kSub);
  p.GetData(1, TypeId::kInt64);
  p.Comp(CompareOp::kLt);
  p.SetData(0, TypeId::kBool);
  Columns columns(2);
  for (int i = 0; i < 7; ++i) columns[0].push_back(Value::Int64(i * 2));
  columns[1].push_back(Value::Int64(5));
  EsEvaluator ev(HostCtx());
  auto batch = ev.EvalBatch(p, Morsel::Of(7, columns));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ((*batch)[0].size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    auto scalar = RunProgram(p, {columns[0][i], columns[1][0]});
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ((*batch)[0][i].bool_v(), (*scalar)[0].bool_v()) << "row " << i;
  }
}

// A shared value that fails fails every row, with the error a morsel of one
// row reports; rows that failed earlier keep their own error.
TEST(EsEvaluatorTest, FailingSharedValueFailsEveryRow) {
  EsProgram p;
  p.GetData(0, TypeId::kString);  // fails per lane on an int
  p.IsNull();
  p.GetData(1, TypeId::kInt64);
  p.GetData(2, TypeId::kInt64);
  p.Arith(OpCode::kDiv);  // shared / shared: fails once, for every row
  p.IsNull();
  p.Logic(OpCode::kOr);
  p.SetData(0, TypeId::kBool);
  Columns columns = {{Value::String("a"), Value::String("b")},
                     {Value::Int64(1)},
                     {Value::Int64(0)}};
  EsEvaluator ev(HostCtx());
  auto batch = ev.EvalBatch(p, Morsel::Of(2, columns));
  auto one = RunProgram(p, {columns[0][0], columns[1][0], columns[2][0]});
  ASSERT_FALSE(batch.ok());
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(batch.status().code(), one.status().code());
  EXPECT_EQ(batch.status().message(), one.status().message());

  // Row 0 fails its own type check first: its error is the one reported.
  columns[0][0] = Value::Int32(3);
  batch = ev.EvalBatch(p, Morsel::Of(2, columns));
  one = RunProgram(p, {columns[0][0], columns[1][0], columns[2][0]});
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsTypeCheckError()) << batch.status().ToString();
  EXPECT_EQ(batch.status().message(), one.status().message());
}

// A column must hold one value per row or a single shared value.
TEST(EsEvaluatorTest, MorselColumnOfWrongLengthRejected) {
  EsProgram p;
  p.GetData(0, TypeId::kInt64);
  p.SetData(0, TypeId::kInt64);
  Columns columns = {{Value::Int64(1), Value::Int64(2)}};
  EsEvaluator ev(HostCtx());
  EXPECT_EQ(ev.EvalBatch(p, Morsel::Of(3, columns)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace aedb::es
