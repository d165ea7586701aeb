#include "es/evaluator.h"

namespace aedb::es {

using types::EncKind;
using types::TypeId;
using types::Value;

namespace {

bool TypeCompatible(TypeId declared, const Value& v) {
  if (v.is_null()) return true;
  if (v.type() == declared) return true;
  // Numeric widening between int widths is fine; everything else must match.
  bool declared_numeric = declared == TypeId::kInt32 ||
                          declared == TypeId::kInt64 ||
                          declared == TypeId::kDouble;
  return declared_numeric && v.IsNumeric();
}

/// True when `a` is a binary cell with exactly the bytes of `b`.
bool SameCell(const Value& a, const Value& b) {
  return !a.is_null() && a.type() == TypeId::kBinary && !b.is_null() &&
         b.type() == TypeId::kBinary && a.bin() == b.bin();
}

// ---------------------------------------------------------------------------
// Scalar kernels shared by the row interpreter and the batch interpreter.
// Each encodes the per-value semantics of exactly one opcode, so the two
// execution modes cannot diverge: the batch path runs the same kernel once
// per lane.

Result<Value> CompKernel(CompareOp cmp, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null(TypeId::kBool);
  int c;
  AEDB_ASSIGN_OR_RETURN(c, a.Compare(b));
  return Value::Bool(CompareOpHolds(cmp, c));
}

Result<Value> LikeKernel(const Value& value, const Value& pattern) {
  if (value.is_null() || pattern.is_null()) return Value::Null(TypeId::kBool);
  if (value.type() != TypeId::kString || pattern.type() != TypeId::kString) {
    return Status::TypeCheckError("LIKE requires string operands");
  }
  return Value::Bool(types::SqlLike(value.str(), pattern.str()));
}

Result<Value> ArithKernel(OpCode op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null(TypeId::kInt64);
  if (!a.IsNumeric() || !b.IsNumeric()) {
    return Status::TypeCheckError("arithmetic requires numeric operands");
  }
  bool as_double =
      a.type() == TypeId::kDouble || b.type() == TypeId::kDouble;
  if (as_double) {
    double x = a.AsDouble(), y = b.AsDouble();
    switch (op) {
      case OpCode::kAdd: return Value::Double(x + y);
      case OpCode::kSub: return Value::Double(x - y);
      case OpCode::kMul: return Value::Double(x * y);
      default:
        if (y == 0.0) return Status::InvalidArgument("division by zero");
        return Value::Double(x / y);
    }
  }
  int64_t x = a.AsInt64(), y = b.AsInt64();
  switch (op) {
    case OpCode::kAdd: return Value::Int64(x + y);
    case OpCode::kSub: return Value::Int64(x - y);
    case OpCode::kMul: return Value::Int64(x * y);
    default:
      if (y == 0) return Status::InvalidArgument("division by zero");
      return Value::Int64(x / y);
  }
}

Result<Value> NegKernel(const Value& a) {
  if (a.is_null()) return Value::Null(TypeId::kInt64);
  if (!a.IsNumeric()) {
    return Status::TypeCheckError("negation requires a numeric operand");
  }
  return a.type() == TypeId::kDouble ? Value::Double(-a.AsDouble())
                                     : Value::Int64(-a.AsInt64());
}

// 0/1/-1(unknown) for Kleene three-valued logic.
Result<int> TriBool(const Value& v) {
  if (v.is_null()) return -1;
  if (v.type() != TypeId::kBool) {
    return Status::TypeCheckError("logic op requires boolean operands");
  }
  return v.bool_v() ? 1 : 0;
}

Result<Value> LogicKernel(OpCode op, const Value& a, const Value& b) {
  int x, y;
  AEDB_ASSIGN_OR_RETURN(x, TriBool(a));
  AEDB_ASSIGN_OR_RETURN(y, TriBool(b));
  int r;
  if (op == OpCode::kAnd) {
    r = (x == 0 || y == 0) ? 0 : (x == 1 && y == 1 ? 1 : -1);
  } else {
    r = (x == 1 || y == 1) ? 1 : (x == 0 && y == 0 ? 0 : -1);
  }
  return r == -1 ? Value::Null(TypeId::kBool) : Value::Bool(r == 1);
}

Result<Value> NotKernel(const Value& a) {
  if (a.is_null()) return Value::Null(TypeId::kBool);
  if (a.type() != TypeId::kBool) {
    return Status::TypeCheckError("NOT requires a boolean operand");
  }
  return Value::Bool(!a.bool_v());
}

// Two operands may mix plaintext-provenance and a single CEK, but never two
// different CEKs; the join keeps the stronger taint.
Status JoinTaint(uint32_t a, uint32_t b, uint32_t* out) {
  if (a != 0 && b != 0 && a != b) {
    return Status::SecurityError(
        "operands decrypted with different CEKs cannot be combined");
  }
  *out = a != 0 ? a : b;
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Row-at-a-time interpreter.

Result<std::vector<Value>> EsEvaluator::Eval(const EsProgram& program,
                                             const std::vector<Value>& inputs) {
  std::vector<Slot> stack;
  std::vector<Value> outputs(program.num_outputs());
  std::vector<bool> written(program.num_outputs(), false);

  auto pop = [&stack]() -> Result<Slot> {
    if (stack.empty()) return Status::Corruption("ES stack underflow");
    Slot s = std::move(stack.back());
    stack.pop_back();
    return s;
  };

  for (const Instruction& ins : program.instructions()) {
    switch (ins.op) {
      case OpCode::kGetData: {
        if (ins.index >= inputs.size()) {
          return Status::InvalidArgument("GetData input index out of range");
        }
        const Value& wire = inputs[ins.index];
        if (ins.enc.is_encrypted()) {
          if (ctx_.crypto == nullptr) {
            return Status::SecurityError(
                "host evaluator cannot access encrypted data");
          }
          Value plain;
          AEDB_ASSIGN_OR_RETURN(
              plain, ctx_.crypto->DecryptDatum(ins.enc, ins.data_type, wire));
          if (!TypeCompatible(ins.data_type, plain)) {
            return Status::TypeCheckError("decrypted datum has wrong type");
          }
          stack.push_back(Slot{std::move(plain), ins.enc.cek_id});
        } else {
          if (!TypeCompatible(ins.data_type, wire)) {
            return Status::TypeCheckError("GetData type mismatch");
          }
          stack.push_back(Slot{wire, 0});
        }
        break;
      }
      case OpCode::kSetData: {
        Slot s;
        AEDB_ASSIGN_OR_RETURN(s, pop());
        if (ins.index >= outputs.size()) {
          return Status::InvalidArgument("SetData output index out of range");
        }
        if (ins.enc.is_encrypted()) {
          if (ctx_.crypto == nullptr) {
            return Status::SecurityError(
                "host evaluator cannot produce encrypted data");
          }
          if (!ctx_.encryption_authorized) {
            return Status::PermissionDenied(
                "enclave Encrypt requires client authorization");
          }
          AEDB_ASSIGN_OR_RETURN(outputs[ins.index],
                                ctx_.crypto->EncryptDatum(ins.enc, s.value));
        } else {
          if (ctx_.crypto != nullptr && s.taint_cek != 0 &&
              !ctx_.encryption_authorized) {
            // Only a client-authorized conversion (decryption DDL) may emit
            // decrypted data in the clear.
            return Status::SecurityError(
                "refusing to emit decrypted data as plaintext");
          }
          outputs[ins.index] = std::move(s.value);
        }
        written[ins.index] = true;
        break;
      }
      case OpCode::kConst:
        stack.push_back(Slot{ins.constant, 0});
        break;
      case OpCode::kComp: {
        Slot b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        if (a.taint_cek != b.taint_cek) {
          return Status::SecurityError(
              "comparison operands have different encryption provenance");
        }
        Value r;
        AEDB_ASSIGN_OR_RETURN(r, CompKernel(ins.cmp, a.value, b.value));
        // Predicate results are the authorized leak: untainted, in the clear.
        stack.push_back(Slot{std::move(r), 0});
        break;
      }
      case OpCode::kLike: {
        Slot pattern, value;
        AEDB_ASSIGN_OR_RETURN(pattern, pop());
        AEDB_ASSIGN_OR_RETURN(value, pop());
        if (value.taint_cek != pattern.taint_cek) {
          return Status::SecurityError(
              "LIKE operands have different encryption provenance");
        }
        Value r;
        AEDB_ASSIGN_OR_RETURN(r, LikeKernel(value.value, pattern.value));
        stack.push_back(Slot{std::move(r), 0});
        break;
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv: {
        Slot b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        uint32_t taint;
        AEDB_RETURN_IF_ERROR(JoinTaint(a.taint_cek, b.taint_cek, &taint));
        Value r;
        AEDB_ASSIGN_OR_RETURN(r, ArithKernel(ins.op, a.value, b.value));
        stack.push_back(Slot{std::move(r), taint});
        break;
      }
      case OpCode::kNeg: {
        Slot a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        Value r;
        AEDB_ASSIGN_OR_RETURN(r, NegKernel(a.value));
        stack.push_back(Slot{std::move(r), a.taint_cek});
        break;
      }
      case OpCode::kAnd:
      case OpCode::kOr: {
        Slot b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        uint32_t taint;
        AEDB_RETURN_IF_ERROR(JoinTaint(a.taint_cek, b.taint_cek, &taint));
        Value r;
        AEDB_ASSIGN_OR_RETURN(r, LogicKernel(ins.op, a.value, b.value));
        stack.push_back(Slot{std::move(r), taint});
        break;
      }
      case OpCode::kNot: {
        Slot a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        Value r;
        AEDB_ASSIGN_OR_RETURN(r, NotKernel(a.value));
        stack.push_back(Slot{std::move(r), a.taint_cek});
        break;
      }
      case OpCode::kIsNull: {
        Slot a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        // Nullness of an authorized predicate operand is part of the
        // operational leakage surface; result is a clear boolean.
        stack.push_back(Slot{Value::Bool(a.value.is_null()), 0});
        break;
      }
      case OpCode::kTMEval: {
        if (ctx_.crypto != nullptr) {
          return Status::SecurityError("TMEval not allowed inside the enclave");
        }
        if (ctx_.enclave == nullptr) {
          return Status::FailedPrecondition(
              "expression requires an enclave but none is available");
        }
        if (stack.size() < ins.n_inputs) {
          return Status::Corruption("ES stack underflow at TMEval");
        }
        std::vector<std::vector<Value>> sub_batch(1);
        sub_batch[0].resize(ins.n_inputs);
        for (uint32_t i = ins.n_inputs; i-- > 0;) {
          sub_batch[0][i] = std::move(stack.back().value);
          stack.pop_back();
        }
        std::vector<std::vector<Value>> sub_outputs;
        AEDB_ASSIGN_OR_RETURN(
            sub_outputs, ctx_.enclave->EvalInEnclaveBatch(
                             ins.subprogram, sub_batch, ins.n_outputs));
        if (sub_outputs.size() != 1 ||
            sub_outputs[0].size() != ins.n_outputs) {
          return Status::Internal("enclave returned wrong output arity");
        }
        for (Value& v : sub_outputs[0]) stack.push_back(Slot{std::move(v), 0});
        break;
      }
    }
  }
  for (size_t i = 0; i < written.size(); ++i) {
    if (!written[i]) {
      return Status::Corruption("ES program left output " + std::to_string(i) +
                                " unwritten");
    }
  }
  return outputs;
}

// ---------------------------------------------------------------------------
// Batch interpreter: the stack holds columns (one value per row) instead of
// scalars. Structural failures (stack underflow, bad indices, taint
// violations, missing enclave) are data-independent and abort the whole
// batch — identical to what every row would have reported. Data-dependent
// failures are tracked per row; the batch completes for the surviving rows
// and the error surfaced is the first error of the lowest failing row, which
// is what the row loop would have returned.

Result<std::vector<std::vector<Value>>> EsEvaluator::EvalBatch(
    const EsProgram& program, const std::vector<std::vector<Value>>& rows) {
  const size_t n = rows.size();
  std::vector<std::vector<Value>> outputs;
  if (n == 0) return outputs;
  if (n == 1) {
    // Degenerate case: the row path, instruction for instruction.
    std::vector<Value> out;
    AEDB_ASSIGN_OR_RETURN(out, Eval(program, rows[0]));
    outputs.push_back(std::move(out));
    return outputs;
  }

  // One column per stack slot. Taint is per column: it derives from GetData
  // annotations and taint joins only, never from row data.
  struct Column {
    std::vector<Value> v;
    uint32_t taint_cek = 0;
  };
  std::vector<Column> stack;
  outputs.assign(n, std::vector<Value>(program.num_outputs()));
  std::vector<bool> written(program.num_outputs(), false);
  std::vector<Status> row_error(n, Status::OK());
  std::vector<char> failed(n, 0);

  auto fail_row = [&](size_t i, Status st) {
    if (!failed[i]) {
      failed[i] = 1;
      row_error[i] = std::move(st);
    }
  };
  auto pop = [&stack]() -> Result<Column> {
    if (stack.empty()) return Status::Corruption("ES stack underflow");
    Column c = std::move(stack.back());
    stack.pop_back();
    return c;
  };
  // Applies a binary kernel lane-wise over two popped columns.
  auto binary_lanes = [&](const Column& a, const Column& b, uint32_t taint,
                          auto&& kernel) {
    Column out;
    out.taint_cek = taint;
    out.v.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (failed[i]) continue;
      auto r = kernel(a.v[i], b.v[i]);
      if (!r.ok()) {
        fail_row(i, r.status());
        continue;
      }
      out.v[i] = std::move(*r);
    }
    stack.push_back(std::move(out));
  };

  for (const Instruction& ins : program.instructions()) {
    switch (ins.op) {
      case OpCode::kGetData: {
        Column col;
        col.v.resize(n);
        if (ins.enc.is_encrypted()) {
          if (ctx_.crypto == nullptr) {
            return Status::SecurityError(
                "host evaluator cannot access encrypted data");
          }
          col.taint_cek = ins.enc.cek_id;
        }
        // Whether lane i-1 passed its MAC check, decrypt and type check at
        // this instruction.
        bool prev_decoded = false;
        for (size_t i = 0; i < n; ++i) {
          const bool reusable = prev_decoded;
          prev_decoded = false;
          if (failed[i]) continue;
          if (ins.index >= rows[i].size()) {
            fail_row(i, Status::InvalidArgument(
                            "GetData input index out of range"));
            continue;
          }
          const Value& wire = rows[i][ins.index];
          if (ins.enc.is_encrypted()) {
            // A cell byte-for-byte equal to the previous lane's decrypts to
            // the same plaintext, so a morsel-constant parameter is decrypted
            // once. The host holds both ciphertexts already: sharing the
            // decryption tells it nothing. Never reuse from a failed lane.
            if (reusable && SameCell(wire, rows[i - 1][ins.index])) {
              col.v[i] = col.v[i - 1];
              prev_decoded = true;
              continue;
            }
            auto plain = ctx_.crypto->DecryptDatum(ins.enc, ins.data_type, wire);
            if (!plain.ok()) {
              fail_row(i, plain.status());
              continue;
            }
            if (!TypeCompatible(ins.data_type, *plain)) {
              fail_row(i,
                       Status::TypeCheckError("decrypted datum has wrong type"));
              continue;
            }
            col.v[i] = std::move(*plain);
            prev_decoded = true;
          } else {
            if (!TypeCompatible(ins.data_type, wire)) {
              fail_row(i, Status::TypeCheckError("GetData type mismatch"));
              continue;
            }
            col.v[i] = wire;
          }
        }
        stack.push_back(std::move(col));
        break;
      }
      case OpCode::kSetData: {
        Column s;
        AEDB_ASSIGN_OR_RETURN(s, pop());
        if (ins.index >= program.num_outputs()) {
          return Status::InvalidArgument("SetData output index out of range");
        }
        if (ins.enc.is_encrypted()) {
          if (ctx_.crypto == nullptr) {
            return Status::SecurityError(
                "host evaluator cannot produce encrypted data");
          }
          if (!ctx_.encryption_authorized) {
            return Status::PermissionDenied(
                "enclave Encrypt requires client authorization");
          }
          for (size_t i = 0; i < n; ++i) {
            if (failed[i]) continue;
            auto enc = ctx_.crypto->EncryptDatum(ins.enc, s.v[i]);
            if (!enc.ok()) {
              fail_row(i, enc.status());
              continue;
            }
            outputs[i][ins.index] = std::move(*enc);
          }
        } else {
          if (ctx_.crypto != nullptr && s.taint_cek != 0 &&
              !ctx_.encryption_authorized) {
            return Status::SecurityError(
                "refusing to emit decrypted data as plaintext");
          }
          for (size_t i = 0; i < n; ++i) {
            if (failed[i]) continue;
            outputs[i][ins.index] = std::move(s.v[i]);
          }
        }
        written[ins.index] = true;
        break;
      }
      case OpCode::kConst: {
        Column col;
        col.v.assign(n, ins.constant);
        stack.push_back(std::move(col));
        break;
      }
      case OpCode::kComp: {
        Column b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        if (a.taint_cek != b.taint_cek) {
          return Status::SecurityError(
              "comparison operands have different encryption provenance");
        }
        // Predicate results are the authorized leak: untainted, in the clear.
        binary_lanes(a, b, 0, [&](const Value& x, const Value& y) {
          return CompKernel(ins.cmp, x, y);
        });
        break;
      }
      case OpCode::kLike: {
        Column pattern, value;
        AEDB_ASSIGN_OR_RETURN(pattern, pop());
        AEDB_ASSIGN_OR_RETURN(value, pop());
        if (value.taint_cek != pattern.taint_cek) {
          return Status::SecurityError(
              "LIKE operands have different encryption provenance");
        }
        binary_lanes(value, pattern, 0, [](const Value& x, const Value& y) {
          return LikeKernel(x, y);
        });
        break;
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv: {
        Column b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        uint32_t taint;
        AEDB_RETURN_IF_ERROR(JoinTaint(a.taint_cek, b.taint_cek, &taint));
        binary_lanes(a, b, taint, [&](const Value& x, const Value& y) {
          return ArithKernel(ins.op, x, y);
        });
        break;
      }
      case OpCode::kNeg: {
        Column a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        Column out;
        out.taint_cek = a.taint_cek;
        out.v.resize(n);
        for (size_t i = 0; i < n; ++i) {
          if (failed[i]) continue;
          auto r = NegKernel(a.v[i]);
          if (!r.ok()) {
            fail_row(i, r.status());
            continue;
          }
          out.v[i] = std::move(*r);
        }
        stack.push_back(std::move(out));
        break;
      }
      case OpCode::kAnd:
      case OpCode::kOr: {
        Column b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        uint32_t taint;
        AEDB_RETURN_IF_ERROR(JoinTaint(a.taint_cek, b.taint_cek, &taint));
        binary_lanes(a, b, taint, [&](const Value& x, const Value& y) {
          return LogicKernel(ins.op, x, y);
        });
        break;
      }
      case OpCode::kNot: {
        Column a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        Column out;
        out.taint_cek = a.taint_cek;
        out.v.resize(n);
        for (size_t i = 0; i < n; ++i) {
          if (failed[i]) continue;
          auto r = NotKernel(a.v[i]);
          if (!r.ok()) {
            fail_row(i, r.status());
            continue;
          }
          out.v[i] = std::move(*r);
        }
        stack.push_back(std::move(out));
        break;
      }
      case OpCode::kIsNull: {
        Column a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        Column out;
        out.v.resize(n);
        for (size_t i = 0; i < n; ++i) {
          if (failed[i]) continue;
          out.v[i] = Value::Bool(a.v[i].is_null());
        }
        stack.push_back(std::move(out));
        break;
      }
      case OpCode::kTMEval: {
        if (ctx_.crypto != nullptr) {
          return Status::SecurityError("TMEval not allowed inside the enclave");
        }
        if (ctx_.enclave == nullptr) {
          return Status::FailedPrecondition(
              "expression requires an enclave but none is available");
        }
        if (stack.size() < ins.n_inputs) {
          return Status::Corruption("ES stack underflow at TMEval");
        }
        std::vector<Column> args(ins.n_inputs);
        for (uint32_t i = ins.n_inputs; i-- > 0;) {
          args[i] = std::move(stack.back());
          stack.pop_back();
        }
        // Gather the surviving rows and cross the boundary ONCE for all of
        // them — the batch amortization this whole pipeline exists for.
        std::vector<size_t> active;
        active.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (!failed[i]) active.push_back(i);
        }
        std::vector<std::vector<Value>> sub_batch(active.size());
        for (size_t a = 0; a < active.size(); ++a) {
          sub_batch[a].resize(ins.n_inputs);
          for (uint32_t j = 0; j < ins.n_inputs; ++j) {
            sub_batch[a][j] = std::move(args[j].v[active[a]]);
          }
        }
        std::vector<std::vector<Value>> sub_outputs;
        if (!active.empty()) {
          AEDB_ASSIGN_OR_RETURN(
              sub_outputs, ctx_.enclave->EvalInEnclaveBatch(
                               ins.subprogram, sub_batch, ins.n_outputs));
          if (sub_outputs.size() != active.size()) {
            return Status::Internal("enclave returned wrong batch arity");
          }
        }
        for (uint32_t k = 0; k < ins.n_outputs; ++k) {
          Column col;
          col.v.resize(n);
          for (size_t a = 0; a < active.size(); ++a) {
            if (sub_outputs[a].size() != ins.n_outputs) {
              return Status::Internal("enclave returned wrong output arity");
            }
            col.v[active[a]] = sub_outputs[a][k];
          }
          stack.push_back(std::move(col));
        }
        break;
      }
    }
  }
  for (size_t i = 0; i < written.size(); ++i) {
    if (!written[i]) {
      return Status::Corruption("ES program left output " + std::to_string(i) +
                                " unwritten");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (failed[i]) return row_error[i];
  }
  return outputs;
}

}  // namespace aedb::es
