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

Morsel Morsel::Of(size_t rows, const Columns& columns) {
  Morsel morsel;
  morsel.rows = rows;
  morsel.columns.reserve(columns.size());
  for (const std::vector<Value>& column : columns) {
    morsel.columns.emplace_back(column);
  }
  return morsel;
}

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
        // A morsel of one: every argument is a one-value column.
        std::vector<Value> args(ins.n_inputs);
        for (uint32_t i = ins.n_inputs; i-- > 0;) {
          args[i] = std::move(stack.back().value);
          stack.pop_back();
        }
        Morsel morsel;
        morsel.rows = 1;
        for (const Value& arg : args) morsel.columns.emplace_back(&arg, 1);
        Columns sub_outputs;
        AEDB_ASSIGN_OR_RETURN(
            sub_outputs, ctx_.enclave->EvalInEnclaveBatch(ins.subprogram,
                                                          morsel, ins.n_outputs));
        if (sub_outputs.size() != ins.n_outputs) {
          return Status::Internal("enclave returned wrong output arity");
        }
        for (std::vector<Value>& column : sub_outputs) {
          if (column.size() != 1) {
            return Status::Internal("enclave returned wrong batch arity");
          }
          stack.push_back(Slot{std::move(column[0]), 0});
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
  return outputs;
}

// ---------------------------------------------------------------------------
// Batch interpreter: the stack holds columns instead of scalars. A column has
// one value per row, or one value every row shares — a constant, a parameter,
// or anything computed from shared values alone — which is computed once.
// Every failure belongs to rows: a check on one lane fails that row; a
// failing shared value, and a structural failure (stack underflow, bad
// indices, taint violations, missing enclave), fails every row still running.
// Failed rows drop out, the morsel completes for the rest, and the error
// surfaced is the first error of the lowest failing row, which is what the
// row loop would have returned.

namespace {

/// One stack slot of the batch interpreter. It reads an input column in
/// place, or owns the values it computed.
struct BatchSlot {
  std::vector<Value> owned;
  std::span<const Value> input;  // non-empty: this input column, in place
  uint32_t taint_cek = 0;        // 0 = untainted (plaintext provenance)

  std::span<const Value> values() const {
    return input.empty() ? std::span<const Value>(owned) : input;
  }
  /// One value for every row (the batch path only runs morsels of 2+ rows).
  bool shared() const { return values().size() == 1; }
  const Value& at(size_t row) const {
    std::span<const Value> v = values();
    return v[v.size() == 1 ? 0 : row];
  }
};

}  // namespace

Result<Columns> EsEvaluator::EvalBatch(const EsProgram& program,
                                       const Morsel& morsel) {
  const size_t n = morsel.rows;
  for (const std::span<const Value>& column : morsel.columns) {
    if (column.size() != 1 && column.size() != n) {
      return Status::InvalidArgument(
          "morsel column holds neither one value nor one per row");
    }
  }
  Columns outputs(program.num_outputs());
  if (n == 0) return outputs;
  if (n == 1) {
    // Degenerate case: the row path, instruction for instruction.
    std::vector<Value> inputs;
    inputs.reserve(morsel.columns.size());
    for (const std::span<const Value>& column : morsel.columns) {
      inputs.push_back(column[0]);
    }
    std::vector<Value> out;
    AEDB_ASSIGN_OR_RETURN(out, Eval(program, inputs));
    for (size_t k = 0; k < out.size(); ++k) {
      outputs[k].push_back(std::move(out[k]));
    }
    return outputs;
  }

  std::vector<BatchSlot> stack;
  std::vector<bool> written(program.num_outputs(), false);
  std::vector<Status> row_error(n, Status::OK());
  std::vector<char> failed(n, 0);
  size_t running = n;

  auto fail_row = [&](size_t i, Status st) {
    if (failed[i]) return;
    failed[i] = 1;
    row_error[i] = std::move(st);
    --running;
  };
  auto fail_running = [&](const Status& st) {
    for (size_t i = 0; i < n; ++i) fail_row(i, st);
  };
  auto pop = [&stack]() -> Result<BatchSlot> {
    if (stack.empty()) return Status::Corruption("ES stack underflow");
    BatchSlot s = std::move(stack.back());
    stack.pop_back();
    return s;
  };
  // Runs `check(row)` on every running row, or once for a shared value, and
  // fails the rows whose check fails.
  auto for_lanes = [&](bool shared, auto&& check) {
    if (shared) {
      Status st = check(size_t{0});
      if (!st.ok()) fail_running(st);
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      if (failed[i]) continue;
      Status st = check(i);
      if (!st.ok()) fail_row(i, std::move(st));
    }
  };
  // Pushes a slot holding `kernel(row)` for every running row, or the one
  // value `kernel(0)` when every operand is shared.
  auto compute = [&](bool shared, uint32_t taint, auto&& kernel) {
    BatchSlot out;
    out.taint_cek = taint;
    out.owned.resize(shared ? 1 : n);
    for_lanes(shared, [&](size_t i) -> Status {
      AEDB_ASSIGN_OR_RETURN(out.owned[i], kernel(i));
      return Status::OK();
    });
    stack.push_back(std::move(out));
  };

  auto step = [&](const Instruction& ins) -> Status {
    switch (ins.op) {
      case OpCode::kGetData: {
        if (ins.index >= morsel.columns.size()) {
          return Status::InvalidArgument("GetData input index out of range");
        }
        const std::span<const Value> in = morsel.columns[ins.index];
        const bool shared = in.size() == 1;
        if (!ins.enc.is_encrypted()) {
          // Plaintext is read in place; only the type check runs per lane.
          for_lanes(shared, [&](size_t i) -> Status {
            return TypeCompatible(ins.data_type, in[i])
                       ? Status::OK()
                       : Status::TypeCheckError("GetData type mismatch");
          });
          BatchSlot col;
          col.input = in;
          stack.push_back(std::move(col));
          return Status::OK();
        }
        if (ctx_.crypto == nullptr) {
          return Status::SecurityError(
              "host evaluator cannot access encrypted data");
        }
        compute(shared, ins.enc.cek_id, [&](size_t i) -> Result<Value> {
          Value plain;
          AEDB_ASSIGN_OR_RETURN(
              plain, ctx_.crypto->DecryptDatum(ins.enc, ins.data_type, in[i]));
          if (!TypeCompatible(ins.data_type, plain)) {
            return Status::TypeCheckError("decrypted datum has wrong type");
          }
          return plain;
        });
        return Status::OK();
      }
      case OpCode::kSetData: {
        BatchSlot s;
        AEDB_ASSIGN_OR_RETURN(s, pop());
        if (ins.index >= program.num_outputs()) {
          return Status::InvalidArgument("SetData output index out of range");
        }
        std::vector<Value>& out = outputs[ins.index];
        if (ins.enc.is_encrypted()) {
          if (ctx_.crypto == nullptr) {
            return Status::SecurityError(
                "host evaluator cannot produce encrypted data");
          }
          if (!ctx_.encryption_authorized) {
            return Status::PermissionDenied(
                "enclave Encrypt requires client authorization");
          }
          // Per row even for a shared value: each randomized cell gets a
          // fresh IV.
          out.assign(n, Value());
          for_lanes(false, [&](size_t i) -> Status {
            AEDB_ASSIGN_OR_RETURN(out[i],
                                  ctx_.crypto->EncryptDatum(ins.enc, s.at(i)));
            return Status::OK();
          });
        } else {
          if (ctx_.crypto != nullptr && s.taint_cek != 0 &&
              !ctx_.encryption_authorized) {
            return Status::SecurityError(
                "refusing to emit decrypted data as plaintext");
          }
          if (s.input.empty() && !s.shared()) {
            out = std::move(s.owned);
          } else {
            out.resize(n);
            for (size_t i = 0; i < n; ++i) out[i] = s.at(i);
          }
        }
        written[ins.index] = true;
        return Status::OK();
      }
      case OpCode::kConst: {
        BatchSlot col;
        col.owned.push_back(ins.constant);
        stack.push_back(std::move(col));
        return Status::OK();
      }
      case OpCode::kComp: {
        BatchSlot b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        if (a.taint_cek != b.taint_cek) {
          return Status::SecurityError(
              "comparison operands have different encryption provenance");
        }
        // Predicate results are the authorized leak: untainted, in the clear.
        compute(a.shared() && b.shared(), 0, [&](size_t i) {
          return CompKernel(ins.cmp, a.at(i), b.at(i));
        });
        return Status::OK();
      }
      case OpCode::kLike: {
        BatchSlot pattern, value;
        AEDB_ASSIGN_OR_RETURN(pattern, pop());
        AEDB_ASSIGN_OR_RETURN(value, pop());
        if (value.taint_cek != pattern.taint_cek) {
          return Status::SecurityError(
              "LIKE operands have different encryption provenance");
        }
        compute(value.shared() && pattern.shared(), 0, [&](size_t i) {
          return LikeKernel(value.at(i), pattern.at(i));
        });
        return Status::OK();
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kAnd:
      case OpCode::kOr: {
        BatchSlot b, a;
        AEDB_ASSIGN_OR_RETURN(b, pop());
        AEDB_ASSIGN_OR_RETURN(a, pop());
        uint32_t taint;
        AEDB_RETURN_IF_ERROR(JoinTaint(a.taint_cek, b.taint_cek, &taint));
        const bool logic = ins.op == OpCode::kAnd || ins.op == OpCode::kOr;
        compute(a.shared() && b.shared(), taint, [&](size_t i) {
          return logic ? LogicKernel(ins.op, a.at(i), b.at(i))
                       : ArithKernel(ins.op, a.at(i), b.at(i));
        });
        return Status::OK();
      }
      case OpCode::kNeg:
      case OpCode::kNot: {
        BatchSlot a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        compute(a.shared(), a.taint_cek, [&](size_t i) {
          return ins.op == OpCode::kNeg ? NegKernel(a.at(i))
                                        : NotKernel(a.at(i));
        });
        return Status::OK();
      }
      case OpCode::kIsNull: {
        BatchSlot a;
        AEDB_ASSIGN_OR_RETURN(a, pop());
        // Nullness of an authorized predicate operand is part of the
        // operational leakage surface; result is a clear boolean.
        compute(a.shared(), 0, [&](size_t i) -> Result<Value> {
          return Value::Bool(a.at(i).is_null());
        });
        return Status::OK();
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
        std::vector<BatchSlot> args(ins.n_inputs);
        for (uint32_t i = ins.n_inputs; i-- > 0;) {
          args[i] = std::move(stack.back());
          stack.pop_back();
        }
        // Cross the boundary ONCE for every running row — the amortization
        // this whole pipeline exists for. The argument columns travel as
        // they are, views included; only once some rows have failed are the
        // running rows' values gathered into new columns.
        std::vector<size_t> gather;
        if (running < n) {
          for (size_t i = 0; i < n; ++i) {
            if (!failed[i]) gather.push_back(i);
          }
        }
        Columns gathered;
        gathered.reserve(args.size());
        Morsel sub;
        sub.rows = running;
        for (const BatchSlot& arg : args) {
          if (gather.empty() || arg.shared()) {
            sub.columns.push_back(arg.values());
            continue;
          }
          std::vector<Value>& column = gathered.emplace_back();
          column.reserve(gather.size());
          for (size_t i : gather) column.push_back(arg.at(i));
          sub.columns.emplace_back(column);
        }
        Columns results;
        AEDB_ASSIGN_OR_RETURN(results, ctx_.enclave->EvalInEnclaveBatch(
                                           ins.subprogram, sub, ins.n_outputs));
        if (results.size() != ins.n_outputs) {
          return Status::Internal("enclave returned wrong output arity");
        }
        for (std::vector<Value>& result : results) {
          if (result.size() != sub.rows) {
            return Status::Internal("enclave returned wrong batch arity");
          }
          BatchSlot col;
          if (gather.empty()) {
            col.owned = std::move(result);
          } else {
            col.owned.resize(n);
            for (size_t k = 0; k < gather.size(); ++k) {
              col.owned[gather[k]] = std::move(result[k]);
            }
          }
          stack.push_back(std::move(col));
        }
        return Status::OK();
      }
    }
    return Status::OK();
  };

  for (const Instruction& ins : program.instructions()) {
    Status st = step(ins);
    if (!st.ok()) fail_running(st);
    if (running == 0) break;
  }
  for (size_t k = 0; running > 0 && k < written.size(); ++k) {
    if (!written[k]) {
      fail_running(Status::Corruption("ES program left output " +
                                      std::to_string(k) + " unwritten"));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (failed[i]) return row_error[i];
  }
  return outputs;
}

}  // namespace aedb::es
