#include "sql/executor.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>

#include "common/query_context.h"
#include "crypto/sha256.h"
#include "fault/fault.h"

namespace aedb::sql {

using storage::Rid;
using types::TypeId;
using types::Value;

namespace {

/// Cooperative deadline/cancellation check at morsel boundaries. Cost when
/// no context is installed: one thread-local load (bench_net guards <1% of
/// a plain loopback SELECT).
Status CheckQueryDeadline() {
  const QueryContext* q = QueryContext::Current();
  return q == nullptr ? Status::OK() : q->Check();
}

/// Fault point at the per-row boundary of a write statement's apply loop —
/// the place where a shed (enclave pool overload, injected kOverloaded)
/// strikes AFTER earlier rows were already applied. Tests arm it to prove
/// the server distinguishes a partially-applied statement's overload (must
/// abort the enclosing explicit transaction) from a pre-execution shed
/// (safe to replay). Unarmed cost: one relaxed atomic load.
Status CheckWriteShed() {
  fault::FaultSpec spec;
  if (AEDB_FAULT_FIRED("executor/write_shed", &spec)) return spec.status;
  return Status::OK();
}

/// Coerces a value into a column's plaintext type (numeric widening etc.).
Result<Value> Coerce(TypeId target, const Value& v) {
  if (v.is_null()) return Value::Null(target);
  if (v.type() == target) return v;
  switch (target) {
    case TypeId::kInt32:
      if (v.IsNumeric()) return Value::Int32(static_cast<int32_t>(v.AsInt64()));
      break;
    case TypeId::kInt64:
      if (v.IsNumeric()) return Value::Int64(v.AsInt64());
      break;
    case TypeId::kDouble:
      if (v.IsNumeric()) return Value::Double(v.AsDouble());
      break;
    default:
      break;
  }
  return Status::TypeCheckError(std::string("cannot coerce ") +
                                types::TypeIdName(v.type()) + " to " +
                                types::TypeIdName(target));
}

/// Pulls the (column, operand) shape out of a conjunct, flipping the
/// comparison if the column is on the right.
struct ColOpOperand {
  const Expr* column = nullptr;
  const Expr* operand = nullptr;  // literal or param
  es::CompareOp op = es::CompareOp::kEq;
};

bool MatchColOperand(const Expr* e, ColOpOperand* out) {
  if (e->kind != Expr::Kind::kCompare) return false;
  auto is_operand = [](const Expr* x) {
    return x->kind == Expr::Kind::kLiteral || x->kind == Expr::Kind::kParam;
  };
  if (e->a->kind == Expr::Kind::kColumn && is_operand(e->b.get())) {
    out->column = e->a.get();
    out->operand = e->b.get();
    out->op = e->cmp;
    return true;
  }
  if (e->b->kind == Expr::Kind::kColumn && is_operand(e->a.get())) {
    out->column = e->b.get();
    out->operand = e->a.get();
    switch (e->cmp) {  // flip
      case es::CompareOp::kLt: out->op = es::CompareOp::kGt; break;
      case es::CompareOp::kLe: out->op = es::CompareOp::kGe; break;
      case es::CompareOp::kGt: out->op = es::CompareOp::kLt; break;
      case es::CompareOp::kGe: out->op = es::CompareOp::kLe; break;
      default: out->op = e->cmp; break;
    }
    return true;
  }
  return false;
}

void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kAnd) {
    FlattenConjuncts(e->a.get(), out);
    FlattenConjuncts(e->b.get(), out);
    return;
  }
  out->push_back(e);
}

Value OperandValue(const Expr* operand, const std::vector<Value>& params) {
  if (operand->kind == Expr::Kind::kLiteral) return operand->literal;
  return params[operand->param_index];
}

/// Preorder encoding of everything that influences compilation: node kinds,
/// binder annotations (slots, types, encryption) and literal values. Two
/// expressions with equal fingerprints compile to equal programs.
void FingerprintExpr(const Expr* e, Bytes* out) {
  if (e == nullptr) {
    out->push_back(0xFF);  // distinguishes "absent child" from any Kind
    return;
  }
  out->push_back(static_cast<uint8_t>(e->kind));
  out->push_back(static_cast<uint8_t>(e->cmp));
  out->push_back(static_cast<uint8_t>(e->arith));
  out->push_back(e->is_not ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(e->table_slot));
  PutU32(out, static_cast<uint32_t>(e->column_index));
  PutU32(out, static_cast<uint32_t>(e->param_index));
  out->push_back(static_cast<uint8_t>(e->type));
  out->push_back(static_cast<uint8_t>(e->enc.kind));
  PutU32(out, e->enc.cek_id);
  out->push_back(e->enc.enclave_enabled ? 1 : 0);
  if (e->kind == Expr::Kind::kLiteral) {
    PutLengthPrefixed(out, e->literal.Encode());
  }
  FingerprintExpr(e->a.get(), out);
  FingerprintExpr(e->b.get(), out);
  FingerprintExpr(e->c.get(), out);
}

void MarkColumns(const Expr* e, ColumnSet* columns) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColumn && e->table_slot == 0) {
    (*columns)[static_cast<size_t>(e->column_index)] = true;
  }
  MarkColumns(e->a.get(), columns);
  MarkColumns(e->b.get(), columns);
  MarkColumns(e->c.get(), columns);
}

/// The columns a single-table SELECT reads: its select list, WHERE, GROUP BY
/// and ORDER BY. `*` reads every column.
ColumnSet ReadColumns(const SelectStmt& sel, size_t num_columns) {
  ColumnSet columns(num_columns, sel.select_all);
  for (const SelectItem& item : sel.items) {
    if (!item.star) columns[static_cast<size_t>(item.column_index)] = true;
  }
  MarkColumns(sel.where.get(), &columns);
  if (!sel.group_by.empty()) {
    columns[static_cast<size_t>(sel.group_by_index)] = true;
  }
  if (!sel.order_by.empty()) {
    columns[static_cast<size_t>(sel.order_by_index)] = true;
  }
  return columns;
}

std::string ProgramCacheKey(const Expr* expr, const InputLayout& layout,
                            const std::vector<BoundParam>& params,
                            bool value_expr) {
  Bytes payload;
  FingerprintExpr(expr, &payload);
  PutU32(&payload, static_cast<uint32_t>(layout.table_columns));
  PutU32(&payload, static_cast<uint32_t>(layout.join_columns));
  PutU32(&payload, static_cast<uint32_t>(params.size()));
  for (const BoundParam& p : params) {
    payload.push_back(static_cast<uint8_t>(p.type));
    payload.push_back(p.type_known ? 1 : 0);
    payload.push_back(static_cast<uint8_t>(p.enc.kind));
    PutU32(&payload, p.enc.cek_id);
    payload.push_back(p.enc.enclave_enabled ? 1 : 0);
  }
  payload.push_back(value_expr ? 1 : 0);
  Bytes digest = crypto::Sha256::Hash(payload);
  return std::string(digest.begin(), digest.end());
}

}  // namespace

Result<int> ValueComparator::Compare(Slice a, Slice b) const {
  size_t off = 0;
  Value va, vb;
  AEDB_ASSIGN_OR_RETURN(va, Value::Decode(a, &off));
  off = 0;
  AEDB_ASSIGN_OR_RETURN(vb, Value::Decode(b, &off));
  if (va.is_null() && vb.is_null()) return 0;
  if (va.is_null()) return -1;
  if (vb.is_null()) return 1;
  return va.Compare(vb);
}

Bytes Executor::IndexKeyFor(const ColumnDef& col, const Value& v) {
  if (col.enc.is_encrypted() && !v.is_null() && v.type() == TypeId::kBinary) {
    return v.bin();  // the AEAD cell is the key
  }
  return v.Encode();
}

void Executor::ClearProgramCache() {
  std::unique_lock lock(program_cache_mu_);
  program_cache_.clear();
  lru_.clear();
}

Result<std::shared_ptr<const es::EsProgram>> Executor::CompiledFor(
    const Expr* expr, const InputLayout& layout,
    const std::vector<BoundParam>& params, bool value_expr) {
  std::string key = ProgramCacheKey(expr, layout, params, value_expr);
  {
    // Exclusive even on a hit: the LRU touch mutates the recency list.
    std::unique_lock lock(program_cache_mu_);
    auto it = program_cache_.find(key);
    if (it != program_cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.program;
    }
  }
  es::EsProgram program;
  if (value_expr) {
    AEDB_ASSIGN_OR_RETURN(program, CompileValueExpr(expr, layout, params));
  } else {
    AEDB_ASSIGN_OR_RETURN(program, CompilePredicate(expr, layout, params));
  }
  std::unique_lock lock(program_cache_mu_);
  auto it = program_cache_.find(key);
  if (it != program_cache_.end()) {  // raced with another compiler
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.program;
  }
  lru_.push_front(key);
  CacheEntry entry;
  entry.program = std::make_shared<const es::EsProgram>(std::move(program));
  entry.lru_it = lru_.begin();
  auto result = entry.program;
  program_cache_.emplace(std::move(key), std::move(entry));
  if (program_cache_.size() > kProgramCacheCap) {
    program_cache_.erase(lru_.back());
    lru_.pop_back();
  }
  return result;
}

Result<std::vector<char>> Executor::EvalPredicateBatch(
    const es::EsProgram& program, const es::Morsel& morsel) {
  es::EvalContext ctx;
  ctx.enclave = invoker_;
  es::EsEvaluator evaluator(ctx);
  es::Columns out;
  AEDB_ASSIGN_OR_RETURN(out, evaluator.EvalBatch(program, morsel));
  std::vector<char> pass(morsel.rows, 0);
  for (size_t i = 0; i < morsel.rows; ++i) {
    pass[i] = !out[0][i].is_null() && out[0][i].bool_v();
  }
  return pass;
}

Result<std::vector<Value>> Executor::FetchRow(const TableDef& table,
                                              const Rid& rid) {
  Bytes record;
  AEDB_ASSIGN_OR_RETURN(record, engine_->table(table.id)->Read(rid));
  return DecodeRow(record, table.columns.size());
}

Result<Executor::Candidates> Executor::PlanAccess(
    const Expr* where, const TableDef& table,
    const std::vector<Value>& params) {
  Candidates out;
  if (where == nullptr) return out;
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);

  // First preference: an equality probe.
  for (const Expr* e : conjuncts) {
    ColOpOperand shape;
    if (!MatchColOperand(e, &shape) || shape.column->table_slot != 0) continue;
    if (shape.op != es::CompareOp::kEq) continue;
    const ColumnDef& col = table.columns[shape.column->column_index];
    const IndexDef* index =
        catalog_->FindIndexOn(table.id, shape.column->column_index,
                              col.enc.kind == types::EncKind::kDeterministic
                                  ? IndexKind::kEquality
                                  : IndexKind::kRange);
    if (index == nullptr) continue;
    if (!engine_->CheckIndexUsable(index->id).ok()) continue;
    Bytes key = IndexKeyFor(col, OperandValue(shape.operand, params));
    auto rids = engine_->index_tree(index->id)->SeekEqual(key);
    if (!rids.ok()) return rids.status();
    out.use_index = true;
    out.rids = std::move(rids).value();
    return out;
  }

  // Second: range bounds on a column with a range index.
  for (const Expr* e : conjuncts) {
    const Expr* column = nullptr;
    const Expr *lower = nullptr, *upper = nullptr;
    bool lower_inc = true, upper_inc = true;
    ColOpOperand shape;
    if (e->kind == Expr::Kind::kBetween &&
        e->a->kind == Expr::Kind::kColumn && e->a->table_slot == 0) {
      column = e->a.get();
      lower = e->b.get();
      upper = e->c.get();
    } else if (MatchColOperand(e, &shape) && shape.column->table_slot == 0) {
      column = shape.column;
      switch (shape.op) {
        case es::CompareOp::kLt: upper = shape.operand; upper_inc = false; break;
        case es::CompareOp::kLe: upper = shape.operand; break;
        case es::CompareOp::kGt: lower = shape.operand; lower_inc = false; break;
        case es::CompareOp::kGe: lower = shape.operand; break;
        default: continue;
      }
    } else {
      continue;
    }
    const ColumnDef& col = table.columns[column->column_index];
    const IndexDef* index =
        catalog_->FindIndexOn(table.id, column->column_index, IndexKind::kRange);
    if (index == nullptr || !engine_->CheckIndexUsable(index->id).ok()) continue;

    storage::BTree* tree = engine_->index_tree(index->id);
    Bytes lower_key, upper_key;
    const Bytes* lower_ptr = nullptr;
    const Bytes* upper_ptr = nullptr;
    if (lower != nullptr) {
      lower_key = IndexKeyFor(col, OperandValue(lower, params));
      lower_ptr = &lower_key;
    }
    if (upper != nullptr) {
      upper_key = IndexKeyFor(col, OperandValue(upper, params));
      upper_ptr = &upper_key;
    }
    out.use_index = true;
    // SeekRange does the bound comparisons inside the tree, which lets an
    // enclave-backed comparator batch a whole leaf per call-gate crossing.
    auto rids = tree->SeekRange(lower_ptr, lower_inc, upper_ptr, upper_inc);
    if (!rids.ok()) return rids.status();
    out.rids = std::move(rids).value();
    return out;
  }
  return out;
}

Result<std::vector<std::pair<Rid, std::vector<Value>>>>
Executor::CollectMatches(const BoundStatement& bound, const Expr* where,
                         const TableDef& table,
                         const std::vector<Value>& params,
                         const ColumnSet* columns) {
  InputLayout layout;
  layout.table_columns = table.columns.size();
  es::EsProgram always_true;
  std::shared_ptr<const es::EsProgram> filter_holder;
  const es::EsProgram* filter = nullptr;
  if (where == nullptr) {
    AEDB_ASSIGN_OR_RETURN(always_true,
                          CompilePredicate(nullptr, layout, bound.params));
    filter = &always_true;
  } else {
    AEDB_ASSIGN_OR_RETURN(filter_holder,
                          CompiledFor(where, layout, bound.params, false));
    filter = filter_holder.get();
  }

  // Hold the table's statement latch (shared) across the index probe AND the
  // row fetches: a concurrent UPDATE applies its index-delete / heap-move /
  // index-insert steps under the same latch held exclusive, so candidates
  // collected here never land in that half-applied middle ("missing row" for
  // a row that logically always exists, e.g. a TPC-C district).
  std::shared_mutex* stmt = engine_->StatementLatch(table.id);
  std::shared_lock<std::shared_mutex> stmt_lock;
  if (stmt != nullptr) stmt_lock = std::shared_lock<std::shared_mutex>(*stmt);

  Candidates candidates;
  AEDB_ASSIGN_OR_RETURN(candidates, PlanAccess(where, table, params));

  // Morsel-driven filtering, column-major: up to batch_size_ candidate rows
  // are decoded straight into one column per column read, then the predicate
  // runs over the whole morsel at once — every encrypted atom in it costs one
  // enclave transition per morsel instead of one per row, and a parameter
  // rides as one value every row shares. A column the statement does not
  // read is one shared NULL the filter never looks at. Only a row that
  // passes is built as a row vector. A failed batch drops the entire morsel
  // (no partial application).
  std::vector<std::pair<Rid, std::vector<Value>>> matches;
  const size_t num_columns = table.columns.size();
  ColumnBatch decoded(num_columns, columns);
  std::vector<Rid> morsel_rids;
  const Value unread;
  const size_t batch_size = batch_size_;
  morsel_rids.reserve(std::min<size_t>(batch_size, 1024));

  auto flush = [&]() -> Status {
    if (morsel_rids.empty()) return Status::OK();
    AEDB_RETURN_IF_ERROR(CheckQueryDeadline());
    es::Morsel morsel;
    morsel.rows = morsel_rids.size();
    morsel.columns.reserve(num_columns + params.size());
    for (size_t c = 0; c < num_columns; ++c) {
      if (decoded.reads(c)) {
        morsel.columns.emplace_back(decoded.column(c));
      } else {
        morsel.columns.emplace_back(&unread, 1);
      }
    }
    for (const Value& param : params) morsel.columns.emplace_back(&param, 1);
    std::vector<char> pass;
    AEDB_ASSIGN_OR_RETURN(pass, EvalPredicateBatch(*filter, morsel));
    for (size_t i = 0; i < morsel.rows; ++i) {
      if (pass[i]) matches.emplace_back(morsel_rids[i], decoded.TakeRow(i));
    }
    morsel_rids.clear();
    decoded.Clear();
    return Status::OK();
  };
  auto consider = [&](const Rid& rid, Slice record) -> Status {
    AEDB_RETURN_IF_ERROR(decoded.Append(record));
    morsel_rids.push_back(rid);
    if (morsel_rids.size() >= batch_size) return flush();
    return Status::OK();
  };

  if (candidates.use_index) {
    for (const Rid& rid : candidates.rids) {
      auto record = engine_->table(table.id)->Read(rid);
      if (!record.ok()) {
        if (record.status().IsNotFound()) continue;  // dangling index entry
        return record.status();
      }
      AEDB_RETURN_IF_ERROR(consider(rid, *record));
    }
  } else {
    Status inner = Status::OK();
    engine_->table(table.id)->Scan([&](const Rid& rid, Slice record) {
      inner = consider(rid, record);
      return inner.ok();
    });
    AEDB_RETURN_IF_ERROR(inner);
  }
  AEDB_RETURN_IF_ERROR(flush());
  return matches;
}

Result<ResultSet> Executor::Select(const BoundStatement& bound,
                                   const std::vector<Value>& params,
                                   uint64_t txn) {
  (void)txn;
  const SelectStmt& sel = *bound.stmt.select;
  const TableDef& table = *bound.table;

  // Gather matching (combined) rows.
  std::vector<std::vector<Value>> rows;
  if (bound.join_table == nullptr) {
    // Decode only the columns the statement reads; the other slots stay
    // typed NULLs that nothing below looks at.
    const ColumnSet columns = ReadColumns(sel, table.columns.size());
    std::vector<std::pair<Rid, std::vector<Value>>> matches;
    AEDB_ASSIGN_OR_RETURN(matches, CollectMatches(bound, sel.where.get(), table,
                                                  params, &columns));
    rows.reserve(matches.size());
    for (auto& [rid, row] : matches) rows.push_back(std::move(row));
  } else {
    // Hash equi-join: build on the join table, probe with the main table
    // (ciphertext bytes hash equal values equal for DET, §2.4.3).
    const TableDef& right = *bound.join_table;
    auto resolve = [&](const std::string& name, const TableDef& t) {
      size_t dot = name.find('.');
      return t.FindColumn(dot == std::string::npos ? name
                                                   : name.substr(dot + 1));
    };
    int left_idx = resolve(sel.join_left, table);
    int right_idx = resolve(sel.join_right, right);
    if (left_idx < 0 || right_idx < 0) {
      // The binder may have bound them the other way around.
      std::swap(left_idx, right_idx);
      left_idx = left_idx < 0 ? resolve(sel.join_right, table) : left_idx;
      right_idx = right_idx < 0 ? resolve(sel.join_left, right) : right_idx;
    }
    if (left_idx < 0 || right_idx < 0) {
      return Status::Internal("join columns failed to resolve");
    }

    InputLayout layout;
    layout.table_columns = table.columns.size();
    layout.join_columns = right.columns.size();
    es::EsProgram always_true;
    std::shared_ptr<const es::EsProgram> filter_holder;
    const es::EsProgram* filter = nullptr;
    if (sel.where == nullptr) {
      AEDB_ASSIGN_OR_RETURN(always_true,
                            CompilePredicate(nullptr, layout, bound.params));
      filter = &always_true;
    } else {
      AEDB_ASSIGN_OR_RETURN(
          filter_holder,
          CompiledFor(sel.where.get(), layout, bound.params, false));
      filter = filter_holder.get();
    }

    std::map<Bytes, std::vector<std::vector<Value>>> hash;
    Status inner = Status::OK();
    engine_->table(right.id)->Scan([&](const Rid&, Slice record) {
      auto row = DecodeRow(record, right.columns.size());
      if (!row.ok()) {
        inner = row.status();
        return false;
      }
      const Value& key = (*row)[right_idx];
      if (key.is_null()) return true;  // NULL never joins
      hash[IndexKeyFor(right.columns[right_idx], key)].push_back(
          std::move(row).value());
      return true;
    });
    AEDB_RETURN_IF_ERROR(inner);

    // Probe-side morsels, column-major: each joined row appends its main- and
    // join-table values to one column per input slot until a batch is full,
    // then the residual filter runs over the whole morsel in one enclave
    // trip, each parameter a one-value column. Only a joined row that passes
    // is built as a row vector.
    const size_t main_width = table.columns.size();
    es::Columns pending(main_width + right.columns.size());
    size_t pending_rows = 0;
    auto flush_join = [&]() -> Status {
      if (pending_rows == 0) return Status::OK();
      AEDB_RETURN_IF_ERROR(CheckQueryDeadline());
      es::Morsel morsel = es::Morsel::Of(pending_rows, pending);
      for (const Value& param : params) morsel.columns.emplace_back(&param, 1);
      std::vector<char> pass;
      AEDB_ASSIGN_OR_RETURN(pass, EvalPredicateBatch(*filter, morsel));
      for (size_t i = 0; i < pending_rows; ++i) {
        if (!pass[i]) continue;
        std::vector<Value> combined;
        combined.reserve(pending.size());
        for (std::vector<Value>& column : pending) {
          combined.push_back(std::move(column[i]));
        }
        rows.push_back(std::move(combined));
      }
      for (std::vector<Value>& column : pending) column.clear();
      pending_rows = 0;
      return Status::OK();
    };
    engine_->table(table.id)->Scan([&](const Rid&, Slice record) {
      auto row = DecodeRow(record, table.columns.size());
      if (!row.ok()) {
        inner = row.status();
        return false;
      }
      const Value& key = (*row)[left_idx];
      if (key.is_null()) return true;
      auto it = hash.find(IndexKeyFor(table.columns[left_idx], key));
      if (it == hash.end()) return true;
      for (const auto& right_row : it->second) {
        for (size_t c = 0; c < main_width; ++c) {
          pending[c].push_back((*row)[c]);
        }
        for (size_t c = 0; c < right_row.size(); ++c) {
          pending[main_width + c].push_back(right_row[c]);
        }
        if (++pending_rows >= batch_size_) {
          Status st = flush_join();
          if (!st.ok()) {
            inner = st;
            return false;
          }
        }
      }
      return true;
    });
    AEDB_RETURN_IF_ERROR(inner);
    AEDB_RETURN_IF_ERROR(flush_join());
  }

  // Column resolution for projection.
  size_t main_cols = table.columns.size();
  auto slot_of = [&](const SelectItem& item) -> size_t {
    return item.table_slot == 0 ? static_cast<size_t>(item.column_index)
                                : main_cols + static_cast<size_t>(item.column_index);
  };

  ResultSet result;
  bool has_agg = false;
  for (const SelectItem& item : sel.items) {
    if (item.agg != AggFunc::kNone) has_agg = true;
  }

  if (has_agg || !sel.group_by.empty()) {
    // Aggregation (optionally grouped). Group keys are encoded values —
    // byte-equal iff value-equal (DET cells included).
    struct ItemAcc {  // one per select item
      int64_t count_col = 0;
      double sum = 0;
      bool sum_is_double = false;
      Value min, max;
    };
    struct Acc {
      int64_t count = 0;
      std::vector<ItemAcc> items;
      Value group_value;
    };
    size_t group_slot = 0;
    bool grouped = !sel.group_by.empty();
    if (grouped) {
      group_slot = sel.group_by_slot == 0
                       ? static_cast<size_t>(sel.group_by_index)
                       : main_cols + static_cast<size_t>(sel.group_by_index);
    }
    std::map<Bytes, Acc> groups;
    for (const auto& row : rows) {
      Bytes key;
      if (grouped) key = row[group_slot].Encode();
      Acc& acc = groups[key];
      if (grouped) acc.group_value = row[group_slot];
      ++acc.count;
      acc.items.resize(sel.items.size());
      for (size_t k = 0; k < sel.items.size(); ++k) {
        const SelectItem& item = sel.items[k];
        if (item.agg == AggFunc::kNone || item.star) continue;
        const Value& v = row[slot_of(item)];
        if (v.is_null()) continue;
        ItemAcc& ia = acc.items[k];
        ++ia.count_col;
        if (v.IsNumeric()) {
          ia.sum += v.AsDouble();
          if (v.type() == TypeId::kDouble) ia.sum_is_double = true;
        }
        if (ia.min.is_null() || *v.Compare(ia.min) < 0) ia.min = v;
        if (ia.max.is_null() || *v.Compare(ia.max) > 0) ia.max = v;
      }
    }
    if (!grouped && groups.empty()) {  // empty input: one row
      groups[Bytes{}].items.resize(sel.items.size());
    }
    for (const SelectItem& item : sel.items) {
      result.columns.push_back(item.alias.empty()
                                   ? (item.star ? "COUNT(*)" : item.column)
                                   : item.alias);
      if (item.agg == AggFunc::kNone && !item.star) {
        const TableDef& t = item.table_slot == 0 ? table : *bound.join_table;
        result.column_enc.push_back(t.columns[item.column_index].enc);
      } else {
        result.column_enc.push_back(types::EncryptionType::Plaintext());
      }
    }
    for (auto& [key, acc] : groups) {
      std::vector<Value> out_row;
      for (size_t k = 0; k < sel.items.size(); ++k) {
        const SelectItem& item = sel.items[k];
        const ItemAcc& ia = acc.items[k];
        switch (item.agg) {
          case AggFunc::kNone:
            out_row.push_back(acc.group_value);
            break;
          case AggFunc::kCount:
            out_row.push_back(Value::Int64(item.star ? acc.count : ia.count_col));
            break;
          case AggFunc::kSum:
            out_row.push_back(ia.sum_is_double
                                  ? Value::Double(ia.sum)
                                  : Value::Int64(static_cast<int64_t>(ia.sum)));
            break;
          case AggFunc::kMin:
            out_row.push_back(ia.min);
            break;
          case AggFunc::kMax:
            out_row.push_back(ia.max);
            break;
          case AggFunc::kAvg:
            out_row.push_back(ia.count_col == 0
                                  ? Value::Null(TypeId::kDouble)
                                  : Value::Double(ia.sum / ia.count_col));
            break;
        }
      }
      result.rows.push_back(std::move(out_row));
    }
    return result;
  }

  // Plain projection. ORDER BY sorts on the (plaintext) column.
  if (!sel.order_by.empty()) {
    size_t order_slot = static_cast<size_t>(sel.order_by_index);
    Status sort_status;
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const std::vector<Value>& x, const std::vector<Value>& y) {
                       const Value& a = x[order_slot];
                       const Value& b = y[order_slot];
                       if (a.is_null() || b.is_null()) return b.is_null() < a.is_null();
                       auto c = a.Compare(b);
                       if (!c.ok()) return false;
                       return sel.order_desc ? *c > 0 : *c < 0;
                     });
  }
  if (sel.limit >= 0 && rows.size() > static_cast<size_t>(sel.limit)) {
    rows.resize(static_cast<size_t>(sel.limit));
  }
  if (sel.select_all) {
    for (const ColumnDef& col : table.columns) {
      result.columns.push_back(col.name);
      result.column_enc.push_back(col.enc);
    }
    if (bound.join_table != nullptr) {
      for (const ColumnDef& col : bound.join_table->columns) {
        result.columns.push_back(col.name);
        result.column_enc.push_back(col.enc);
      }
    }
    result.rows = std::move(rows);
  } else {
    for (const SelectItem& item : sel.items) {
      result.columns.push_back(item.alias.empty() ? item.column : item.alias);
      const TableDef& t = item.table_slot == 0 ? table : *bound.join_table;
      result.column_enc.push_back(t.columns[item.column_index].enc);
    }
    for (const auto& row : rows) {
      std::vector<Value> out_row;
      out_row.reserve(sel.items.size());
      for (const SelectItem& item : sel.items) out_row.push_back(row[slot_of(item)]);
      result.rows.push_back(std::move(out_row));
    }
  }
  return result;
}

Status Executor::MaintainIndexesOnInsert(const TableDef& table,
                                         const std::vector<Value>& row,
                                         const Rid& rid, uint64_t txn) {
  for (const IndexDef* index : catalog_->TableIndexes(table.id)) {
    Bytes key = IndexKeyFor(table.columns[index->column], row[index->column]);
    AEDB_RETURN_IF_ERROR(engine_->IndexInsert(txn, index->id, key, rid));
  }
  return Status::OK();
}

Status Executor::MaintainIndexesOnDelete(const TableDef& table,
                                         const std::vector<Value>& row,
                                         const Rid& rid, uint64_t txn) {
  for (const IndexDef* index : catalog_->TableIndexes(table.id)) {
    Bytes key = IndexKeyFor(table.columns[index->column], row[index->column]);
    AEDB_RETURN_IF_ERROR(engine_->IndexDelete(txn, index->id, key, rid));
  }
  return Status::OK();
}

Result<int64_t> Executor::Insert(const BoundStatement& bound,
                                 const std::vector<Value>& params,
                                 uint64_t txn) {
  const InsertStmt& ins = *bound.stmt.insert;
  const TableDef& table = *bound.table;

  std::vector<int> targets;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < table.columns.size(); ++i) targets.push_back(static_cast<int>(i));
  } else {
    for (const std::string& name : ins.columns) targets.push_back(table.FindColumn(name));
  }

  InputLayout layout;  // VALUES expressions see only parameters
  int64_t inserted = 0;
  for (const auto& value_row : ins.rows) {
    std::vector<Value> row(table.columns.size());
    for (size_t i = 0; i < table.columns.size(); ++i) {
      row[i] = Value::Null(table.columns[i].type);
    }
    es::EvalContext ctx;
    ctx.enclave = invoker_;
    es::EsEvaluator evaluator(ctx);
    for (size_t i = 0; i < value_row.size(); ++i) {
      const ColumnDef& col = table.columns[targets[i]];
      std::shared_ptr<const es::EsProgram> program;
      AEDB_ASSIGN_OR_RETURN(program, CompiledFor(value_row[i].get(), layout,
                                                 bound.params, true));
      std::vector<Value> out;
      AEDB_ASSIGN_OR_RETURN(out, evaluator.Eval(*program, params));
      if (col.enc.is_encrypted()) {
        if (!out[0].is_null() && out[0].type() != TypeId::kBinary) {
          return Status::SecurityError(
              "plaintext value for encrypted column " + col.name +
              " (driver must encrypt parameters)");
        }
        row[targets[i]] = std::move(out[0]);
      } else {
        AEDB_ASSIGN_OR_RETURN(row[targets[i]], Coerce(col.type, out[0]));
      }
    }
    for (size_t i = 0; i < table.columns.size(); ++i) {
      if (!table.columns[i].nullable && row[i].is_null()) {
        return Status::InvalidArgument("column " + table.columns[i].name +
                                       " is NOT NULL");
      }
    }
    AEDB_RETURN_IF_ERROR(CheckQueryDeadline());
    AEDB_RETURN_IF_ERROR(CheckWriteShed());
    // Exclusive statement latch: the heap insert and every index insert
    // become one atomic step for unlatched readers. LockRow inside the latch
    // is safe — slot ids are never recycled, so a fresh rid has no owner and
    // the acquire cannot block.
    std::shared_mutex* stmt = engine_->StatementLatch(table.id);
    std::unique_lock<std::shared_mutex> stmt_lock;
    if (stmt != nullptr) stmt_lock = std::unique_lock<std::shared_mutex>(*stmt);
    Rid rid;
    AEDB_ASSIGN_OR_RETURN(rid, engine_->HeapInsert(txn, table.id, EncodeRow(row)));
    AEDB_RETURN_IF_ERROR(engine_->LockRow(txn, table.id, rid));
    AEDB_RETURN_IF_ERROR(MaintainIndexesOnInsert(table, row, rid, txn));
    if (stmt_lock.owns_lock()) stmt_lock.unlock();
    ++inserted;
  }
  return inserted;
}

Result<int64_t> Executor::Update(const BoundStatement& bound,
                                 const std::vector<Value>& params,
                                 uint64_t txn) {
  const UpdateStmt& upd = *bound.stmt.update;
  const TableDef& table = *bound.table;

  std::vector<std::pair<Rid, std::vector<Value>>> matches;
  AEDB_ASSIGN_OR_RETURN(matches,
                        CollectMatches(bound, upd.where.get(), table, params));

  InputLayout layout;
  layout.table_columns = table.columns.size();
  std::vector<std::pair<int, std::shared_ptr<const es::EsProgram>>>
      set_programs;
  for (const auto& [col_name, expr] : upd.sets) {
    int idx = table.FindColumn(col_name);
    std::shared_ptr<const es::EsProgram> program;
    AEDB_ASSIGN_OR_RETURN(program,
                          CompiledFor(expr.get(), layout, bound.params, true));
    set_programs.emplace_back(idx, std::move(program));
  }

  int64_t updated = 0;
  for (auto& [rid, row] : matches) {
    AEDB_RETURN_IF_ERROR(CheckQueryDeadline());
    AEDB_RETURN_IF_ERROR(CheckWriteShed());
    AEDB_RETURN_IF_ERROR(engine_->LockRow(txn, table.id, rid));
    // The scan ran before the lock was granted: a concurrent transaction may
    // have updated (moved) or deleted the row in the meantime. Re-read under
    // the lock so index maintenance sees the current committed values; a
    // vanished rid is a write-write conflict the caller must retry.
    auto current = FetchRow(table, rid);
    if (!current.ok()) {
      return Status::FailedPrecondition(
          "row changed during lock wait (write-write conflict): " +
          current.status().ToString());
    }
    row = std::move(*current);
    std::vector<Value> inputs = row;
    inputs.insert(inputs.end(), params.begin(), params.end());
    std::vector<Value> new_row = row;
    es::EvalContext ctx;
    ctx.enclave = invoker_;
    es::EsEvaluator evaluator(ctx);
    for (auto& [idx, program] : set_programs) {
      const ColumnDef& col = table.columns[idx];
      std::vector<Value> out;
      AEDB_ASSIGN_OR_RETURN(out, evaluator.Eval(*program, inputs));
      if (col.enc.is_encrypted()) {
        if (!out[0].is_null() && out[0].type() != TypeId::kBinary) {
          return Status::SecurityError("plaintext value for encrypted column " +
                                       col.name);
        }
        new_row[idx] = std::move(out[0]);
      } else {
        AEDB_ASSIGN_OR_RETURN(new_row[idx], Coerce(col.type, out[0]));
      }
      if (!col.nullable && new_row[idx].is_null()) {
        return Status::InvalidArgument("column " + col.name + " is NOT NULL");
      }
    }
    // Delete + insert keeps undo physical (see storage engine docs). The
    // whole move runs under the exclusive statement latch so latched readers
    // see the row before or after, never the index-less middle (LockRow on
    // the fresh rid cannot block: slot ids are never recycled).
    std::shared_mutex* stmt = engine_->StatementLatch(table.id);
    std::unique_lock<std::shared_mutex> stmt_lock;
    if (stmt != nullptr) stmt_lock = std::unique_lock<std::shared_mutex>(*stmt);
    AEDB_RETURN_IF_ERROR(MaintainIndexesOnDelete(table, row, rid, txn));
    AEDB_RETURN_IF_ERROR(engine_->HeapDelete(txn, table.id, rid));
    Rid new_rid;
    AEDB_ASSIGN_OR_RETURN(new_rid,
                          engine_->HeapInsert(txn, table.id, EncodeRow(new_row)));
    AEDB_RETURN_IF_ERROR(engine_->LockRow(txn, table.id, new_rid));
    AEDB_RETURN_IF_ERROR(MaintainIndexesOnInsert(table, new_row, new_rid, txn));
    if (stmt_lock.owns_lock()) stmt_lock.unlock();
    ++updated;
  }
  return updated;
}

Result<int64_t> Executor::Delete(const BoundStatement& bound,
                                 const std::vector<Value>& params,
                                 uint64_t txn) {
  const DeleteStmt& del = *bound.stmt.del;
  const TableDef& table = *bound.table;
  std::vector<std::pair<Rid, std::vector<Value>>> matches;
  AEDB_ASSIGN_OR_RETURN(matches,
                        CollectMatches(bound, del.where.get(), table, params));
  int64_t deleted = 0;
  for (auto& [rid, row] : matches) {
    AEDB_RETURN_IF_ERROR(CheckQueryDeadline());
    AEDB_RETURN_IF_ERROR(CheckWriteShed());
    AEDB_RETURN_IF_ERROR(engine_->LockRow(txn, table.id, rid));
    // Same lock-then-revalidate as Update: the row may have moved or vanished
    // while we waited for the lock.
    auto current = FetchRow(table, rid);
    if (!current.ok()) {
      return Status::FailedPrecondition(
          "row changed during lock wait (write-write conflict): " +
          current.status().ToString());
    }
    row = std::move(*current);
    // Same statement-latch discipline as Update: index deletes and the heap
    // delete are one atomic step for latched readers.
    std::shared_mutex* stmt = engine_->StatementLatch(table.id);
    std::unique_lock<std::shared_mutex> stmt_lock;
    if (stmt != nullptr) stmt_lock = std::unique_lock<std::shared_mutex>(*stmt);
    AEDB_RETURN_IF_ERROR(MaintainIndexesOnDelete(table, row, rid, txn));
    AEDB_RETURN_IF_ERROR(engine_->HeapDelete(txn, table.id, rid));
    if (stmt_lock.owns_lock()) stmt_lock.unlock();
    ++deleted;
  }
  return deleted;
}

Status Executor::BuildIndex(const TableDef& table, const IndexDef& index,
                            uint64_t txn) {
  Status inner = Status::OK();
  engine_->table(table.id)->Scan([&](const Rid& rid, Slice record) {
    auto row = DecodeRow(record, table.columns.size());
    if (!row.ok()) {
      inner = row.status();
      return false;
    }
    Bytes key =
        IndexKeyFor(table.columns[index.column], (*row)[index.column]);
    Status st = engine_->IndexInsert(txn, index.id, key, rid);
    if (!st.ok()) {
      inner = st;
      return false;
    }
    return true;
  });
  return inner;
}

}  // namespace aedb::sql
