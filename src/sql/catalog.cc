#include "sql/catalog.h"

#include <algorithm>

namespace aedb::sql {

namespace {
std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}
}  // namespace

int TableDef::FindColumn(std::string_view column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (Lower(columns[i].name) == Lower(column_name)) return static_cast<int>(i);
  }
  return -1;
}

Result<const TableDef*> Catalog::CreateTable(TableDef def) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Lower(def.name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + def.name);
  }
  def.id = next_table_id_++;
  auto [it, ok] = tables_.emplace(key, std::move(def));
  (void)ok;
  return &it->second;
}

Result<const TableDef*> Catalog::GetTable(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Lower(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + std::string(name));
  return &it->second;
}

const TableDef* Catalog::GetTableById(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, def] : tables_) {
    if (def.id == id) return &def;
  }
  return nullptr;
}

Status Catalog::DropTable(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(Lower(name)) == 0) return Status::NotFound("no such table");
  return Status::OK();
}

Status Catalog::AlterColumn(std::string_view table, int column,
                            const ColumnDef& def) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Lower(table));
  if (it == tables_.end()) return Status::NotFound("no such table");
  if (column < 0 || column >= static_cast<int>(it->second.columns.size())) {
    return Status::InvalidArgument("column index out of range");
  }
  it->second.columns[column] = def;
  return Status::OK();
}

Result<const IndexDef*> Catalog::CreateIndex(IndexDef def) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Lower(def.name);
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("index exists: " + def.name);
  }
  def.id = next_index_id_++;
  auto [it, ok] = indexes_.emplace(key, std::move(def));
  (void)ok;
  return &it->second;
}

Status Catalog::DropIndex(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (indexes_.erase(Lower(name)) == 0) return Status::NotFound("no such index");
  return Status::OK();
}

Result<const IndexDef*> Catalog::GetIndex(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = indexes_.find(Lower(name));
  if (it == indexes_.end()) return Status::NotFound("no such index");
  return &it->second;
}

const IndexDef* Catalog::GetIndexById(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, def] : indexes_) {
    if (def.id == id) return &def;
  }
  return nullptr;
}

std::vector<const IndexDef*> Catalog::TableIndexes(uint32_t table_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const IndexDef*> out;
  for (const auto& [name, def] : indexes_) {
    if (def.table_id == table_id) out.push_back(&def);
  }
  return out;
}

const IndexDef* Catalog::FindIndexOn(uint32_t table_id, int column,
                                     IndexKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, def] : indexes_) {
    if (def.table_id == table_id && def.column == column && def.kind == kind) {
      return &def;
    }
  }
  return nullptr;
}

void Catalog::ForceNextIds(uint32_t table_id, uint32_t index_id,
                           uint32_t cek_id) {
  std::lock_guard<std::mutex> lock(mu_);
  next_table_id_ = table_id;
  next_index_id_ = index_id;
  next_cek_id_ = cek_id;
}

Status Catalog::AddCmk(keys::CmkInfo cmk) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Lower(cmk.name);
  if (cmks_.count(key) > 0) return Status::AlreadyExists("CMK exists");
  cmks_.emplace(key, std::move(cmk));
  return Status::OK();
}

Result<const keys::CmkInfo*> Catalog::GetCmk(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cmks_.find(Lower(name));
  if (it == cmks_.end()) return Status::NotFound("no such CMK: " + std::string(name));
  return &it->second;
}

Result<uint32_t> Catalog::AddCek(keys::CekInfo cek) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Lower(cek.name);
  if (ceks_.count(key) > 0) return Status::AlreadyExists("CEK exists");
  for (const keys::CekValue& v : cek.values) {
    if (cmks_.count(Lower(v.cmk_name)) == 0) {
      return Status::NotFound("CEK references unknown CMK: " + v.cmk_name);
    }
  }
  uint32_t id = next_cek_id_++;
  cek_ids_[key] = id;
  cek_names_[id] = key;
  ceks_.emplace(key, std::move(cek));
  return id;
}

Result<const keys::CekInfo*> Catalog::GetCek(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ceks_.find(Lower(name));
  if (it == ceks_.end()) return Status::NotFound("no such CEK: " + std::string(name));
  return &it->second;
}

const keys::CekInfo* Catalog::GetCekById(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto name_it = cek_names_.find(id);
  if (name_it == cek_names_.end()) return nullptr;
  auto it = ceks_.find(name_it->second);
  return it == ceks_.end() ? nullptr : &it->second;
}

Result<uint32_t> Catalog::CekIdByName(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cek_ids_.find(Lower(name));
  if (it == cek_ids_.end()) return Status::NotFound("no such CEK");
  return it->second;
}

Result<bool> Catalog::CekEnclaveEnabled(uint32_t cek_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto name_it = cek_names_.find(cek_id);
  if (name_it == cek_names_.end()) return Status::NotFound("no such CEK id");
  const keys::CekInfo& cek = ceks_.at(name_it->second);
  if (cek.values.empty()) return false;
  auto cmk_it = cmks_.find(Lower(cek.values[0].cmk_name));
  if (cmk_it == cmks_.end()) return Status::NotFound("CEK's CMK missing");
  return cmk_it->second.enclave_enabled;
}

Status Catalog::UpdateCek(const keys::CekInfo& cek) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ceks_.find(Lower(cek.name));
  if (it == ceks_.end()) return Status::NotFound("no such CEK");
  it->second = cek;
  return Status::OK();
}

Bytes EncodeRow(const std::vector<types::Value>& row) {
  Bytes out;
  for (const types::Value& v : row) v.EncodeTo(&out);
  return out;
}

namespace {

/// Walks a record of `num_columns` encoded values. A column in `columns` (or
/// every column, without a set) is built and handed to `read(i, value)`; any
/// other is stepped over and its stored type handed to `skip(type)`. Every
/// column's tag and length is checked, and the record must end after the
/// last column.
template <typename Read, typename Skip>
Status WalkRecord(Slice record, size_t num_columns, const ColumnSet* columns,
                  Read&& read, Skip&& skip) {
  size_t off = 0;
  for (size_t i = 0; i < num_columns; ++i) {
    if (columns != nullptr && i < columns->size() && !(*columns)[i]) {
      types::TypeId t;
      AEDB_ASSIGN_OR_RETURN(t, types::Value::Skip(record, &off));
      skip(t);
      continue;
    }
    types::Value v;
    AEDB_ASSIGN_OR_RETURN(v, types::Value::Decode(record, &off));
    read(i, std::move(v));
  }
  if (off != record.size()) {
    return Status::Corruption("row has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<types::Value>> DecodeRow(Slice record, size_t num_columns,
                                            const ColumnSet* columns) {
  std::vector<types::Value> row;
  row.reserve(num_columns);
  AEDB_RETURN_IF_ERROR(WalkRecord(
      record, num_columns, columns,
      [&](size_t, types::Value v) { row.push_back(std::move(v)); },
      [&](types::TypeId t) { row.push_back(types::Value::Null(t)); }));
  return row;
}

ColumnBatch::ColumnBatch(size_t num_columns, const ColumnSet* columns)
    : read_(num_columns, true), values_(num_columns) {
  if (columns == nullptr) return;
  for (size_t i = 0; i < std::min(num_columns, columns->size()); ++i) {
    read_[i] = (*columns)[i];
    if (!read_[i]) ++skipped_per_row_;
  }
}

Status ColumnBatch::Append(Slice record) {
  Status st = WalkRecord(
      record, values_.size(), &read_,
      [&](size_t i, types::Value v) { values_[i].push_back(std::move(v)); },
      [&](types::TypeId t) { skipped_.push_back(t); });
  if (!st.ok()) {
    for (std::vector<types::Value>& column : values_) {
      if (column.size() > rows_) column.resize(rows_);
    }
    skipped_.resize(rows_ * skipped_per_row_);
    return st;
  }
  ++rows_;
  return Status::OK();
}

std::vector<types::Value> ColumnBatch::TakeRow(size_t r) {
  std::vector<types::Value> row;
  row.reserve(values_.size());
  const types::TypeId* skipped = skipped_.data() + r * skipped_per_row_;
  for (size_t i = 0; i < values_.size(); ++i) {
    row.push_back(read_[i] ? std::move(values_[i][r])
                           : types::Value::Null(*skipped++));
  }
  return row;
}

void ColumnBatch::Clear() {
  for (std::vector<types::Value>& column : values_) column.clear();
  skipped_.clear();
  rows_ = 0;
}

}  // namespace aedb::sql
