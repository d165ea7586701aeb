#ifndef AEDB_SQL_CATALOG_H_
#define AEDB_SQL_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "keys/key_metadata.h"
#include "types/encryption_type.h"
#include "types/value.h"

namespace aedb::sql {

/// Column definition including its encryption configuration (paper §2.3:
/// "the encryption configuration of a column consists of an encryption
/// scheme ... and a CEK").
struct ColumnDef {
  std::string name;
  types::TypeId type = types::TypeId::kInt32;
  types::EncryptionType enc;
  bool nullable = true;
};

struct TableDef {
  uint32_t id = 0;
  std::string name;
  std::vector<ColumnDef> columns;

  /// Index of the named column, or -1.
  int FindColumn(std::string_view column_name) const;
};

/// Index kinds per paper §3.1: equality indexes order by DET ciphertext;
/// range indexes order by plaintext via enclave comparisons on RND columns
/// (or natively for plaintext columns).
enum class IndexKind : uint8_t { kEquality = 1, kRange = 2 };

struct IndexDef {
  uint32_t id = 0;
  std::string name;
  uint32_t table_id = 0;
  int column = -1;
  IndexKind kind = IndexKind::kEquality;
  bool unique = false;
};

/// Server-side metadata: tables, indexes, and the key system tables (the
/// database is "the single source of truth" for key metadata, §2.2 — only
/// the CMK material itself lives elsewhere).
class Catalog {
 public:
  Result<const TableDef*> CreateTable(TableDef def);
  Result<const TableDef*> GetTable(std::string_view name) const;
  const TableDef* GetTableById(uint32_t id) const;
  Status DropTable(std::string_view name);
  /// Replaces a column definition (ALTER TABLE ALTER COLUMN).
  Status AlterColumn(std::string_view table, int column, const ColumnDef& def);

  Result<const IndexDef*> CreateIndex(IndexDef def);
  Status DropIndex(std::string_view name);
  Result<const IndexDef*> GetIndex(std::string_view name) const;
  const IndexDef* GetIndexById(uint32_t id) const;
  /// All indexes over `table_id`.
  std::vector<const IndexDef*> TableIndexes(uint32_t table_id) const;
  /// First usable index of `kind` on (table, column), or nullptr.
  const IndexDef* FindIndexOn(uint32_t table_id, int column,
                              IndexKind kind) const;

  // --- key metadata (sys.column_master_keys / sys.column_encryption_keys) ---
  Status AddCmk(keys::CmkInfo cmk);
  Result<const keys::CmkInfo*> GetCmk(std::string_view name) const;
  Result<uint32_t> AddCek(keys::CekInfo cek);
  Result<const keys::CekInfo*> GetCek(std::string_view name) const;
  const keys::CekInfo* GetCekById(uint32_t id) const;
  Result<uint32_t> CekIdByName(std::string_view name) const;
  /// Whether the CEK's (first) CMK allows enclave computations.
  Result<bool> CekEnclaveEnabled(uint32_t cek_id) const;
  /// Replaces a CEK's metadata (CMK rotation adds/removes wrapped values).
  Status UpdateCek(const keys::CekInfo& cek);

  uint32_t next_table_id() const { return next_table_id_; }
  uint32_t next_index_id() const { return next_index_id_; }
  uint32_t next_cek_id() const { return next_cek_id_; }

  /// Forces the id counters to exact values. DDL-journal replay uses this:
  /// each journal entry snapshots the counters as they stood before its
  /// statement ran, so replay reproduces the runtime id assignment even when
  /// an intervening statement failed or was lost mid-crash after consuming
  /// an id (the WAL's object_ids reference the runtime ids).
  void ForceNextIds(uint32_t table_id, uint32_t index_id, uint32_t cek_id);

 private:
  mutable std::mutex mu_;
  std::map<std::string, TableDef> tables_;
  std::map<std::string, IndexDef> indexes_;
  std::map<std::string, keys::CmkInfo> cmks_;
  std::map<std::string, keys::CekInfo> ceks_;
  std::map<std::string, uint32_t> cek_ids_;
  std::map<uint32_t, std::string> cek_names_;
  uint32_t next_table_id_ = 1;
  uint32_t next_index_id_ = 1;
  uint32_t next_cek_id_ = 1;
};

/// A set of a table's columns, by column index: the ones a statement reads.
/// One byte per column (1 = in the set), so a row walk tests each column
/// with a plain load.
using ColumnSet = std::vector<uint8_t>;

/// Row serialization: a row is the concatenation of encoded Values; encrypted
/// columns are kBinary values whose payload is the AEAD cell.
Bytes EncodeRow(const std::vector<types::Value>& row);
/// Decodes a row of `num_columns` values. With `columns`, only the columns in
/// the set are built; every other slot becomes a NULL of its stored type.
/// Either way every column's tag and length is checked, and the record must
/// end after the last column.
Result<std::vector<types::Value>> DecodeRow(Slice record, size_t num_columns,
                                            const ColumnSet* columns = nullptr);

/// \brief Rows decoded column-major, with DecodeRow's checks: one vector of
/// values per column in the set, and for every other column only each row's
/// stored type. A scan decodes a morsel of candidate rows here, filters it,
/// and builds a row vector only for a row that passes.
class ColumnBatch {
 public:
  /// Without `columns` every column is decoded.
  ColumnBatch(size_t num_columns, const ColumnSet* columns = nullptr);

  /// Decodes `record` as one more row. A record that fails DecodeRow's
  /// checks leaves the batch as it was.
  Status Append(Slice record);

  size_t rows() const { return rows_; }
  /// True when column `c` is decoded.
  bool reads(size_t c) const { return read_[c]; }
  /// Column `c`'s decoded values, one per row; empty when it is not read.
  const std::vector<types::Value>& column(size_t c) const { return values_[c]; }

  /// Moves row `r` out as DecodeRow would have returned it: a column not in
  /// the set is a NULL of its stored type.
  std::vector<types::Value> TakeRow(size_t r);

  /// Empties the batch, keeping its capacity.
  void Clear();

 private:
  ColumnSet read_;
  std::vector<std::vector<types::Value>> values_;
  /// The unread columns' stored types, row after row.
  std::vector<types::TypeId> skipped_;
  size_t skipped_per_row_ = 0;
  size_t rows_ = 0;
};

}  // namespace aedb::sql

#endif  // AEDB_SQL_CATALOG_H_
