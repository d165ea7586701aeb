#ifndef AEDB_SQL_EXECUTOR_H_
#define AEDB_SQL_EXECUTOR_H_

#include <list>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "es/evaluator.h"
#include "sql/binder.h"
#include "sql/compiler.h"
#include "storage/engine.h"

namespace aedb::sql {

/// Query results: column headers plus rows of values. Encrypted columns come
/// back as kBinary cells — the server never holds their plaintext; the
/// driver decrypts (paper §2.4).
struct ResultSet {
  std::vector<std::string> columns;
  /// Per-column encryption metadata ("key metadata needed to decrypt the
  /// results", §3): the driver uses this to know which cells to decrypt.
  std::vector<types::EncryptionType> column_enc;
  std::vector<std::vector<types::Value>> rows;
};

/// \brief Executes bound DML against the storage engine.
///
/// Planning is integrated: point lookups use equality indexes (DET
/// ciphertext probes) or range indexes (enclave-compared probes); range and
/// BETWEEN predicates use range indexes with residual filtering; everything
/// else is a scan + filter, with filter expressions evaluated by expression
/// services — TMEval stubs route encrypted atoms into the enclave via the
/// provided invoker.
class Executor {
 public:
  Executor(const Catalog* catalog, storage::StorageEngine* engine,
           es::EnclaveInvoker* invoker)
      : catalog_(catalog), engine_(engine), invoker_(invoker) {}

  Result<ResultSet> Select(const BoundStatement& bound,
                           const std::vector<types::Value>& params,
                           uint64_t txn);
  Result<int64_t> Insert(const BoundStatement& bound,
                         const std::vector<types::Value>& params, uint64_t txn);
  Result<int64_t> Update(const BoundStatement& bound,
                         const std::vector<types::Value>& params, uint64_t txn);
  Result<int64_t> Delete(const BoundStatement& bound,
                         const std::vector<types::Value>& params, uint64_t txn);

  /// Populates a freshly created index from its table ("an index build
  /// requires sorting of data that reveals the data ordering", §3.2).
  Status BuildIndex(const TableDef& table, const IndexDef& index, uint64_t txn);

  /// The bytes an index stores for a row's column value: the raw AEAD cell
  /// for encrypted columns, the value encoding for plaintext ones.
  static Bytes IndexKeyFor(const ColumnDef& col, const types::Value& v);

  /// Drops all cached compiled programs (schema changes invalidate the
  /// encryption annotations baked into them).
  void ClearProgramCache();

  /// Rows per morsel for batched predicate evaluation: the executor buffers
  /// up to this many candidate rows and evaluates the filter over all of
  /// them with ONE enclave round trip (paper §4.6 amortization). 1 degrades
  /// to the row-at-a-time path; results are identical at any size.
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }
  size_t batch_size() const { return batch_size_; }

 private:
  struct Candidates {
    bool use_index = false;
    std::vector<storage::Rid> rids;  // when use_index
  };

  /// Finds candidate rows for the WHERE clause of `bound` over `table`,
  /// using an index when one matches a conjunct.
  Result<Candidates> PlanAccess(const Expr* where, const TableDef& table,
                                const std::vector<types::Value>& params);

  /// Evaluates a filter over a morsel: one EsEvaluator::EvalBatch run, so
  /// every encrypted atom in the filter crosses the enclave boundary once
  /// for the whole morsel. pass[i] applies SQL semantics (NULL fails).
  Result<std::vector<char>> EvalPredicateBatch(const es::EsProgram& program,
                                               const es::Morsel& morsel);

  /// Compiled-program cache — the CEsComp-in-plan-cache of paper §4.4.
  /// Keyed by a fingerprint of (expression shape + binder annotations, input
  /// layout, parameter types, compile mode) rather than the Expr* address:
  /// re-parsed statements with identical shapes share an entry, and distinct
  /// expressions can never collide on a recycled pointer. Bounded by LRU
  /// eviction; shared_ptr returns keep an evicted program alive for callers
  /// mid-statement.
  Result<std::shared_ptr<const es::EsProgram>> CompiledFor(
      const Expr* expr, const InputLayout& layout,
      const std::vector<BoundParam>& params, bool value_expr);

  /// Reads and decodes a row.
  Result<std::vector<types::Value>> FetchRow(const TableDef& table,
                                             const storage::Rid& rid);

  /// Collects (rid, row) pairs matching the filter. Candidates are decoded
  /// column-major, only `columns` when given (see ColumnBatch), and a row
  /// vector is built only for a match. The set must hold every column
  /// `where` reads.
  Result<std::vector<std::pair<storage::Rid, std::vector<types::Value>>>>
  CollectMatches(const BoundStatement& bound, const Expr* where,
                 const TableDef& table,
                 const std::vector<types::Value>& params,
                 const ColumnSet* columns = nullptr);

  Status MaintainIndexesOnInsert(const TableDef& table,
                                 const std::vector<types::Value>& row,
                                 const storage::Rid& rid, uint64_t txn);
  Status MaintainIndexesOnDelete(const TableDef& table,
                                 const std::vector<types::Value>& row,
                                 const storage::Rid& rid, uint64_t txn);

  const Catalog* catalog_;
  storage::StorageEngine* engine_;
  es::EnclaveInvoker* invoker_;
  size_t batch_size_ = 256;

  static constexpr size_t kProgramCacheCap = 128;
  struct CacheEntry {
    std::shared_ptr<const es::EsProgram> program;
    std::list<std::string>::iterator lru_it;
  };
  std::shared_mutex program_cache_mu_;
  std::map<std::string, CacheEntry> program_cache_;
  std::list<std::string> lru_;  // front = most recently used
};

/// Orders a plaintext index by decoded Value comparison (NULLs first).
class ValueComparator : public storage::Comparator {
 public:
  Result<int> Compare(Slice a, Slice b) const override;
  const char* Name() const override { return "value"; }
};

}  // namespace aedb::sql

#endif  // AEDB_SQL_EXECUTOR_H_
