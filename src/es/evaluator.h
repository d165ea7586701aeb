#ifndef AEDB_ES_EVALUATOR_H_
#define AEDB_ES_EVALUATOR_H_

#include <span>
#include <vector>

#include "es/program.h"

namespace aedb::es {

/// How GetData/SetData handle encrypted annotations. The enclave provides a
/// real implementation backed by its CEK table; the host runs without one and
/// any attempt to touch an encrypted annotation outside the enclave fails —
/// by construction the host never sees column plaintext (paper §3).
class CellCryptoProvider {
 public:
  virtual ~CellCryptoProvider() = default;

  /// `wire` is a kBinary value holding an encrypted cell; returns the
  /// decrypted inner value, which must have type `expected_type`.
  virtual Result<types::Value> DecryptDatum(const types::EncryptionType& enc,
                                            types::TypeId expected_type,
                                            const types::Value& wire) = 0;

  /// Encrypts `plain` into a kBinary cell value under `enc`.
  virtual Result<types::Value> EncryptDatum(const types::EncryptionType& enc,
                                            const types::Value& plain) = 0;
};

/// Values by column: one inner vector per column, one value per row.
using Columns = std::vector<std::vector<types::Value>>;

/// \brief A morsel in column-major form (paper §4.6): `rows` rows and one
/// column per input slot. A column holds either one value per row or a single
/// value that every row shares, as a statement parameter does; a column of
/// one value is shared. The morsel only views its values: they belong to the
/// caller and must outlive every call that reads them.
struct Morsel {
  size_t rows = 0;
  std::vector<std::span<const types::Value>> columns;

  /// A morsel of `rows` rows over `columns`, each of `rows` values or of one.
  static Morsel Of(size_t rows, const Columns& columns);

  const types::Value& at(size_t column, size_t row) const {
    const std::span<const types::Value>& c = columns[column];
    return c[c.size() == 1 ? 0 : row];
  }
};

/// Host-side hook that ships a kTMEval subprogram into the enclave. Its one
/// entry point evaluates the subprogram over every row of `morsel` and
/// returns one column per program output, crossing the call gate once for
/// the whole morsel (paper §4.6 amortization). The row interpreter sends a
/// morsel of one.
class EnclaveInvoker {
 public:
  virtual ~EnclaveInvoker() = default;

  virtual Result<Columns> EvalInEnclaveBatch(Slice program_bytes,
                                             const Morsel& morsel,
                                             uint32_t n_outputs) = 0;
};

/// Evaluation environment.
struct EvalContext {
  /// Non-null only inside the enclave.
  CellCryptoProvider* crypto = nullptr;
  /// Non-null only on the host (routes kTMEval).
  EnclaveInvoker* enclave = nullptr;
  /// Enclave only: whether this program is authorized to produce ciphertext
  /// (client-signed DDL authorization, paper §3.2). Programs with encrypted
  /// SetData annotations fail without it.
  bool encryption_authorized = false;
};

/// \brief The CEsExec analog: executes a stack program over input data.
///
/// Inside the enclave the evaluator additionally tracks, per stack slot, the
/// CEK the datum was decrypted with ("taint"). Comparisons require both
/// operands to carry the same taint — an attacker-crafted program comparing
/// decrypted data against chosen plaintext is rejected, the security check
/// the paper calls out in §4.4.1. Boolean predicate results are produced
/// untainted: they are the authorized operational leak (Figure 5).
class EsEvaluator {
 public:
  explicit EsEvaluator(EvalContext ctx) : ctx_(ctx) {}

  /// Runs `program` with `inputs` bound to GetData slots; returns
  /// program.num_outputs() values written by SetData.
  Result<std::vector<types::Value>> Eval(const EsProgram& program,
                                         const std::vector<types::Value>& inputs);

  /// Runs `program` over a morsel, vectorized column-major: every stack slot
  /// holds one value per row, or one value all rows share, and each kTMEval
  /// stub crosses into the enclave ONCE for the whole morsel via
  /// EnclaveInvoker::EvalInEnclaveBatch. Returns program.num_outputs()
  /// columns of morsel.rows values. Plaintext inputs are read in place, and
  /// a shared value is evaluated once — so a parameter cell is decrypted once
  /// per morsel. Encryption at SetData stays per row: randomized cells get a
  /// fresh IV each. Taint tracking is per slot — taint depends only on the
  /// program's annotations, never on row data, so one taint per column is
  /// exact.
  ///
  /// Row-level semantics match Eval row by row: a row that fails a check
  /// (type mismatch, MAC failure, division by zero) is taken out of the
  /// morsel, the remaining rows complete, and the error reported is the one
  /// the lowest-numbered failing row hit first — exactly the error a
  /// row-at-a-time loop would have surfaced. A shared value that fails fails
  /// every row still running. A morsel of one row delegates to Eval, making
  /// morsel size 1 the literal row-at-a-time degenerate case.
  Result<Columns> EvalBatch(const EsProgram& program, const Morsel& morsel);

 private:
  struct Slot {
    types::Value value;
    uint32_t taint_cek = 0;  // 0 = untainted (plaintext provenance)
  };

  EvalContext ctx_;
};

}  // namespace aedb::es

#endif  // AEDB_ES_EVALUATOR_H_
