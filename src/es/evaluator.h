#ifndef AEDB_ES_EVALUATOR_H_
#define AEDB_ES_EVALUATOR_H_

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

/// Host-side hook that ships a kTMEval subprogram into the enclave. Its one
/// entry point evaluates the subprogram over every row of `batch_inputs`
/// (one inputs vector per row) and returns one outputs vector per row, in
/// order, crossing the call gate once for the whole morsel (paper §4.6
/// amortization). The row interpreter sends a morsel of one.
class EnclaveInvoker {
 public:
  virtual ~EnclaveInvoker() = default;

  virtual Result<std::vector<std::vector<types::Value>>> EvalInEnclaveBatch(
      Slice program_bytes,
      const std::vector<std::vector<types::Value>>& batch_inputs,
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

  /// Runs `program` over a batch of rows (one inputs vector per row),
  /// vectorized column-major: every stack slot holds one value per row, and
  /// each kTMEval stub crosses into the enclave ONCE for the whole batch via
  /// EnclaveInvoker::EvalInEnclaveBatch. Taint tracking is per slot — taint
  /// depends only on the program's annotations, never on row data, so one
  /// taint per column is exact.
  ///
  /// Row-level semantics match Eval row by row: a row that fails a data-
  /// dependent check (type mismatch, division by zero) is taken out of the
  /// batch, the remaining rows complete, and the error reported is the one
  /// the lowest-numbered failing row hit first — exactly the error a
  /// row-at-a-time loop would have surfaced. A batch of one row delegates to
  /// Eval, making batch size 1 the literal row-at-a-time degenerate case.
  ///
  /// An encrypted GetData lane whose cell is byte-for-byte equal to the
  /// previous lane's reuses that lane's plaintext, provided the previous lane
  /// passed its MAC check, decrypt and type check at the same instruction.
  /// Encryption at SetData stays per lane: randomized cells get a fresh IV
  /// each.
  Result<std::vector<std::vector<types::Value>>> EvalBatch(
      const EsProgram& program,
      const std::vector<std::vector<types::Value>>& rows);

 private:
  struct Slot {
    types::Value value;
    uint32_t taint_cek = 0;  // 0 = untainted (plaintext provenance)
  };

  EvalContext ctx_;
};

}  // namespace aedb::es

#endif  // AEDB_ES_EVALUATOR_H_
