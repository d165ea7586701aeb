#ifndef AEDB_ENCLAVE_ENCLAVE_H_
#define AEDB_ENCLAVE_ENCLAVE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/cell_codec.h"
#include "crypto/dh.h"
#include "crypto/rsa.h"
#include "enclave/nonce_tracker.h"
#include "es/evaluator.h"
#include "es/program.h"

namespace aedb::enclave {

class VbsPlatform;

/// \brief A signed, loadable enclave binary (the "specially compiled dll",
/// paper §2.1). The binary hash stands in for the code measurement; the
/// author signature is the "specially provisioned signing key" of §4.2.
struct EnclaveImage {
  std::string name;
  uint32_t version = 1;
  crypto::RsaPublicKey author_public;
  Bytes author_signature;  // over BinaryHash()

  /// Measurement of the code identity: SHA-256 over name and version.
  Bytes BinaryHash() const;
  /// Author identity: SHA-256 of the author's public key.
  Bytes AuthorId() const;

  /// Builds and signs the standard AE expression-services enclave image.
  static EnclaveImage MakeEsImage(uint32_t version,
                                  const crypto::RsaPrivateKey& author_key);
};

/// The enclave report (paper §4.2): attributes of the loaded enclave measured
/// by the platform, including the hash of the enclave's run-time public key.
struct EnclaveReport {
  Bytes binary_hash;
  Bytes author_id;
  uint32_t enclave_version = 0;
  uint32_t platform_version = 0;
  Bytes enclave_public_key_hash;

  Bytes Serialize() const;
  static Result<EnclaveReport> Deserialize(Slice in);
};

/// Everything the server relays to the client after invoking attestation:
/// the platform-signed report, the enclave public key (whose hash is in the
/// report), and the enclave's DH public key signed by the enclave key —
/// the DH exchange is folded into attestation to save round trips (§4.2).
struct AttestationResponse {
  Bytes report_bytes;        // EnclaveReport::Serialize()
  Bytes report_signature;    // host (hypervisor) signing key over report_bytes
  Bytes enclave_public_key;  // RsaPublicKey::Serialize()
  Bytes enclave_dh_public;   // 256-byte group element
  Bytes dh_signature;        // enclave key over (enclave_dh || client_dh)
  uint64_t session_id = 0;
};

/// Tuning knobs for the simulated TEE.
struct EnclaveConfig {
  /// Cost charged (busy-wait) on every crossing of the host/enclave boundary,
  /// modeling the VBS call-gate overhead the paper's §4.6 optimizations
  /// amortize. 0 disables the charge (unit tests).
  uint64_t transition_cost_ns = 0;
  /// Size of the RSA key generated at enclave load. 1024 keeps simulation
  /// startup fast; production would use 2048+.
  size_t rsa_key_bits = 1024;
};

/// Counters exposed for benchmarks and leakage tests.
struct EnclaveStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> evals{0};
  std::atomic<uint64_t> comparisons{0};
  std::atomic<uint64_t> transitions{0};
  /// Cells decrypted by expression evaluation, failed MAC checks included.
  /// A parameter rides as one cell shared by the whole morsel, so it counts
  /// once per morsel.
  std::atomic<uint64_t> decrypts{0};

  /// Derived amortization gauge: encrypted values processed (evals +
  /// comparisons) per boundary crossing. Morsels of one row pin this near 1;
  /// larger morsels are what push it up (paper §4.6).
  double ValuesPerTransition() const {
    uint64_t t = transitions.load(std::memory_order_relaxed);
    if (t == 0) return 0.0;
    return static_cast<double>(evals.load(std::memory_order_relaxed) +
                               comparisons.load(std::memory_order_relaxed)) /
           static_cast<double>(t);
  }
};

/// \brief The AE enclave: trusted code and state living inside the simulated
/// TEE. Host code interacts with it only through the public entry points
/// below (the call gate); enclave memory — CEK material, session secrets —
/// is private state with no accessors, so the "host" cannot read it by
/// construction.
///
/// Every evaluation crosses the call gate as a morsel: a registered
/// expression runs over a column-major es::Morsel (a single row is a morsel
/// of one) and a comparison is a one-cell CompareCellsBatch, so each kind of
/// work has exactly one entry point and one transition per crossing.
///
/// Concurrency follows the paper §4.6: state changes (key installs, session
/// creation, expression registration) are serialized through a single mutex
/// ("handled by a single enclave thread"); evaluation takes shared ownership.
class Enclave {
 public:
  /// Use VbsPlatform::LoadEnclave; constructor is public for the platform.
  Enclave(const EnclaveImage& image, const EnclaveConfig& config,
          VbsPlatform* platform);

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  // ----- attestation & secure channel -----

  /// Creates a session keyed by a fresh DH exchange with the client and
  /// returns the attestation material. Fails on degenerate client keys.
  Result<AttestationResponse> CreateSession(Slice client_dh_public);

  /// Installs CEKs sent over the session's secure channel. `sealed` is a
  /// session-key AEAD cell whose plaintext is:
  ///   nonce(u64) || count(u32) || { cek_id(u32) || key(len-prefixed) }*
  /// The nonce inside the sealed payload must match `nonce` and pass the
  /// session's replay tracker.
  Status InstallCeks(uint64_t session_id, uint64_t nonce, Slice sealed);

  /// Records a client authorization for an encryption-producing statement:
  /// `sealed` decrypts to nonce(u64) || SHA256(query_text). Later Eval calls
  /// that produce ciphertext must present matching query text (§3.2).
  Status AuthorizeEncryption(uint64_t session_id, uint64_t nonce, Slice sealed);

  // ----- expression services -----

  /// Registers a serialized ES program; returns the handle used by later
  /// EvalRegisteredBatch calls ("an expression is registered once in the
  /// enclave and invoked subsequently using the handle", §3). The program is
  /// deserialized inside the enclave (a deep copy, §4.4), and one that itself
  /// needs the enclave (nested TMEval) is refused here.
  Result<uint64_t> RegisterExpression(Slice program_bytes);

  /// Evaluates a registered expression over every row of `morsel` while
  /// charging a SINGLE call-gate transition for the whole morsel — the §4.6
  /// amortization — and returns one column per program output. The morsel
  /// runs column-major (es::EsEvaluator::EvalBatch) with the full per-cell
  /// type, taint and MAC checks; a shared column (a parameter) is decrypted
  /// once. For programs that produce ciphertext the server must pass the
  /// authorizing session and the raw query text, which the enclave hashes
  /// and checks against what the client authorized, once per morsel. If any
  /// row fails, the morsel fails with the error of the lowest failing row.
  Result<es::Columns> EvalRegisteredBatch(
      uint64_t handle, const es::Morsel& morsel, uint64_t session_id = 0,
      std::string_view authorizing_query = {});

  /// Transition-free variant of EvalRegisteredBatch for resident enclave
  /// worker threads (EnclaveWorkerPool::SubmitEvalBatch), which are already
  /// inside the enclave while processing the queue.
  Result<es::Columns> EvalRegisteredBatchResident(
      uint64_t handle, const es::Morsel& morsel, uint64_t session_id = 0,
      std::string_view authorizing_query = {});

  /// Three-way comparison of encrypted cells under one CEK for B+-tree
  /// maintenance and seeks (paper §3.1.2 / Figure 4): decrypts `probe` once
  /// and returns cmp(probe, cells[i]) for each i, charging ONE transition.
  /// NULLs sort first. Each comparison is counted in the leak counter — the
  /// authorized range-index leak is one plaintext ordering per cell — so a
  /// single comparison is a one-cell batch.
  Result<std::vector<int>> CompareCellsBatch(uint32_t cek_id, Slice probe,
                                             const std::vector<Slice>& cells);

  /// True if the CEK is present (used by recovery to decide whether an
  /// encrypted-index undo can proceed, §4.5).
  bool HasCek(uint32_t cek_id) const;

  /// Drops all installed CEKs (simulates enclave restart / crash recovery
  /// where keys are gone until a client reconnects).
  void ClearKeys();

  const EnclaveReport& report() const { return report_; }
  const EnclaveStats& stats() const { return stats_; }
  const EnclaveConfig& config() const { return config_; }

  /// Charges one host→enclave transition (exposed so the worker-thread pool
  /// can charge wake-ups; individual queue items processed by a spinning
  /// worker cross no boundary).
  void ChargeTransition();

 private:
  friend class EnclaveCellCrypto;

  struct Session {
    Bytes shared_secret;
    std::unique_ptr<crypto::CellCodec> channel;
    NonceTracker nonces;
    std::set<Bytes> authorized_query_hashes;
  };

  Result<Session*> FindSession(uint64_t session_id);
  Result<Bytes> OpenSealed(Session* session, uint64_t nonce, Slice sealed);

  // --- trusted state (never exposed) ---
  EnclaveConfig config_;
  VbsPlatform* platform_;
  EnclaveReport report_;
  crypto::RsaPrivateKey enclave_key_;

  // Writers (session creation, key install, registration) are serialized
  // exclusively; Eval paths hold shared locks and scale across enclave
  // threads (paper §4.6: "the other threads only read the current state").
  mutable std::shared_mutex state_mu_;
  std::map<uint64_t, Session> sessions_;
  uint64_t next_session_id_ = 1;
  std::map<uint32_t, std::unique_ptr<crypto::CellCodec>> cek_table_;
  std::map<uint64_t, es::EsProgram> registered_;
  uint64_t next_handle_ = 1;

  EnclaveStats stats_;
};

/// \brief Simulated Windows VBS platform (Hyper-V): owns the host signing
/// key and the TPM boot measurement (TCG log), verifies enclave images at
/// load, and signs enclave reports. Trusted component for VBS enclaves
/// (paper §2.1).
class VbsPlatform {
 public:
  /// `boot_configuration` determines the TCG log; HGS whitelists known-good
  /// configurations. `hypervisor_version` lands in enclave reports.
  explicit VbsPlatform(std::string boot_configuration,
                       uint32_t hypervisor_version = 1);

  /// Verifies the image's author signature and instantiates the enclave.
  Result<std::unique_ptr<Enclave>> LoadEnclave(const EnclaveImage& image,
                                               const EnclaveConfig& config);

  /// TPM measurement of the boot sequence up to the hypervisor (§4.2).
  const Bytes& tcg_log() const { return tcg_log_; }
  const crypto::RsaPublicKey& host_signing_public() const {
    return host_key_.pub;
  }
  uint32_t hypervisor_version() const { return hypervisor_version_; }

  /// Signs an enclave report with the host signing key.
  Bytes SignReport(Slice report_bytes) const;

 private:
  Bytes tcg_log_;
  uint32_t hypervisor_version_;
  crypto::RsaPrivateKey host_key_;
};

}  // namespace aedb::enclave

#endif  // AEDB_ENCLAVE_ENCLAVE_H_
