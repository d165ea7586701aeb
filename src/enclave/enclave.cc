#include "enclave/enclave.h"

#include <chrono>

#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "fault/fault.h"

namespace aedb::enclave {

using types::Value;

// ---------------------------------------------------------------------------
// EnclaveImage

Bytes EnclaveImage::BinaryHash() const {
  Bytes payload;
  PutLengthPrefixed(&payload, Slice(std::string_view(name)));
  PutU32(&payload, version);
  PutLengthPrefixed(&payload, Slice(std::string_view("aedb-es-enclave-code")));
  return crypto::Sha256::Hash(payload);
}

Bytes EnclaveImage::AuthorId() const {
  return crypto::Sha256::Hash(author_public.Serialize());
}

EnclaveImage EnclaveImage::MakeEsImage(uint32_t version,
                                       const crypto::RsaPrivateKey& author_key) {
  EnclaveImage image;
  image.name = "aedb_es_enclave";
  image.version = version;
  image.author_public = author_key.pub;
  image.author_signature = crypto::Pkcs1Sign(author_key, image.BinaryHash());
  return image;
}

// ---------------------------------------------------------------------------
// EnclaveReport

Bytes EnclaveReport::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, binary_hash);
  PutLengthPrefixed(&out, author_id);
  PutU32(&out, enclave_version);
  PutU32(&out, platform_version);
  PutLengthPrefixed(&out, enclave_public_key_hash);
  return out;
}

Result<EnclaveReport> EnclaveReport::Deserialize(Slice in) {
  EnclaveReport r;
  size_t off = 0;
  AEDB_ASSIGN_OR_RETURN(r.binary_hash, GetLengthPrefixed(in, &off));
  AEDB_ASSIGN_OR_RETURN(r.author_id, GetLengthPrefixed(in, &off));
  AEDB_ASSIGN_OR_RETURN(r.enclave_version, GetU32(in, &off));
  AEDB_ASSIGN_OR_RETURN(r.platform_version, GetU32(in, &off));
  AEDB_ASSIGN_OR_RETURN(r.enclave_public_key_hash, GetLengthPrefixed(in, &off));
  return r;
}

// ---------------------------------------------------------------------------
// Enclave-side crypto provider for the ES evaluator.

/// Bridges the shared ES evaluator to the enclave's CEK table. Constructed
/// on the enclave side of the boundary only.
class EnclaveCellCrypto : public es::CellCryptoProvider {
 public:
  explicit EnclaveCellCrypto(Enclave* enclave) : enclave_(enclave) {}

  Result<Value> DecryptDatum(const types::EncryptionType& enc,
                             types::TypeId expected_type,
                             const Value& wire) override {
    (void)expected_type;
    ++decrypts_;
    if (wire.is_null() || wire.type() != types::TypeId::kBinary) {
      return Status::Corruption("encrypted datum must arrive as a binary cell");
    }
    auto it = enclave_->cek_table_.find(enc.cek_id);
    if (it == enclave_->cek_table_.end()) {
      return Status::KeyNotInEnclave("CEK " + std::to_string(enc.cek_id) +
                                     " not installed in enclave");
    }
    Bytes plain;
    AEDB_ASSIGN_OR_RETURN(plain, it->second->Decrypt(wire.bin()));
    size_t off = 0;
    Value v;
    AEDB_ASSIGN_OR_RETURN(v, Value::Decode(plain, &off));
    return v;
  }

  Result<Value> EncryptDatum(const types::EncryptionType& enc,
                             const Value& plain) override {
    auto it = enclave_->cek_table_.find(enc.cek_id);
    if (it == enclave_->cek_table_.end()) {
      return Status::KeyNotInEnclave("CEK " + std::to_string(enc.cek_id) +
                                     " not installed in enclave");
    }
    return Value::Binary(it->second->Encrypt(plain.Encode(), enc.scheme()));
  }

  /// DecryptDatum calls so far, failed ones included.
  uint64_t decrypts() const { return decrypts_; }

 private:
  Enclave* enclave_;
  uint64_t decrypts_ = 0;
};

// ---------------------------------------------------------------------------
// Enclave

Enclave::Enclave(const EnclaveImage& image, const EnclaveConfig& config,
                 VbsPlatform* platform)
    : config_(config), platform_(platform) {
  crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                        Slice(std::string_view("enclave-load-key")));
  enclave_key_ = crypto::GenerateRsaKey(config.rsa_key_bits, &drbg);
  report_.binary_hash = image.BinaryHash();
  report_.author_id = image.AuthorId();
  report_.enclave_version = image.version;
  report_.platform_version = platform->hypervisor_version();
  report_.enclave_public_key_hash =
      crypto::Sha256::Hash(enclave_key_.pub.Serialize());
}

void Enclave::ChargeTransition() {
  stats_.transitions.fetch_add(1, std::memory_order_relaxed);
  if (config_.transition_cost_ns == 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(config_.transition_cost_ns);
  while (std::chrono::steady_clock::now() < until) {
    // Busy-wait models the VBS call-gate world switch.
  }
}

Result<AttestationResponse> Enclave::CreateSession(Slice client_dh_public) {
  ChargeTransition();
  stats_.calls.fetch_add(1, std::memory_order_relaxed);

  crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                        Slice(std::string_view("enclave-session-dh")));
  crypto::DhKeyPair dh = crypto::GenerateDhKeyPair(&drbg);
  Bytes secret;
  AEDB_ASSIGN_OR_RETURN(
      secret, crypto::DhComputeSharedSecret(dh.private_key, client_dh_public));

  AttestationResponse resp;
  resp.report_bytes = report_.Serialize();
  resp.report_signature = platform_->SignReport(resp.report_bytes);
  resp.enclave_public_key = enclave_key_.pub.Serialize();
  resp.enclave_dh_public = crypto::DhPublicKeyBytes(dh);
  Bytes to_sign = resp.enclave_dh_public;
  to_sign.insert(to_sign.end(), client_dh_public.data(),
                 client_dh_public.data() + client_dh_public.size());
  resp.dh_signature = crypto::Pkcs1Sign(enclave_key_, to_sign);

  std::unique_lock lock(state_mu_);
  resp.session_id = next_session_id_++;
  Session& session = sessions_[resp.session_id];
  session.channel = std::make_unique<crypto::CellCodec>(secret);
  session.shared_secret = std::move(secret);
  return resp;
}

Result<Enclave::Session*> Enclave::FindSession(uint64_t session_id) {
  fault::FaultSpec spec;
  if (AEDB_FAULT_FIRED("enclave/evict_session", &spec)) {
    // Logical eviction: the lookup acts as if the session is gone, so the
    // client must re-attest. The entry itself is left in place because some
    // callers reach here holding state_mu_ in shared mode.
    return Status::SessionNotFound("enclave session " +
                                   std::to_string(session_id) +
                                   " evicted (injected)");
  }
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::SessionNotFound("unknown enclave session " +
                                   std::to_string(session_id));
  }
  return &it->second;
}

Result<Bytes> Enclave::OpenSealed(Session* session, uint64_t nonce,
                                  Slice sealed) {
  Bytes plain;
  AEDB_ASSIGN_OR_RETURN(plain, session->channel->Decrypt(sealed));
  size_t off = 0;
  uint64_t inner_nonce;
  AEDB_ASSIGN_OR_RETURN(inner_nonce, GetU64(plain, &off));
  if (inner_nonce != nonce) {
    return Status::SecurityError("sealed payload nonce mismatch");
  }
  AEDB_RETURN_IF_ERROR(session->nonces.CheckAndRecord(nonce));
  return Bytes(plain.begin() + off, plain.end());
}

Status Enclave::InstallCeks(uint64_t session_id, uint64_t nonce, Slice sealed) {
  ChargeTransition();
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(state_mu_);
  Session* session;
  AEDB_ASSIGN_OR_RETURN(session, FindSession(session_id));
  {
    fault::FaultSpec spec;
    if (AEDB_FAULT_FIRED("enclave/nonce_tracker_reset", &spec)) {
      // Models an enclave losing its replay-protection state: previously
      // consumed nonces become acceptable again. The driver's monotonic nonce
      // counter is what keeps the channel safe across this.
      session->nonces.Reset();
    }
  }
  Bytes body;
  AEDB_ASSIGN_OR_RETURN(body, OpenSealed(session, nonce, sealed));
  size_t off = 0;
  uint32_t count;
  AEDB_ASSIGN_OR_RETURN(count, GetU32(body, &off));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t cek_id;
    AEDB_ASSIGN_OR_RETURN(cek_id, GetU32(body, &off));
    Bytes material;
    AEDB_ASSIGN_OR_RETURN(material, GetLengthPrefixed(body, &off));
    if (material.size() != 32) {
      return Status::InvalidArgument("CEK material must be 32 bytes");
    }
    cek_table_[cek_id] = std::make_unique<crypto::CellCodec>(material);
  }
  return Status::OK();
}

Status Enclave::AuthorizeEncryption(uint64_t session_id, uint64_t nonce,
                                    Slice sealed) {
  ChargeTransition();
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(state_mu_);
  Session* session;
  AEDB_ASSIGN_OR_RETURN(session, FindSession(session_id));
  Bytes body;
  AEDB_ASSIGN_OR_RETURN(body, OpenSealed(session, nonce, sealed));
  if (body.size() != crypto::Sha256::kDigestSize) {
    return Status::InvalidArgument("authorization payload must be a SHA-256");
  }
  session->authorized_query_hashes.insert(body);
  return Status::OK();
}

Result<uint64_t> Enclave::RegisterExpression(Slice program_bytes) {
  ChargeTransition();
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  es::EsProgram program;
  AEDB_ASSIGN_OR_RETURN(program, es::EsProgram::Deserialize(program_bytes));
  if (program.RequiresEnclave()) {
    return Status::SecurityError("nested TMEval rejected by enclave");
  }
  std::unique_lock lock(state_mu_);
  uint64_t handle = next_handle_++;
  registered_.emplace(handle, std::move(program));
  return handle;
}

Result<es::Columns> Enclave::EvalRegisteredBatch(
    uint64_t handle, const es::Morsel& morsel, uint64_t session_id,
    std::string_view authorizing_query) {
  // One transition covers the entire morsel — that is the whole point.
  ChargeTransition();
  return EvalRegisteredBatchResident(handle, morsel, session_id,
                                     authorizing_query);
}

Result<es::Columns> Enclave::EvalRegisteredBatchResident(
    uint64_t handle, const es::Morsel& morsel, uint64_t session_id,
    std::string_view authorizing_query) {
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock lock(state_mu_);
  auto it = registered_.find(handle);
  if (it == registered_.end()) {
    return Status::NotFound("unknown expression handle");
  }
  const es::EsProgram& program = it->second;
  if (morsel.rows == 0) return es::Columns(program.num_outputs());
  bool authorized = false;
  if (program.RequiresConversionAuthorization()) {
    // The Encrypt oracle (and every other enclave type conversion) is gated:
    // the server must present the query text the client signed into this
    // session (paper §3.2). The shared state lock is held for the whole
    // morsel, so one verdict holds for every row of it.
    Session* session;
    AEDB_ASSIGN_OR_RETURN(session, FindSession(session_id));
    Bytes hash = crypto::Sha256::Hash(Slice(authorizing_query));
    if (session->authorized_query_hashes.count(hash) == 0) {
      return Status::PermissionDenied(
          "client did not authorize this encryption statement");
    }
    authorized = true;
  }
  for (size_t i = 0; i < morsel.rows; ++i) {
    // Passed once per row before the morsel is evaluated: a fault fired
    // here is a clean statement error with no row of the morsel evaluated —
    // tests/batch_equiv_test exercises this.
    AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("enclave/batch_partial_failure"));
  }
  stats_.evals.fetch_add(morsel.rows, std::memory_order_relaxed);
  // Column-major over the morsel: each instruction runs across every row
  // before the next, with the same per-cell type, taint and MAC checks as a
  // morsel of one.
  EnclaveCellCrypto cell_crypto(this);
  es::EvalContext ctx;
  ctx.crypto = &cell_crypto;
  ctx.enclave = nullptr;
  ctx.encryption_authorized = authorized;
  es::EsEvaluator evaluator(ctx);
  auto out = evaluator.EvalBatch(program, morsel);
  stats_.decrypts.fetch_add(cell_crypto.decrypts(), std::memory_order_relaxed);
  return out;
}

Result<std::vector<int>> Enclave::CompareCellsBatch(
    uint32_t cek_id, Slice probe, const std::vector<Slice>& cells) {
  ChargeTransition();
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock lock(state_mu_);
  auto it = cek_table_.find(cek_id);
  if (it == cek_table_.end()) {
    return Status::KeyNotInEnclave("CEK " + std::to_string(cek_id) +
                                   " not installed in enclave");
  }
  Bytes plain_probe;
  AEDB_ASSIGN_OR_RETURN(plain_probe, it->second->Decrypt(probe));
  size_t off = 0;
  Value vp;
  AEDB_ASSIGN_OR_RETURN(vp, Value::Decode(plain_probe, &off));
  std::vector<int> out;
  out.reserve(cells.size());
  for (Slice cell : cells) {
    AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("enclave/batch_partial_failure"));
    Bytes plain;
    AEDB_ASSIGN_OR_RETURN(plain, it->second->Decrypt(cell));
    off = 0;
    Value vc;
    AEDB_ASSIGN_OR_RETURN(vc, Value::Decode(plain, &off));
    // Every individual ordering disclosed is charged to the leak counter,
    // whatever the number of cells that shared the crossing.
    stats_.comparisons.fetch_add(1, std::memory_order_relaxed);
    if (vp.is_null() && vc.is_null()) {
      out.push_back(0);
    } else if (vp.is_null()) {
      out.push_back(-1);
    } else if (vc.is_null()) {
      out.push_back(1);
    } else {
      int c;
      AEDB_ASSIGN_OR_RETURN(c, vp.Compare(vc));
      out.push_back(c);
    }
  }
  return out;
}

bool Enclave::HasCek(uint32_t cek_id) const {
  std::shared_lock lock(state_mu_);
  return cek_table_.count(cek_id) > 0;
}

void Enclave::ClearKeys() {
  std::unique_lock lock(state_mu_);
  cek_table_.clear();
  sessions_.clear();
}

// ---------------------------------------------------------------------------
// VbsPlatform

VbsPlatform::VbsPlatform(std::string boot_configuration,
                         uint32_t hypervisor_version)
    : hypervisor_version_(hypervisor_version) {
  // The TCG log is the TPM's measurement of the boot chain up to the
  // hypervisor; deterministic in the boot configuration so that a modified
  // boot chain yields a different log (and fails the HGS whitelist).
  Bytes payload;
  PutLengthPrefixed(&payload, Slice(std::string_view(boot_configuration)));
  PutU32(&payload, hypervisor_version);
  tcg_log_ = crypto::Sha256::Hash(payload);
  crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                        Slice(std::string_view("vbs-host-signing-key")));
  host_key_ = crypto::GenerateRsaKey(1024, &drbg);
}

Result<std::unique_ptr<Enclave>> VbsPlatform::LoadEnclave(
    const EnclaveImage& image, const EnclaveConfig& config) {
  // Refuse to load a tampered or unsigned image.
  Status sig = crypto::Pkcs1Verify(image.author_public, image.BinaryHash(),
                                   image.author_signature);
  if (!sig.ok()) {
    return Status::SecurityError("enclave image signature invalid: " +
                                 sig.message());
  }
  return std::make_unique<Enclave>(image, config, this);
}

Bytes VbsPlatform::SignReport(Slice report_bytes) const {
  return crypto::Pkcs1Sign(host_key_, report_bytes);
}

}  // namespace aedb::enclave
