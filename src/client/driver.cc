#include "client/driver.h"

#include <thread>

#include "common/query_context.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "sql/parser.h"

namespace aedb::client {

using server::DescribeResult;
using types::EncryptionType;
using types::TypeId;
using types::Value;

namespace {

Result<Value> CoerceTo(TypeId target, const Value& v) {
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
  return Status::TypeCheckError("parameter type mismatch");
}

std::string LowerStr(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Extracts the " [shard=N]" annotation the router stamps onto shard-origin
/// errors; -1 when absent. Lets the recovery path re-attest exactly the
/// shard whose enclave restarted instead of dropping every session.
int ShardFromMessage(const std::string& msg) {
  size_t pos = msg.find("[shard=");
  if (pos == std::string::npos) return -1;
  pos += 7;
  int shard = 0;
  bool any = false;
  while (pos < msg.size() && msg[pos] >= '0' && msg[pos] <= '9') {
    shard = shard * 10 + (msg[pos] - '0');
    ++pos;
    any = true;
  }
  if (!any || pos >= msg.size() || msg[pos] != ']') return -1;
  return shard;
}

}  // namespace

Driver::Driver(server::SqlBackend* db, keys::KeyProviderRegistry* providers,
               crypto::RsaPublicKey hgs_public, DriverOptions options)
    : Driver(std::make_unique<InProcessTransport>(db), providers,
             std::move(hgs_public), std::move(options)) {}

Driver::Driver(std::unique_ptr<Transport> transport,
               keys::KeyProviderRegistry* providers,
               crypto::RsaPublicKey hgs_public, DriverOptions options)
    : transport_(std::move(transport)),
      providers_(providers),
      hgs_public_(std::move(hgs_public)),
      options_(std::move(options)),
      backoff_prng_(options_.retry.jitter_seed) {}

uint64_t Driver::Begin() {
  // Transactions start at id 1; 0 doubles as the autocommit sentinel, so a
  // failed network Begin surfaces as autocommit followed by a commit error.
  return transport_->BeginTransaction().value_or(0);
}
Status Driver::Commit(uint64_t txn) { return transport_->CommitTransaction(txn); }
Status Driver::Rollback(uint64_t txn) {
  return transport_->RollbackTransaction(txn);
}

Status Driver::ExecuteDdl(const std::string& sql) {
  // CREATE INDEX over an enclave-encrypted column builds the B+-tree with
  // enclave comparisons — install the CEK first.
  auto stmt = sql::Parse(sql);
  if (stmt.ok() && stmt->kind == sql::Statement::Kind::kCreateIndex) {
    auto enc = transport_->ColumnEncryption(stmt->create_index->table,
                                            stmt->create_index->column);
    if (enc.ok() && enc->is_encrypted() &&
        enc->kind == types::EncKind::kRandomized) {
      if (!enc->enclave_enabled) {
        return Status::NotSupported(
            "cannot index a randomized column without an enclave-enabled key");
      }
      AEDB_RETURN_IF_ERROR(EnsureSessionExists());
      AEDB_RETURN_IF_ERROR(EnsureEnclaveKeys({enc->cek_id}));
    }
  }
  return transport_->ExecuteDdl(sql, 0);
}

void Driver::InvalidateSession() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ShardSession& s : sessions_) {
    s.has_session = false;
    s.channel.reset();
    s.installed_ceks.clear();
    s.next_nonce = 0;
  }
}

void Driver::InvalidateShardSession(uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= sessions_.size()) return;
  ShardSession& s = sessions_[shard];
  s.has_session = false;
  s.channel.reset();
  s.installed_ceks.clear();
  s.next_nonce = 0;
}

Result<const DescribeResult*> Driver::Describe(const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = describe_cache_.find(sql);
    if (it != describe_cache_.end() && options_.cache_describe_results) {
      const DescribeResult* cached = &it->second;
      bool all_live = !sessions_.empty();
      for (const ShardSession& s : sessions_) all_live &= s.has_session;
      if (!cached->requires_enclave || all_live) return cached;
    }
  }
  ++describe_calls_;
  DescribeResult result;
  AEDB_ASSIGN_OR_RETURN(result,
                        transport_->DescribeParameterEncryption(sql, Slice()));
  if (result.requires_enclave) {
    // Attest lazily, once per session, only when a statement actually needs
    // the enclave ("the attestation protocol is invoked ... only when
    // needed", §4.2).
    AEDB_RETURN_IF_ERROR(EnsureSessionExists());
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = describe_cache_.insert_or_assign(sql, std::move(result));
  (void)inserted;
  return &it->second;
}

Status Driver::VerifyAndCacheKeys(const DescribeResult& describe) {
  for (const server::KeyDescription& key : describe.keys) {
    std::lock_guard<std::mutex> lock(mu_);
    key_meta_.insert_or_assign(key.cek_id, key);
  }
  return Status::OK();
}

Result<const Driver::Cek*> Driver::UnwrapCek(uint32_t cek_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cek_cache_.find(cek_id);
    if (it != cek_cache_.end()) return &it->second;
  }
  server::KeyDescription meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = key_meta_.find(cek_id);
    if (it != key_meta_.end()) meta = it->second;
  }
  if (meta.cek.values.empty()) {
    AEDB_ASSIGN_OR_RETURN(meta, transport_->GetKeyDescription(cek_id));
  }
  // Trusted key paths: refuse CMKs provisioned outside the allowed list
  // (defeats a server substituting attacker-controlled key metadata, §4.1).
  if (!options_.trusted_key_paths.empty()) {
    bool trusted = false;
    for (const std::string& path : options_.trusted_key_paths) {
      if (path == meta.cmk.key_path) trusted = true;
    }
    if (!trusted) {
      return Status::SecurityError("CMK key path not in the trusted list: " +
                                   meta.cmk.key_path);
    }
  }
  keys::KeyProvider* provider;
  AEDB_ASSIGN_OR_RETURN(provider, providers_->Find(meta.cmk.provider_name));
  // Verify the CMK metadata signature (tampered ENCLAVE_COMPUTATIONS fails).
  AEDB_RETURN_IF_ERROR(keys::KeyTools::VerifyCmk(provider, meta.cmk));
  // Try each wrapped value (two exist during CMK rotation, §2.4.2).
  Status last = Status::NotFound("CEK has no values");
  for (const keys::CekValue& value : meta.cek.values) {
    Status sig = keys::KeyTools::VerifyCekValue(provider, meta.cmk,
                                                meta.cek.name, value);
    if (!sig.ok()) {
      last = sig;
      continue;
    }
    auto material = provider->UnwrapKey(meta.cmk.key_path, value.encrypted_value);
    if (material.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      // A racing unwrap of the same CEK may have landed first; keep its
      // entry, which other threads may already be using.
      auto it =
          cek_cache_.try_emplace(cek_id, std::move(material).value()).first;
      key_meta_.insert_or_assign(cek_id, meta);
      return &it->second;
    }
    last = material.status();
  }
  return last;
}

Result<Bytes> Driver::SealForEnclave(uint32_t shard, Slice body,
                                     uint64_t* nonce_out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= sessions_.size() || !sessions_[shard].has_session) {
    return Status::FailedPrecondition("no enclave session for shard " +
                                      std::to_string(shard));
  }
  ShardSession& s = sessions_[shard];
  uint64_t nonce = s.next_nonce++;
  Bytes plain;
  PutU64(&plain, nonce);
  plain.insert(plain.end(), body.data(), body.data() + body.size());
  *nonce_out = nonce;
  return s.channel->Encrypt(plain, crypto::EncryptionScheme::kRandomized);
}

Status Driver::EnsureEnclaveKeys(const std::vector<uint32_t>& cek_ids) {
  size_t shard_count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shard_count = sessions_.size();
  }
  // Every shard executes statements against its own enclave, so each shard's
  // enclave needs its own copy of the CEKs — sealed under that shard's
  // session channel.
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    std::vector<uint32_t> missing;
    uint64_t session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const ShardSession& s = sessions_[shard];
      session = s.session_id;
      for (uint32_t id : cek_ids) {
        if (s.installed_ceks.count(id) == 0) missing.push_back(id);
      }
    }
    if (missing.empty()) continue;
    // Check enclave authorization: only CEKs under enclave-enabled CMKs may
    // be sent to an enclave (the driver enforces this with the CMK
    // signature).
    Bytes body;
    PutU32(&body, static_cast<uint32_t>(missing.size()));
    for (uint32_t id : missing) {
      const Cek* cek;
      AEDB_ASSIGN_OR_RETURN(cek, UnwrapCek(id));
      server::KeyDescription meta;
      {
        std::lock_guard<std::mutex> lock(mu_);
        meta = key_meta_.at(id);
      }
      if (!meta.cmk.enclave_enabled) {
        return Status::SecurityError("CEK '" + meta.cek.name +
                                     "' is not authorized for enclave use");
      }
      PutU32(&body, id);
      PutLengthPrefixed(&body, cek->material);
    }
    uint64_t nonce;
    Bytes sealed;
    AEDB_ASSIGN_OR_RETURN(sealed, SealForEnclave(shard, body, &nonce));
    AEDB_RETURN_IF_ERROR(
        transport_->ForwardKeysToShard(shard, session, nonce, sealed));
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t id : missing) sessions_[shard].installed_ceks.insert(id);
  }
  return Status::OK();
}

Result<Value> Driver::EncryptParam(const Value& plain,
                                   const DescribeResult::ParamInfo& info) {
  Value typed;
  AEDB_ASSIGN_OR_RETURN(typed, CoerceTo(info.type, plain));
  if (!info.enc.is_encrypted()) return typed;
  const Cek* cek;
  AEDB_ASSIGN_OR_RETURN(cek, UnwrapCek(info.enc.cek_id));
  return Value::Binary(cek->codec.Encrypt(typed.Encode(), info.enc.scheme()));
}

Status Driver::DecryptResults(sql::ResultSet* results) {
  for (size_t c = 0; c < results->column_enc.size(); ++c) {
    const EncryptionType& enc = results->column_enc[c];
    if (!enc.is_encrypted()) continue;
    const Cek* cek;
    AEDB_ASSIGN_OR_RETURN(cek, UnwrapCek(enc.cek_id));
    for (auto& row : results->rows) {
      Value& cell = row[c];
      if (cell.is_null()) continue;
      if (cell.type() != TypeId::kBinary) {
        return Status::Corruption("expected ciphertext in encrypted column");
      }
      Bytes plain;
      AEDB_ASSIGN_OR_RETURN(plain, cek->codec.Decrypt(cell.bin()));
      size_t off = 0;
      AEDB_ASSIGN_OR_RETURN(cell, Value::Decode(plain, &off));
    }
    results->column_enc[c] = EncryptionType::Plaintext();
  }
  return Status::OK();
}

Result<sql::ResultSet> Driver::QueryAttempt(const std::string& sql,
                                            const NamedParams& params,
                                            uint64_t txn) {
  const DescribeResult* describe;
  AEDB_ASSIGN_OR_RETURN(describe, Describe(sql));

  // Forced-encryption assertions (defeats a lying describe, §4.1).
  for (const std::string& forced : options_.force_encrypted_params) {
    for (const auto& info : describe->params) {
      if (LowerStr(info.name) == LowerStr(forced) &&
          !info.enc.is_encrypted()) {
        return Status::SecurityError(
            "server claims @" + forced +
            " is plaintext but the application forced encryption");
      }
    }
  }
  AEDB_RETURN_IF_ERROR(VerifyAndCacheKeys(*describe));

  if (describe->requires_enclave) {
    AEDB_RETURN_IF_ERROR(EnsureEnclaveKeys(describe->enclave_cek_ids));
  }
  NamedParams wire;
  wire.reserve(params.size());
  for (const auto& [name, value] : params) {
    const DescribeResult::ParamInfo* info = nullptr;
    for (const auto& p : describe->params) {
      if (LowerStr(p.name) == LowerStr(name)) info = &p;
    }
    if (info == nullptr) {
      return Status::InvalidArgument("statement has no parameter @" + name);
    }
    types::Value encrypted;
    AEDB_ASSIGN_OR_RETURN(encrypted, EncryptParam(value, *info));
    wire.emplace_back(name, std::move(encrypted));
  }
  uint64_t session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session = session_id_;
  }
  return transport_->ExecuteNamed(sql, wire, txn, session);
}

Result<sql::ResultSet> Driver::Query(const std::string& sql,
                                     const NamedParams& params, uint64_t txn) {
  if (!options_.column_encryption_enabled) {
    // Non-AE connection string: no describe round trip, plaintext in/out.
    return transport_->ExecuteNamed(sql, params, txn, 0);
  }
  const RetryPolicy& policy = options_.retry;
  // End-to-end deadline: fixed at entry, shared by every attempt and every
  // backoff sleep. The remaining budget rides each wire frame so the server
  // stops working on this query the moment the client stops caring.
  using Clock = std::chrono::steady_clock;
  const bool has_deadline = options_.deadline_ms > 0;
  const Clock::time_point deadline =
      has_deadline
          ? Clock::now() + std::chrono::milliseconds(options_.deadline_ms)
          : Clock::time_point::max();
  auto remaining_ms = [&]() -> int64_t {
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                 Clock::now())
        .count();
  };
  std::chrono::milliseconds slept{0};
  for (int attempt = 0;; ++attempt) {
    uint32_t budget = 0;
    if (has_deadline) {
      int64_t left = remaining_ms();
      if (left <= 0) {
        return Status::DeadlineExceeded(
            "query deadline expired before attempt " +
            std::to_string(attempt));
      }
      budget = static_cast<uint32_t>(left);
    }
    transport_->set_deadline(budget);
    transport_->set_attempt(static_cast<uint32_t>(attempt));
    Result<sql::ResultSet> result = QueryAttempt(sql, params, txn);
    if (result.ok()) {
      sql::ResultSet rs = std::move(result).value();
      AEDB_RETURN_IF_ERROR(DecryptResults(&rs));
      return rs;
    }

    const Status failure = result.status();
    const ErrorClass cls = ClassifyError(failure);
    if (cls == ErrorClass::kFatal || !policy.enabled) return failure;
    // A deadline-expired statement is NEVER replayed: the budget is spent,
    // and a write may have partially executed before a morsel-boundary check
    // fired (autocommit rolls the statement back; inside an explicit
    // transaction the application must roll back / restart the txn, as it
    // must for any mid-transaction error).
    if (cls == ErrorClass::kDeadline) return failure;
    if (attempt + 1 >= policy.max_attempts) return failure;

    // Inside an explicit transaction the server-side txn state is lost
    // (enclave restart) or of unknown fate (connection drop). Replaying one
    // statement cannot reconstruct it — surface a typed abort and let the
    // application restart the whole transaction (TPC-C does). Still drop the
    // dead session here, so the restarted transaction re-attests instead of
    // failing on the same stale session forever. Exception: a kOverloaded
    // that reaches the client happened BEFORE the statement touched any
    // state (admission gate, connection cap, or a read shed by the enclave
    // pool — the server converts a write shed mid-execution inside an
    // explicit transaction into kTransactionAborted), so the txn is intact
    // and the statement may be replayed even mid-transaction.
    // A " [shard=N]" annotation from the router means exactly one shard's
    // enclave died: drop only that shard's session so recovery re-attests
    // one enclave, not all of them.
    auto drop_dead_session = [&]() {
      int shard = ShardFromMessage(failure.message());
      if (shard >= 0) {
        InvalidateShardSession(static_cast<uint32_t>(shard));
      } else {
        InvalidateSession();
      }
    };
    if (txn != 0 && cls != ErrorClass::kBackoffRetry) {
      if (cls == ErrorClass::kReattest) drop_dead_session();
      return Status::TransactionAborted(
          "transaction state lost (" + std::string(ErrorClassName(cls)) +
          "): " + failure.message());
    }

    if (cls == ErrorClass::kReattest) {
      // The statement never ran under the dead session: safe to replay after
      // re-attesting. Dropping the cached session makes the next attempt
      // re-attest, re-derive the DH channel, and re-install CEKs.
      drop_dead_session();
    } else if (cls == ErrorClass::kReconnect) {
      // The request's fate is unknown — the statement may have committed
      // before the connection died. Only reads are safe to replay.
      auto stmt = sql::Parse(sql);
      const bool read_only =
          stmt.ok() && stmt->kind == sql::Statement::Kind::kSelect;
      if (!read_only) return failure;
      if (!transport_->healthy()) {
        if (!options_.transport_factory) return failure;
        auto fresh = options_.transport_factory();
        if (!fresh.ok()) return failure;
        transport_ = std::move(fresh).value();
        ++reconnects_;
      }
    }
    // kBackoffRetry needs no repair: the server shed the request before
    // executing it, so the session, transaction and connection are all fine —
    // the only cure for overload is waiting.

    std::chrono::milliseconds delay =
        ComputeBackoff(attempt, policy, &backoff_prng_);
    if (cls == ErrorClass::kBackoffRetry) {
      // Honor the server's retry-after hint when it asks for more patience
      // than our own jittered schedule would grant.
      std::chrono::milliseconds hint{
          RetryAfterMsFromMessage(failure.message())};
      if (hint > delay) delay = hint;
    }
    if (slept + delay > policy.max_cumulative) return failure;
    if (has_deadline && delay.count() >= remaining_ms()) {
      // Sleeping would outlive the budget; the caller stopped caring.
      return Status::DeadlineExceeded(
          "query deadline expired while backing off from: " +
          failure.message());
    }
    slept += delay;
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    ++retries_;
  }
}

Status Driver::ProvisionCmk(const std::string& name,
                            const std::string& provider_name,
                            const std::string& key_path, bool enclave_enabled) {
  keys::KeyProvider* provider;
  AEDB_ASSIGN_OR_RETURN(provider, providers_->Find(provider_name));
  keys::CmkInfo cmk;
  AEDB_ASSIGN_OR_RETURN(
      cmk, keys::KeyTools::CreateCmk(provider, name, key_path, enclave_enabled));
  std::string ddl = "CREATE COLUMN MASTER KEY " + name +
                    " WITH (KEY_STORE_PROVIDER_NAME = '" + provider_name +
                    "', KEY_PATH = '" + key_path + "', SIGNATURE = 0x" +
                    HexEncode(cmk.signature) +
                    (enclave_enabled ? ", ENCLAVE_COMPUTATIONS" : "") + ")";
  return transport_->ExecuteDdl(ddl, 0);
}

Status Driver::ProvisionCek(const std::string& name,
                            const std::string& cmk_name) {
  // Fetch the CMK metadata from the server catalog to wrap under it.
  keys::CmkInfo cmk;
  AEDB_ASSIGN_OR_RETURN(cmk, transport_->GetCmk(cmk_name));
  keys::KeyProvider* provider;
  AEDB_ASSIGN_OR_RETURN(provider, providers_->Find(cmk.provider_name));
  AEDB_RETURN_IF_ERROR(keys::KeyTools::VerifyCmk(provider, cmk));
  keys::CekInfo cek;
  AEDB_ASSIGN_OR_RETURN(cek, keys::KeyTools::CreateCek(provider, cmk, name));
  std::string ddl = "CREATE COLUMN ENCRYPTION KEY " + name +
                    " WITH VALUES (COLUMN_MASTER_KEY = " + cmk_name +
                    ", ALGORITHM = 'RSA_OAEP', ENCRYPTED_VALUE = 0x" +
                    HexEncode(cek.values[0].encrypted_value) +
                    ", SIGNATURE = 0x" + HexEncode(cek.values[0].signature) + ")";
  return transport_->ExecuteDdl(ddl, 0);
}

Status Driver::EnsureSessionExists() {
  // One enclave session per shard: the shard is the unit of attestation. A
  // shard whose enclave restarted loses only its own entry here.
  uint32_t shard_count = transport_->shard_count();
  if (shard_count == 0) shard_count = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() < shard_count) sessions_.resize(shard_count);
  }
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (sessions_[shard].has_session) continue;
    }
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("driver-ddl-dh")));
    crypto::DhKeyPair dh = crypto::GenerateDhKeyPair(&drbg);
    Bytes dh_public = crypto::DhPublicKeyBytes(dh);
    DescribeResult attest;
    AEDB_ASSIGN_OR_RETURN(attest, transport_->AttestShard(shard, dh_public));
    attestation::AttestationVerifier verifier(hgs_public_,
                                              options_.enclave_policy);
    Bytes secret;
    AEDB_ASSIGN_OR_RETURN(
        secret, verifier.VerifyAndDeriveSecret(attest.health_certificate,
                                               attest.attestation,
                                               dh.private_key, dh_public));
    std::lock_guard<std::mutex> lock(mu_);
    ShardSession& s = sessions_[shard];
    s.has_session = true;
    s.session_id = attest.attestation.session_id;
    s.channel = std::make_unique<crypto::CellCodec>(secret);
    s.next_nonce = 0;
    s.installed_ceks.clear();
    if (shard == 0) session_id_ = s.session_id;
    ++attestations_;
  }
  return Status::OK();
}

Status Driver::AuthorizeStatementOnShard(uint32_t shard,
                                         const std::string& sql) {
  Bytes hash = crypto::Sha256::Hash(Slice(std::string_view(sql)));
  uint64_t nonce;
  Bytes sealed;
  AEDB_ASSIGN_OR_RETURN(sealed, SealForEnclave(shard, hash, &nonce));
  uint64_t session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session = sessions_[shard].session_id;
  }
  return transport_->ForwardAuthorizationToShard(shard, session, nonce,
                                                 sealed);
}

Status Driver::AuthorizeStatement(const std::string& sql) {
  AEDB_RETURN_IF_ERROR(EnsureSessionExists());
  size_t shard_count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shard_count = sessions_.size();
  }
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    AEDB_RETURN_IF_ERROR(AuthorizeStatementOnShard(shard, sql));
  }
  return Status::OK();
}

Status Driver::ExecuteEnclaveDdl(const std::string& sql) {
  sql::Statement stmt;
  AEDB_ASSIGN_OR_RETURN(stmt, sql::Parse(sql));
  if (stmt.kind != sql::Statement::Kind::kAlterColumn) {
    return Status::InvalidArgument(
        "ExecuteEnclaveDdl is for ALTER TABLE ALTER COLUMN");
  }
  const sql::AlterColumnStmt& alter = *stmt.alter_column;

  AEDB_RETURN_IF_ERROR(AuthorizeStatement(sql));

  // Install every CEK the conversion touches.
  std::vector<uint32_t> cek_ids;
  types::EncryptionType current;
  AEDB_ASSIGN_OR_RETURN(current,
                        transport_->ColumnEncryption(alter.table, alter.column));
  if (current.is_encrypted()) cek_ids.push_back(current.cek_id);
  if (alter.enc.encrypted) {
    uint32_t id;
    AEDB_ASSIGN_OR_RETURN(id, transport_->CekIdByName(alter.enc.cek_name));
    cek_ids.push_back(id);
  }
  AEDB_RETURN_IF_ERROR(EnsureEnclaveKeys(cek_ids));

  // The conversion runs inside each shard's enclave against that shard's
  // rows, under that shard's session authorization.
  size_t shard_count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shard_count = sessions_.size();
  }
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    uint64_t session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      session = sessions_[shard].session_id;
    }
    AEDB_RETURN_IF_ERROR(transport_->ExecuteDdlOnShard(shard, sql, session));
  }
  return Status::OK();
}

Status Driver::ClientSideEncryptColumn(const std::string& table,
                                       const std::string& column,
                                       const std::string& cek_name,
                                       types::EncKind kind,
                                       const std::string& key_column) {
  // 1. Pull the whole column to the client (the round trip, §1.1: "can
  //    result in latencies as long as a week" at terabyte scale).
  sql::ResultSet rows;
  AEDB_ASSIGN_OR_RETURN(
      rows, Query("SELECT " + key_column + ", " + column + " FROM " + table));

  // 2. Flip the column metadata server-side (data still plaintext).
  sql::EncryptionSpec spec;
  spec.encrypted = true;
  spec.cek_name = cek_name;
  spec.kind = kind;
  AEDB_RETURN_IF_ERROR(
      transport_->AlterColumnMetadataForClientTool(table, column, spec));

  // 3. Re-write every row with locally encrypted cells in one transaction.
  uint64_t txn = Begin();
  std::string update = "UPDATE " + table + " SET " + column + " = @v WHERE " +
                       key_column + " = @k";
  for (const auto& row : rows.rows) {
    auto result = Query(update, {{"k", row[0]}, {"v", row[1]}}, txn);
    if (!result.ok()) {
      (void)Rollback(txn);
      return result.status();
    }
  }
  return Commit(txn);
}

}  // namespace aedb::client
