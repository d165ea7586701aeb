#ifndef AEDB_CLIENT_DRIVER_H_
#define AEDB_CLIENT_DRIVER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "attestation/attestation.h"
#include "client/retry.h"
#include "client/transport.h"
#include "crypto/cell_codec.h"
#include "keys/key_provider.h"
#include "server/database.h"

namespace aedb::client {

/// Connection-string options (paper §4.1).
struct DriverOptions {
  /// The AE connection-string property: off = the driver never calls
  /// sp_describe_parameter_encryption (the SQL-PT baseline).
  bool column_encryption_enabled = true;
  /// CMK key paths the application trusts; empty = trust all. Defeats a
  /// malicious server returning attacker-provisioned key metadata.
  std::vector<std::string> trusted_key_paths;
  /// Parameters the application asserts must be encrypted; if the server
  /// claims one is plaintext, fail closed (defeats a lying
  /// sp_describe_parameter_encryption).
  std::set<std::string> force_encrypted_params;
  /// Client policy for judging enclave attestation.
  attestation::EnclavePolicy enclave_policy;
  /// Cache describe results per statement (the paper suggests this to remove
  /// the extra round trip; off reproduces the SQL-PT-AEConn overhead).
  bool cache_describe_results = true;
  /// Retry/backoff behaviour for transient failures (enclave restart, dropped
  /// connection). See retry.h for the classification this drives.
  RetryPolicy retry;
  /// End-to-end budget for one Query() call, milliseconds (0 = none). The
  /// budget covers every attempt plus backoff sleeps: each attempt is stamped
  /// with the remaining budget (the server bounds execution, lock waits and
  /// enclave work by it), an attempt is never started with an exhausted
  /// budget, and a backoff that would outlive the budget returns a typed
  /// kDeadlineExceeded instead of sleeping.
  uint32_t deadline_ms = 0;
  /// Produces a fresh Transport when the current one reports !healthy()
  /// (dropped socket). Unset = the driver cannot reconnect and surfaces the
  /// transport error after classification.
  std::function<Result<std::unique_ptr<Transport>>()> transport_factory;
};

/// \brief The AE-aware client driver (ADO.NET/ODBC/JDBC analog, §4.1).
///
/// Applications issue parameterized queries with plaintext parameters and
/// receive plaintext results; the driver transparently:
///   - calls sp_describe_parameter_encryption to learn parameter types,
///   - verifies CMK metadata signatures and trusted key paths,
///   - unwraps CEKs through the client-side key provider (cached),
///   - attests the enclave and derives the session secret (cached),
///   - installs CEKs into the enclave over the secure channel (nonce'd),
///   - encrypts parameters and decrypts result cells.
class Driver {
 public:
  /// In-process wiring (the seed's original form): the driver talks straight
  /// to a `server::Database` (or the sharded router) through an owned
  /// InProcessTransport.
  Driver(server::SqlBackend* db, keys::KeyProviderRegistry* providers,
         crypto::RsaPublicKey hgs_public, DriverOptions options);

  /// Transport wiring: the driver issues every server round trip through
  /// `transport` — e.g. a net::SocketTransport connected to `aedb_serverd`.
  /// All AE logic (describe, key verification, attestation, cell
  /// encryption/decryption) is identical on both paths.
  Driver(std::unique_ptr<Transport> transport,
         keys::KeyProviderRegistry* providers, crypto::RsaPublicKey hgs_public,
         DriverOptions options);

  /// Named parameters carry plaintext values.
  using NamedParams = client::NamedParams;

  Result<sql::ResultSet> Query(const std::string& sql,
                               const NamedParams& params = {},
                               uint64_t txn = 0);

  uint64_t Begin();
  Status Commit(uint64_t txn);
  Status Rollback(uint64_t txn);

  /// Plain DDL passthrough (CREATE TABLE / INDEX / key metadata).
  Status ExecuteDdl(const std::string& sql);

  /// DDL that performs enclave type conversions (initial encryption, key
  /// rotation, decryption): the driver signs the statement text into the
  /// session so the enclave will run the conversion (§3.2), then executes.
  Status ExecuteEnclaveDdl(const std::string& sql);

  // ----- provisioning tools (paper §2.4.1: "we automate the above steps") --
  Status ProvisionCmk(const std::string& name, const std::string& provider_name,
                      const std::string& key_path, bool enclave_enabled);
  Status ProvisionCek(const std::string& name, const std::string& cmk_name);

  /// The client-side round-trip tool for enclave-disabled columns
  /// (paper §2.4.2): reads every row, encrypts locally, writes back keyed by
  /// `key_column` (which must be unique and not indexed-over by the target).
  Status ClientSideEncryptColumn(const std::string& table,
                                 const std::string& column,
                                 const std::string& cek_name,
                                 types::EncKind kind,
                                 const std::string& key_column);

  /// Drops every cached shard session (e.g. after a server restart) so the
  /// next query re-attests all shards.
  void InvalidateSession();
  /// Drops one shard's cached session only: a restarted shard enclave
  /// invalidates exactly that shard's attestation, not its peers'.
  void InvalidateShardSession(uint32_t shard);

  // ----- stats (benchmarks) -----
  int64_t describe_calls() const { return describe_calls_; }
  int64_t attestations() const { return attestations_; }
  /// Statement retries performed by the recovery loop (re-attest or
  /// reconnect), across the driver's lifetime.
  int64_t retries() const { return retries_; }
  /// Transport reconnects performed via the transport factory.
  int64_t reconnects() const { return reconnects_; }
  uint64_t session_id() const { return session_id_; }

 private:
  struct DescribeCacheEntry {
    server::DescribeResult result;
  };

  /// An unwrapped CEK and the cell codec derived from it. Deriving the codec
  /// costs three HMACs and an AES key schedule, so it is built once per CEK,
  /// not once per encrypted parameter or result column.
  struct Cek {
    explicit Cek(Bytes key) : material(std::move(key)), codec(material) {}
    Bytes material;
    crypto::CellCodec codec;
  };

  /// One shard's enclave session. Each shard runs its own enclave, so
  /// attestation, the DH channel, the nonce sequence, and the set of CEKs
  /// installed are all per shard: restarting one shard's enclave invalidates
  /// exactly one of these.
  struct ShardSession {
    bool has_session = false;
    uint64_t session_id = 0;
    std::unique_ptr<crypto::CellCodec> channel;
    uint64_t next_nonce = 0;
    std::set<uint32_t> installed_ceks;
  };

  /// One describe+encrypt+execute pass, no recovery. Query() wraps this in
  /// the classification-driven retry loop.
  Result<sql::ResultSet> QueryAttempt(const std::string& sql,
                                      const NamedParams& params, uint64_t txn);
  Result<const server::DescribeResult*> Describe(const std::string& sql);
  Status VerifyAndCacheKeys(const server::DescribeResult& describe);
  /// The cached CEK, unwrapped through the key provider on first use. The
  /// pointer stays valid for the driver's lifetime.
  Result<const Cek*> UnwrapCek(uint32_t cek_id);
  Status EnsureSessionExists();
  Status EnsureEnclaveKeys(const std::vector<uint32_t>& cek_ids);
  Result<Bytes> SealForEnclave(uint32_t shard, Slice body,
                               uint64_t* nonce_out);
  Status AuthorizeStatementOnShard(uint32_t shard, const std::string& sql);
  Result<types::Value> EncryptParam(const types::Value& plain,
                                    const server::DescribeResult::ParamInfo& info);
  Status DecryptResults(sql::ResultSet* results);
  Status AuthorizeStatement(const std::string& sql);

  std::unique_ptr<Transport> transport_;
  keys::KeyProviderRegistry* providers_;
  crypto::RsaPublicKey hgs_public_;
  DriverOptions options_;

  std::mutex mu_;
  std::map<std::string, server::DescribeResult> describe_cache_;
  // Decrypted CEKs (§4.1). Entries are never replaced or erased, so a Cek*
  // stays valid without holding mu_.
  std::map<uint32_t, Cek> cek_cache_;
  std::map<uint32_t, server::KeyDescription> key_meta_;
  // Session state (shared secret cached "across the entire client process"),
  // one entry per server shard. sessions_[0].session_id mirrors into
  // session_id_ for the stats accessor.
  std::vector<ShardSession> sessions_;
  uint64_t session_id_ = 0;

  int64_t describe_calls_ = 0;
  int64_t attestations_ = 0;
  int64_t retries_ = 0;
  int64_t reconnects_ = 0;
  Xoshiro256 backoff_prng_;  // seeded from options_.retry.jitter_seed
};

}  // namespace aedb::client

#endif  // AEDB_CLIENT_DRIVER_H_
