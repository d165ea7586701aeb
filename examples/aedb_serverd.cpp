// aedb_serverd: the networked Always Encrypted server daemon.
//
// Stands up the full untrusted-host stack — attestation service, signed
// enclave image, SQL server — and serves the aedb wire protocol on a TCP
// port. AE-aware clients connect with net::SocketTransport and get the exact
// driver behaviour of the in-process path: parameters encrypted client-side,
// results decrypted client-side, key material only ever crossing the wire
// wrapped or sealed to the enclave.
//
//   aedb_serverd [--port N] [--shards N] [--enclave-threads N]
//                [--batch-size N] [--max-connections N] [--max-inflight N]
//                [--queue-depth N] [--retry-after-ms N] [--data-dir PATH]
//                [--checkpoint-bytes N] [--key-seed N] [--die-at point[:skip]]
//                [--drain-deadline-ms N] [--demo]
//
// --port 0 picks an ephemeral port (printed on stdout).
// --shards N > 1 runs N shared-nothing engine shards partitioned by TPC-C
// warehouse id behind the 2PC router; with --data-dir, shard i persists under
// <dir>/shard-<i> and the coordinator decision log in <dir>/2pc.log. Each
// shard has its own enclave, attested separately by connecting drivers.
// --max-connections caps concurrent TCP sessions; excess connections get a
// typed kOverloaded rejection frame instead of a silent worker thread.
// --max-inflight / --queue-depth / --retry-after-ms tune the admission gate,
// the bounded enclave work queue, and the retry-after hint stamped on every
// shed query (0 = unbounded / default hint).
// --data-dir makes the server durable: WAL, DDL journal and checkpoints live
// there and startup recovers from them (kill -9 safe).
// --checkpoint-bytes sets the WAL size that triggers a background checkpoint
// (0 = never checkpoint automatically).
// --key-seed derives the enclave author key and the HGS signing key
// deterministically, so a restarted server presents the same attestation
// identities — the crash-torture harness relies on this.
// --die-at arms a process-fatal fault: the process _Exit(137)s (kill -9
// equivalent) the (skip+1)-th time the named fault point is reached, e.g.
// --die-at wal/append:25 or --die-at fsio/pre_rename.
// --drain-deadline-ms bounds the SIGTERM graceful drain; a wedged connection
// cannot stall shutdown past it (exit code 3 on timeout).
// --demo additionally runs a loopback client through a provision → CREATE
// TABLE → INSERT → SELECT flow against the running server, then exits; this
// doubles as a smoke test (`aedb_serverd --demo --port 0`).

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "fault/fault.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "server/router.h"

using namespace aedb;
using types::Value;

#define CHECK_OK(expr)                                              \
  do {                                                              \
    ::aedb::Status _st = (expr);                                    \
    if (!_st.ok()) {                                                \
      std::fprintf(stderr, "FAILED: %s\n", _st.ToString().c_str()); \
      return 1;                                                     \
    }                                                               \
  } while (0)

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

int RunDemo(net::Server& server, const server::SqlBackend& db,
            const attestation::HostGuardianService& hgs,
            const enclave::EnclaveImage& image) {
  keys::InMemoryKeyVault vault;
  CHECK_OK(vault.CreateKey("kv/demo", 1024));
  keys::KeyProviderRegistry providers;
  CHECK_OK(providers.Register(&vault));

  net::SocketTransport::Options topts;
  topts.port = server.port();
  auto transport = net::SocketTransport::Connect(topts);
  CHECK_OK(transport.status());
  std::printf("demo: connected, connection_id=%llu\n",
              static_cast<unsigned long long>((*transport)->connection_id()));

  client::DriverOptions dopts;
  dopts.enclave_policy.trusted_author_id = image.AuthorId();
  client::Driver driver(std::move(transport).value(), &providers,
                        hgs.signing_public(), dopts);

  CHECK_OK(driver.ProvisionCmk("DemoCMK", vault.name(), "kv/demo",
                               /*enclave_enabled=*/true));
  CHECK_OK(driver.ProvisionCek("DemoCEK", "DemoCMK"));
  CHECK_OK(driver.ExecuteDdl(
      "CREATE TABLE patients (id INT, ssn VARCHAR ENCRYPTED WITH ("
      "COLUMN_ENCRYPTION_KEY = DemoCEK, ENCRYPTION_TYPE = Randomized, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"));
  auto ins = driver.Query("INSERT INTO patients VALUES (@id, @ssn)",
                          {{"id", Value::Int32(1)},
                           {"ssn", Value::String("123-45-6789")}});
  CHECK_OK(ins.status());
  auto rows = driver.Query("SELECT ssn FROM patients WHERE id = @id",
                           {{"id", Value::Int32(1)}});
  CHECK_OK(rows.status());
  if (rows->rows.size() != 1 || rows->rows[0][0].str() != "123-45-6789") {
    std::fprintf(stderr, "FAILED: demo round trip returned wrong data\n");
    return 1;
  }
  std::printf("demo: encrypted round trip over TCP ok (ssn decrypted "
              "client-side: %s)\n", rows->rows[0][0].str().c_str());
  const net::ServerStats& s = server.stats();
  std::printf("demo: server stats: %llu conns, %llu frames in, %llu frames "
              "out, %llu bytes in, %llu bytes out\n",
              static_cast<unsigned long long>(s.connections_accepted.load()),
              static_cast<unsigned long long>(s.frames_in.load()),
              static_cast<unsigned long long>(s.frames_out.load()),
              static_cast<unsigned long long>(s.bytes_in.load()),
              static_cast<unsigned long long>(s.bytes_out.load()));
  const server::DatabaseStats ds = db.Stats();
  std::printf("demo: enclave: %llu evals, %llu comparisons, %llu "
              "transitions\n",
              static_cast<unsigned long long>(ds.enclave_evals),
              static_cast<unsigned long long>(ds.enclave_comparisons),
              static_cast<unsigned long long>(ds.enclave_transitions));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerConfig config;
  config.port = 5433;
  server::ServerOptions server_opts;
  bool demo = false;
  long key_seed = -1;
  long drain_deadline_ms = 5000;
  long shards = 1;
  auto parse_int = [&](const char* flag, const char* text, long min, long max,
                       long* out) {
    char* end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < min || v > max) {
      std::fprintf(stderr, "%s: expected an integer in [%ld, %ld], got '%s'\n",
                   flag, min, max, text);
      return false;
    }
    *out = v;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    long v = 0;
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      if (!parse_int("--port", argv[++i], 0, 65535, &v)) return 2;
      config.port = static_cast<uint16_t>(v);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      // Shared-nothing engine shards, warehouse-partitioned (1 = plain
      // single-engine database, no router in the path).
      if (!parse_int("--shards", argv[++i], 1, 64, &v)) return 2;
      shards = v;
    } else if (std::strcmp(argv[i], "--enclave-threads") == 0 && i + 1 < argc) {
      if (!parse_int("--enclave-threads", argv[++i], 0, 256, &v)) return 2;
      server_opts.enclave_worker_threads = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--batch-size") == 0 && i + 1 < argc) {
      // Rows per execution morsel (1 = row-at-a-time enclave calls).
      if (!parse_int("--batch-size", argv[++i], 1, 1 << 20, &v)) return 2;
      server_opts.eval_batch_size = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--max-connections") == 0 && i + 1 < argc) {
      if (!parse_int("--max-connections", argv[++i], 0, 1 << 20, &v)) return 2;
      config.max_connections = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--max-inflight") == 0 && i + 1 < argc) {
      if (!parse_int("--max-inflight", argv[++i], 0, 1 << 20, &v)) return 2;
      server_opts.max_inflight_queries = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && i + 1 < argc) {
      if (!parse_int("--queue-depth", argv[++i], 0, 1 << 20, &v)) return 2;
      server_opts.enclave_queue_depth = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--retry-after-ms") == 0 && i + 1 < argc) {
      if (!parse_int("--retry-after-ms", argv[++i], 1, 60'000, &v)) return 2;
      server_opts.overload_retry_after_ms = static_cast<uint32_t>(v);
      config.overload_retry_after_ms = static_cast<uint32_t>(v);
    } else if (std::strcmp(argv[i], "--io-threads") == 0 && i + 1 < argc) {
      // Epoll shards; each owns a subset of connections end-to-end.
      if (!parse_int("--io-threads", argv[++i], 1, 64, &v)) return 2;
      config.io_threads = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--exec-threads") == 0 && i + 1 < argc) {
      // Base execution workers; the pool grows elastically to 8x this when
      // requests block (lock waits, fault-injected stalls).
      if (!parse_int("--exec-threads", argv[++i], 1, 256, &v)) return 2;
      config.exec_threads = static_cast<size_t>(v);
      config.max_exec_threads =
          std::max<size_t>(config.exec_threads * 8, config.exec_threads);
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0 && i + 1 < argc) {
      // 0 disables idle reaping (handshaken-but-quiet sockets live forever).
      if (!parse_int("--idle-timeout-ms", argv[++i], 0, 86'400'000, &v))
        return 2;
      config.idle_timeout_ms = static_cast<uint32_t>(v);
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      server_opts.data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-bytes") == 0 && i + 1 < argc) {
      if (!parse_int("--checkpoint-bytes", argv[++i], 0, 1L << 40, &v))
        return 2;
      server_opts.checkpoint_wal_bytes = static_cast<uint64_t>(v);
    } else if (std::strcmp(argv[i], "--pool-pages") == 0 && i + 1 < argc) {
      // Buffer pool capacity in 8 KiB pages (0 = built-in default). Smaller
      // than the working set forces eviction to the pages/ spill directory.
      if (!parse_int("--pool-pages", argv[++i], 0, 1L << 30, &v)) return 2;
      server_opts.engine.pool_pages = static_cast<uint64_t>(v);
    } else if (std::strcmp(argv[i], "--flush-interval-ms") == 0 &&
               i + 1 < argc) {
      // Background dirty-page flusher period (0 = flush on eviction and
      // checkpoint only).
      if (!parse_int("--flush-interval-ms", argv[++i], 0, 3'600'000, &v))
        return 2;
      server_opts.engine.flush_interval_ms = static_cast<uint64_t>(v);
    } else if (std::strcmp(argv[i], "--group-commit-window-us") == 0 &&
               i + 1 < argc) {
      // Group-commit leader linger; 0 keeps pure natural batching.
      if (!parse_int("--group-commit-window-us", argv[++i], 0, 1'000'000, &v))
        return 2;
      server_opts.engine.group_commit_window_us = static_cast<uint64_t>(v);
    } else if (std::strcmp(argv[i], "--key-seed") == 0 && i + 1 < argc) {
      if (!parse_int("--key-seed", argv[++i], 0, 1L << 62, &v)) return 2;
      key_seed = v;
    } else if (std::strcmp(argv[i], "--die-at") == 0 && i + 1 < argc) {
      // point[:skip] — _Exit(137) on the (skip+1)-th hit of the fault point.
      std::string arg = argv[++i];
      long skip = 0;
      size_t colon = arg.rfind(':');
      if (colon != std::string::npos) {
        if (!parse_int("--die-at skip", arg.c_str() + colon + 1, 0,
                       1L << 40, &skip)) {
          return 2;
        }
        arg = arg.substr(0, colon);
      }
      fault::FaultSpec spec;
      spec.trigger = fault::FaultSpec::Trigger::kOneShot;
      spec.skip = static_cast<uint64_t>(skip);
      spec.die = true;
      fault::FaultRegistry::Global().Arm(arg, spec);
    } else if (std::strcmp(argv[i], "--drain-deadline-ms") == 0 &&
               i + 1 < argc) {
      if (!parse_int("--drain-deadline-ms", argv[++i], 1, 600'000, &v))
        return 2;
      drain_deadline_ms = v;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--shards N] [--enclave-threads N] "
                   "[--batch-size N] [--max-connections N] [--max-inflight N] "
                   "[--queue-depth N] [--retry-after-ms N] [--io-threads N] "
                   "[--exec-threads N] [--idle-timeout-ms N] "
                   "[--data-dir PATH] [--checkpoint-bytes N] "
                   "[--pool-pages N] [--flush-interval-ms N] "
                   "[--group-commit-window-us N] [--key-seed N] "
                   "[--die-at point[:skip]] [--drain-deadline-ms N] [--demo]\n",
                   argv[0]);
      return 2;
    }
  }

  // The untrusted-host stack. The enclave author key is generated fresh at
  // boot unless --key-seed pins it (and the HGS identity) so a restarted
  // process attests as the same publisher on the same service; clients learn
  // the author id out of band (here: printed).
  Bytes seed_bytes;
  if (key_seed >= 0) PutU64(&seed_bytes, static_cast<uint64_t>(key_seed));
  crypto::HmacDrbg drbg(
      key_seed >= 0 ? Slice(seed_bytes) : Slice(crypto::SecureRandom(48)),
      Slice(std::string_view("aedb-serverd")));
  auto author_key = crypto::GenerateRsaKey(1024, &drbg);
  auto image = enclave::EnclaveImage::MakeEsImage(/*version=*/1, author_key);
  attestation::HostGuardianService hgs =
      key_seed >= 0 ? attestation::HostGuardianService(Slice(seed_bytes))
                    : attestation::HostGuardianService();
  std::unique_ptr<server::SqlBackend> db;
  if (shards > 1) {
    server::ShardedOptions sopts;
    sopts.shards = static_cast<uint32_t>(shards);
    sopts.base = server_opts;
    auto sharded = std::make_unique<server::ShardedDatabase>(
        std::move(sopts), &hgs, &image);
    for (uint32_t i = 0; i < sharded->shard_count(); ++i) {
      hgs.RegisterTcgLog(sharded->shard(i)->platform()->tcg_log());
    }
    db = std::move(sharded);
  } else {
    auto single = std::make_unique<server::Database>(server_opts, &hgs, &image);
    hgs.RegisterTcgLog(single->platform()->tcg_log());
    db = std::move(single);
  }

  // Durable startup: recover catalog + data from the data dir (without
  // --data-dir the database is already open on its own simulated disk).
  // Under --shards each shard recovers from its own WAL, then in-doubt 2PC
  // participants settle against the decision log.
  CHECK_OK(db->Open());
  if (!server_opts.data_dir.empty()) {
    const server::RecoveryInfo& ri = db->recovery_info();
    std::printf("recovered %s in %llu ms: %llu WAL records replayed, "
                "%zu DDL statements, checkpoint_lsn=%llu%s\n",
                server_opts.data_dir.c_str(),
                static_cast<unsigned long long>(ri.recovery_ms),
                static_cast<unsigned long long>(ri.wal_records_replayed),
                ri.ddl_statements_replayed,
                static_cast<unsigned long long>(ri.from_checkpoint_lsn),
                ri.clean_shutdown ? " (clean shutdown)" : "");
  }

  net::Server server(db.get(), config);
  CHECK_OK(server.Start());
  std::printf("aedb_serverd listening on %s:%u (enclave author %s)\n",
              config.bind_address.c_str(), server.port(),
              HexEncode(image.AuthorId()).substr(0, 16).c_str());
  // The crash-torture supervisor parses the line above through a pipe.
  std::fflush(stdout);

  if (demo) {
    int rc = RunDemo(server, *db, hgs, image);
    server.Stop();
    return rc;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    struct timespec ts = {0, 200'000'000};
    nanosleep(&ts, nullptr);
  }
  // Graceful drain, bounded: in-flight statements finish and their commits
  // reach the WAL, but a wedged connection cannot stall shutdown forever.
  auto stopped = std::async(std::launch::async, [&server] { server.Stop(); });
  if (stopped.wait_for(std::chrono::milliseconds(drain_deadline_ms)) !=
      std::future_status::ready) {
    std::fprintf(stderr,
                 "drain deadline (%ld ms) exceeded; forcing dirty exit\n",
                 drain_deadline_ms);
    // Best effort durability: fsync what the WALs already have. No clean
    // marker — the next startup runs normal recovery.
    (void)db->SyncWals();
    std::fflush(nullptr);
    std::_Exit(3);
  }
  const net::ServerStats& s = server.stats();
  std::printf("shutting down: %llu connections, %llu frames in, %llu frames "
              "out, %llu protocol errors\n",
              static_cast<unsigned long long>(s.connections_accepted.load()),
              static_cast<unsigned long long>(s.frames_in.load()),
              static_cast<unsigned long long>(s.frames_out.load()),
              static_cast<unsigned long long>(s.protocol_errors.load()));
  server::DatabaseStats ds = db->Stats();
  std::printf("overload: %llu conns rejected, %llu queries rejected, "
              "%llu expired, queue highwater %llu\n",
              static_cast<unsigned long long>(s.connections_rejected.load()),
              static_cast<unsigned long long>(ds.queries_rejected),
              static_cast<unsigned long long>(ds.queries_expired),
              static_cast<unsigned long long>(ds.pool_queue_highwater));
  Status shut = db->Shutdown();
  if (!shut.ok()) {
    std::fprintf(stderr, "shutdown checkpoint skipped: %s\n",
                 shut.ToString().c_str());
  }
  ds = db->Stats();
  std::printf("durability: recovery_ms=%llu wal_records_replayed=%llu "
              "torn_bytes_dropped=%llu checkpoints_taken=%llu wal_bytes=%llu "
              "fsyncs=%llu wal_file_errors=%llu\n",
              static_cast<unsigned long long>(ds.recovery_ms),
              static_cast<unsigned long long>(ds.wal_records_replayed),
              static_cast<unsigned long long>(ds.torn_bytes_dropped),
              static_cast<unsigned long long>(ds.checkpoints_taken),
              static_cast<unsigned long long>(ds.wal_bytes),
              static_cast<unsigned long long>(ds.fsyncs),
              static_cast<unsigned long long>(ds.wal_file_errors));
  std::printf("buffer pool: hits=%llu misses=%llu evictions=%llu "
              "writebacks=%llu pinned_highwater=%llu\n",
              static_cast<unsigned long long>(ds.pool_hits),
              static_cast<unsigned long long>(ds.pool_misses),
              static_cast<unsigned long long>(ds.pool_evictions),
              static_cast<unsigned long long>(ds.pool_writebacks),
              static_cast<unsigned long long>(ds.pool_pinned_highwater));
  std::printf("group commit: batches=%llu sync_requests=%llu "
              "commits_per_fsync=%.2f\n",
              static_cast<unsigned long long>(ds.group_commit_batches),
              static_cast<unsigned long long>(ds.commit_sync_requests),
              ds.commits_per_fsync);
  std::printf("locks: deadlocks=%llu\n",
              static_cast<unsigned long long>(ds.lock_deadlocks));
  return 0;
}
