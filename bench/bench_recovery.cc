// Durability ablation: recovery time as a function of WAL length, with and
// without a checkpoint — the motivation for threshold checkpointing — plus
// the commit-durability cost (fsyncs per committed transaction). Emits
// BENCH_recovery.json.
//
// Second sweep: group commit × buffer-pool size under concurrent TPC-C
// (8 terminals, durable WAL). Measures commits per fsync and throughput
// against the per-commit-fsync baseline. Emits BENCH_commit.json.
//
// Method: boot a durable Database over a scratch data dir, run N single-row
// encrypted-INSERT transactions, tear the process stand-in down WITHOUT
// Shutdown() (what kill -9 leaves behind), and time the next Open(). The
// checkpointed variant takes one checkpoint at ~90% of the load so recovery
// restores the log's checkpoint base + replays a small tail instead of the
// full history.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "server/database.h"
#include "storage/fsio.h"
#include "tpcc/tpcc.h"

namespace aedb::bench {
namespace {

using types::Value;

struct Deployment {
  std::unique_ptr<keys::InMemoryKeyVault> vault;
  keys::KeyProviderRegistry registry;
  crypto::RsaPrivateKey author;
  enclave::EnclaveImage image;
  std::unique_ptr<attestation::HostGuardianService> hgs;
  std::unique_ptr<server::Database> db;
  std::unique_ptr<client::Driver> driver;
  std::string data_dir;
  storage::EngineOptions engine_opts;  // pool size / flusher / group commit

  /// (Re)creates the server-side stack over data_dir and opens it; the vault
  /// and attestation identities persist across "restarts" like real client
  /// custody does. Returns Open() wall time in milliseconds.
  double Boot() {
    driver.reset();
    db.reset();
    Bytes seed;
    PutU64(&seed, 4242);
    hgs = std::make_unique<attestation::HostGuardianService>(Slice(seed));
    server::ServerOptions opts;
    opts.data_dir = data_dir;
    opts.engine = engine_opts;
    db = std::make_unique<server::Database>(opts, hgs.get(), &image);
    hgs->RegisterTcgLog(db->platform()->tcg_log());
    auto start = std::chrono::steady_clock::now();
    Status st = db->Open();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!st.ok()) {
      std::fprintf(stderr, "Open failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    client::DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image.AuthorId();
    driver = std::make_unique<client::Driver>(db.get(), &registry,
                                              hgs->signing_public(), dopts);
    return ms;
  }

  /// An extra session over the same open database (TPC-C terminals).
  std::unique_ptr<client::Driver> MakeDriver() {
    client::DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image.AuthorId();
    return std::make_unique<client::Driver>(db.get(), &registry,
                                            hgs->signing_public(), dopts);
  }
};

/// Removes the FilePageStore spill directory (`<dir>/pages/obj-*.pages`) so
/// the scratch data dir can be rmdir'd.
void RemovePagesDir(const std::string& data_dir) {
  std::string pages = data_dir + "/pages";
  DIR* d = opendir(pages.c_str());
  if (d != nullptr) {
    while (struct dirent* e = readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      (void)unlink((pages + "/" + name).c_str());
    }
    closedir(d);
  }
  (void)rmdir(pages.c_str());
}

std::unique_ptr<Deployment> MakeDeployment(const std::string& data_dir) {
  auto d = std::make_unique<Deployment>();
  d->data_dir = data_dir;
  d->vault = std::make_unique<keys::InMemoryKeyVault>();
  (void)d->vault->CreateKey("kv/cmk", 1024);
  (void)d->registry.Register(d->vault.get());
  Bytes seed;
  PutU64(&seed, 4242);
  crypto::HmacDrbg drbg(Slice(seed), Slice(std::string_view("aedb-serverd")));
  d->author = crypto::GenerateRsaKey(1024, &drbg);
  d->image = enclave::EnclaveImage::MakeEsImage(1, d->author);
  return d;
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

void Provision(client::Driver* driver) {
  MustOk(driver->ProvisionCmk("BenchCMK", "AZURE_KEY_VAULT_PROVIDER", "kv/cmk",
                              /*enclave_enabled=*/true),
         "ProvisionCmk");
  MustOk(driver->ProvisionCek("BenchCEK", "BenchCMK"), "ProvisionCek");
  MustOk(driver->ExecuteDdl(
             "CREATE TABLE Ledger ("
             "  ID INT NOT NULL,"
             "  Payload VARCHAR(64) ENCRYPTED WITH ("
             "    COLUMN_ENCRYPTION_KEY = BenchCEK,"
             "    ENCRYPTION_TYPE = Randomized,"
             "    ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"),
         "CREATE TABLE");
}

/// One committed transaction == one INSERT (the worst case for the
/// fsync-per-commit ratio: no group amortization).
void LoadRows(client::Driver* driver, int from, int to) {
  for (int i = from; i < to; ++i) {
    auto r = driver->Query(
        "INSERT INTO Ledger (ID, Payload) VALUES (@id, @p)",
        {{"id", Value::Int32(i)},
         {"p", Value::String("row-" + std::to_string(i) + "-payload")}});
    MustOk(r.status(), "INSERT");
  }
}

struct Point {
  int rows;
  bool checkpointed;
  uint64_t wal_bytes;
  uint64_t wal_records_replayed;
  uint64_t ddl_statements_replayed;
  double open_ms;
  uint64_t recovery_ms;
  uint64_t committed;   // committed txns during the load phase
  uint64_t fsyncs;      // fsyncs during the load phase
};

Point RunOne(int rows, bool checkpointed) {
  char templ[] = "/tmp/aedb_bench_recovery_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) std::exit(1);
  auto d = MakeDeployment(dir);
  (void)d->Boot();
  Provision(d->driver.get());

  server::DatabaseStats before = d->db->Stats();
  if (checkpointed) {
    // Load to ~90%, checkpoint, then the tail: recovery = base + 10%.
    LoadRows(d->driver.get(), 0, rows * 9 / 10);
    MustOk(d->db->Checkpoint(), "Checkpoint");
    LoadRows(d->driver.get(), rows * 9 / 10, rows);
  } else {
    LoadRows(d->driver.get(), 0, rows);
  }
  server::DatabaseStats after = d->db->Stats();

  Point p;
  p.rows = rows;
  p.checkpointed = checkpointed;
  p.wal_bytes = after.wal_bytes;
  p.committed = static_cast<uint64_t>(rows) + 3;  // + CMK/CEK/DDL round trips
  p.fsyncs = after.fsyncs - before.fsyncs;

  // kill -9 stand-in: drop everything without Shutdown(), reboot, time it.
  p.open_ms = d->Boot();
  const server::Database::RecoveryInfo& ri = d->db->recovery_info();
  p.recovery_ms = ri.recovery_ms;
  p.wal_records_replayed = ri.wal_records_replayed;
  p.ddl_statements_replayed = ri.ddl_statements_replayed;

  // Sanity: every row must have survived.
  auto all = d->driver->Query("SELECT ID FROM Ledger");
  MustOk(all.status(), "verify SELECT");
  if (all->rows.size() != static_cast<size_t>(rows)) {
    std::fprintf(stderr, "verify: %zu rows survived, expected %d\n",
                 all->rows.size(), rows);
    std::exit(1);
  }

  d->driver.reset();
  d->db.reset();
  for (const char* f :
       {"/wal.log", "/ddl.log", "/clean_shutdown"}) {
    (void)unlink((d->data_dir + f).c_str());
  }
  RemovePagesDir(d->data_dir);
  (void)rmdir(d->data_dir.c_str());
  return p;
}

// ---------------------------------------------------------------------------
// Group commit × pool size under concurrent TPC-C

struct CommitPoint {
  uint64_t window_us;
  uint64_t pool_pages;  // 0 = unbounded
  uint64_t committed;
  double seconds;
  double txn_per_second;
  double commits_per_fsync;
  uint64_t pool_evictions;
};

CommitPoint RunCommitPoint(uint64_t window_us, uint64_t pool_pages,
                           int threads, uint64_t target) {
  char templ[] = "/tmp/aedb_bench_commit_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) std::exit(1);
  auto d = MakeDeployment(dir);
  d->engine_opts.group_commit_window_us = window_us;
  d->engine_opts.pool_pages = pool_pages;
  (void)d->Boot();

  // Small scale: the sweep axis is the commit/pool configuration, not TPC-C
  // contention, and the loader dominates wall time at bigger sizes.
  tpcc::TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 4;
  config.customers_per_district = 20;
  config.initial_orders_per_district = 5;
  config.encryption = tpcc::Encryption::kPlaintext;
  {
    auto loader_driver = d->MakeDriver();
    tpcc::TpccLoader loader(loader_driver.get(), config);
    MustOk(loader.CreateSchema(), "tpcc CreateSchema");
    MustOk(loader.Load(), "tpcc Load");
  }

  server::DatabaseStats before = d->db->Stats();
  tpcc::BenchcraftResult run = tpcc::RunBenchcraftCount(
      [&] { return d->MakeDriver(); }, config, threads, target,
      /*deadline_seconds=*/120);
  if (!run.first_error.empty()) {
    std::fprintf(stderr, "tpcc: %s\n", run.first_error.c_str());
    std::exit(1);
  }
  server::DatabaseStats after = d->db->Stats();

  CommitPoint p;
  p.window_us = window_us;
  p.pool_pages = pool_pages;
  p.committed = run.committed;
  p.seconds = run.seconds;
  p.txn_per_second = run.txn_per_second;
  uint64_t requests = after.commit_sync_requests - before.commit_sync_requests;
  uint64_t batches = after.group_commit_batches - before.group_commit_batches;
  p.commits_per_fsync =
      batches == 0 ? 0.0
                   : static_cast<double>(requests) / static_cast<double>(batches);
  p.pool_evictions = after.pool_evictions - before.pool_evictions;

  d->driver.reset();
  d->db.reset();
  for (const char* f :
       {"/wal.log", "/ddl.log", "/clean_shutdown"}) {
    (void)unlink((d->data_dir + f).c_str());
  }
  RemovePagesDir(d->data_dir);
  (void)rmdir(d->data_dir.c_str());
  return p;
}

/// Commit-bound amortization probe: `threads` sessions race single-row
/// encrypted INSERT transactions (the lightest possible commit). TPC-C
/// transactions are execution-heavy, so their commits arrive too far apart
/// for any window to overlap; this is the workload where group commit's
/// one-fsync-per-cohort discipline actually shows its multiplier.
CommitPoint RunLedgerPoint(uint64_t window_us, int threads, int per_thread) {
  char templ[] = "/tmp/aedb_bench_commit_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) std::exit(1);
  auto d = MakeDeployment(dir);
  d->engine_opts.group_commit_window_us = window_us;
  (void)d->Boot();
  Provision(d->driver.get());

  server::DatabaseStats before = d->db->Stats();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto driver = d->MakeDriver();
      for (int i = 0; i < per_thread; ++i) {
        int id = t * per_thread + i;
        auto r = driver->Query(
            "INSERT INTO Ledger (ID, Payload) VALUES (@id, @p)",
            {{"id", Value::Int32(id)},
             {"p", Value::String("gc-" + std::to_string(id))}});
        MustOk(r.status(), "ledger INSERT");
      }
    });
  }
  for (auto& w : workers) w.join();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  server::DatabaseStats after = d->db->Stats();

  CommitPoint p;
  p.window_us = window_us;
  p.pool_pages = 0;
  p.committed = static_cast<uint64_t>(threads) * per_thread;
  p.seconds = seconds;
  p.txn_per_second = seconds > 0 ? p.committed / seconds : 0;
  uint64_t requests = after.commit_sync_requests - before.commit_sync_requests;
  uint64_t batches = after.group_commit_batches - before.group_commit_batches;
  p.commits_per_fsync =
      batches == 0 ? 0.0
                   : static_cast<double>(requests) / static_cast<double>(batches);
  p.pool_evictions = 0;

  d->driver.reset();
  d->db.reset();
  for (const char* f :
       {"/wal.log", "/ddl.log", "/clean_shutdown"}) {
    (void)unlink((d->data_dir + f).c_str());
  }
  RemovePagesDir(d->data_dir);
  (void)rmdir(d->data_dir.c_str());
  return p;
}

int Main() {
  std::printf("Recovery time vs WAL length (durable data dir, encrypted "
              "single-row commits)\n\n");
  std::printf("%6s %12s %10s %9s %9s %8s %14s\n", "rows", "checkpoint",
              "wal_bytes", "replayed", "open_ms", "rec_ms", "fsync/commit");

  std::vector<Point> points;
  for (int rows : {250, 1000, 4000}) {
    for (bool ckpt : {false, true}) {
      Point p = RunOne(rows, ckpt);
      points.push_back(p);
      std::printf("%6d %12s %10llu %9llu %9.1f %8llu %14.2f\n", p.rows,
                  p.checkpointed ? "yes" : "no",
                  static_cast<unsigned long long>(p.wal_bytes),
                  static_cast<unsigned long long>(p.wal_records_replayed),
                  p.open_ms, static_cast<unsigned long long>(p.recovery_ms),
                  static_cast<double>(p.fsyncs) /
                      static_cast<double>(p.committed));
    }
  }

  FILE* f = std::fopen("BENCH_recovery.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"sweep\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(
          f,
          "    {\"rows\": %d, \"checkpointed\": %s, \"wal_bytes\": %llu, "
          "\"wal_records_replayed\": %llu, \"ddl_statements_replayed\": %llu, "
          "\"open_ms\": %.2f, \"recovery_ms\": %llu, "
          "\"committed_txns\": %llu, \"fsyncs\": %llu, "
          "\"fsyncs_per_commit\": %.3f}%s\n",
          p.rows, p.checkpointed ? "true" : "false",
          static_cast<unsigned long long>(p.wal_bytes),
          static_cast<unsigned long long>(p.wal_records_replayed),
          static_cast<unsigned long long>(p.ddl_statements_replayed),
          p.open_ms, static_cast<unsigned long long>(p.recovery_ms),
          static_cast<unsigned long long>(p.committed),
          static_cast<unsigned long long>(p.fsyncs),
          static_cast<double>(p.fsyncs) / static_cast<double>(p.committed),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote BENCH_recovery.json\n");
  }

  // The point of checkpointing: the largest sweep's recovery must be faster
  // with a checkpoint than without.
  double plain = 0, with_ckpt = 0;
  for (const Point& p : points) {
    if (p.rows != 4000) continue;
    (p.checkpointed ? with_ckpt : plain) = p.open_ms;
  }
  if (with_ckpt >= plain) {
    std::printf("note: checkpointed recovery (%.1fms) was not faster than "
                "full replay (%.1fms) at this scale\n", with_ckpt, plain);
  }

  std::printf("\nGroup commit x pool size under TPC-C (8 terminals, durable "
              "WAL, fsync per cohort)\n\n");
  std::printf("%10s %10s %9s %8s %8s %14s %10s\n", "window_us", "pool_pages",
              "committed", "seconds", "txn/s", "commits/fsync", "evictions");

  std::vector<CommitPoint> cpoints;
  const int kThreads = 8;
  const uint64_t kTarget = 400;
  for (uint64_t pool : {uint64_t{0}, uint64_t{64}}) {
    for (uint64_t window : {uint64_t{0}, uint64_t{200}}) {
      CommitPoint p = RunCommitPoint(window, pool, kThreads, kTarget);
      cpoints.push_back(p);
      std::printf("%10llu %10llu %9llu %8.2f %8.1f %14.2f %10llu\n",
                  static_cast<unsigned long long>(p.window_us),
                  static_cast<unsigned long long>(p.pool_pages),
                  static_cast<unsigned long long>(p.committed), p.seconds,
                  p.txn_per_second, p.commits_per_fsync,
                  static_cast<unsigned long long>(p.pool_evictions));
    }
  }

  std::printf("\nCommit-bound amortization (8 sessions, single-row encrypted "
              "INSERT transactions)\n\n");
  std::printf("%10s %9s %8s %8s %14s\n", "window_us", "committed", "seconds",
              "txn/s", "commits/fsync");
  std::vector<CommitPoint> lpoints;
  for (uint64_t window : {uint64_t{0}, uint64_t{200}}) {
    CommitPoint p = RunLedgerPoint(window, kThreads, /*per_thread=*/100);
    lpoints.push_back(p);
    std::printf("%10llu %9llu %8.2f %8.1f %14.2f\n",
                static_cast<unsigned long long>(p.window_us),
                static_cast<unsigned long long>(p.committed), p.seconds,
                p.txn_per_second, p.commits_per_fsync);
  }

  f = std::fopen("BENCH_commit.json", "w");
  if (f != nullptr) {
    auto emit = [&](const std::vector<CommitPoint>& pts, bool with_pool) {
      for (size_t i = 0; i < pts.size(); ++i) {
        const CommitPoint& p = pts[i];
        std::fprintf(f, "    {\"group_commit_window_us\": %llu, ",
                     static_cast<unsigned long long>(p.window_us));
        if (with_pool) {
          std::fprintf(f, "\"pool_pages\": %llu, ",
                       static_cast<unsigned long long>(p.pool_pages));
        }
        std::fprintf(
            f,
            "\"committed\": %llu, \"seconds\": %.3f, "
            "\"txn_per_second\": %.1f, \"commits_per_fsync\": %.3f",
            static_cast<unsigned long long>(p.committed), p.seconds,
            p.txn_per_second, p.commits_per_fsync);
        if (with_pool) {
          std::fprintf(f, ", \"pool_evictions\": %llu",
                       static_cast<unsigned long long>(p.pool_evictions));
        }
        std::fprintf(f, "}%s\n", i + 1 < pts.size() ? "," : "");
      }
    };
    std::fprintf(f, "{\n  \"threads\": %d,\n  \"tpcc_sweep\": [\n", kThreads);
    emit(cpoints, /*with_pool=*/true);
    std::fprintf(f, "  ],\n  \"commit_bound_sweep\": [\n");
    emit(lpoints, /*with_pool=*/false);
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote BENCH_commit.json\n");
  }

  // The point of group commit: with 8 commit-bound sessions a 200us window
  // must amortize several commits onto each fsync (acceptance floor: 4x).
  for (const CommitPoint& p : lpoints) {
    if (p.window_us > 0 && p.commits_per_fsync < 4.0) {
      std::printf("note: commits/fsync %.2f below the 4x group-commit "
                  "target\n", p.commits_per_fsync);
    }
  }
  return 0;
}

}  // namespace
}  // namespace aedb::bench

int main() { return aedb::bench::Main(); }
