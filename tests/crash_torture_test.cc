#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "net/socket_transport.h"
#include "process_supervisor.h"
#include "storage/fsio.h"
#include "tpcc/tpcc.h"

// The kill -9 process-crash torture harness (ISSUE 7 tentpole part 3).
//
// A real aedb_serverd child serves encrypted TPC-C over TCP from a durable
// --data-dir. The harness SIGKILLs it at seeded random points — plus forced
// crashes at wal/append, wal/sync (the commit durability point),
// fsio/pre_rename (a checkpoint's log rewrite written but not yet renamed),
// ckpt/pre_write (a checkpoint quiesced, nothing written yet) and
// recovery/replay (mid-recovery) — then
// restarts it over the same files and verifies from the client side that
// exactly the acknowledged-commit prefix survived, with zero wrong results,
// while the one long-lived driver re-attests transparently.
//
// Durable ground truth is a CommitLog table with a randomized-encrypted
// payload: every acknowledged INSERT must be present byte-exact after any
// crash, every surviving row must have been acknowledged or in flight, and
// no row may ever decrypt to the wrong payload.
//
// Gated off tier-1 (ctest label `crash`, scripts/verify.sh --crash) because
// it forks ~25 server processes: set AEDB_RUN_CRASH_TORTURE=1 to run.

#ifndef AEDB_SERVERD_PATH
#define AEDB_SERVERD_PATH "aedb_serverd"
#endif

namespace aedb {
namespace {

bool OnDisk(const std::string& path) {
  storage::PosixFs disk;
  return storage::fsio::FileExists(disk, path);
}

using client::Driver;
using client::DriverOptions;
using types::Value;

constexpr uint64_t kKeySeed = 4242;

std::string TagFor(uint64_t seq) {
  return "tag-" + std::to_string(seq) + "-CONFIDENTIAL-PAYLOAD";
}

class CrashTortureTest : public ::testing::Test {
 protected:
  static constexpr const char* kVaultPath = "https://vault.example/keys/tpcc";

  void SetUp() override {
    if (const char* run = std::getenv("AEDB_RUN_CRASH_TORTURE");
        run == nullptr || std::string(run) != "1") {
      GTEST_SKIP() << "set AEDB_RUN_CRASH_TORTURE=1 to run the process-crash "
                      "torture harness (forks ~25 servers)";
    }
    char templ[] = "/tmp/aedb_crash_torture_XXXXXX";
    char* made = mkdtemp(templ);
    ASSERT_NE(made, nullptr);
    data_dir_ = made;

    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey(kVaultPath, 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());

    // Regenerate the server's seeded attestation identities client-side: the
    // same --key-seed recipe serverd uses, so every restarted process
    // attests as the same enclave author on the same HGS.
    Bytes seed;
    PutU64(&seed, kKeySeed);
    crypto::HmacDrbg drbg(Slice(seed), Slice(std::string_view("aedb-serverd")));
    auto author_key = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key);
    hgs_ = std::make_unique<attestation::HostGuardianService>(Slice(seed));

    server_ = std::make_unique<testing::ServerProcess>(AEDB_SERVERD_PATH);
    port_ = std::make_shared<std::atomic<uint16_t>>(0);

    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    auto port = port_;
    dopts.transport_factory =
        [port]() -> Result<std::unique_ptr<client::Transport>> {
      net::SocketTransport::Options topts;
      topts.port = port->load();
      auto t = net::SocketTransport::Connect(topts);
      if (!t.ok()) return t.status();
      return std::unique_ptr<client::Transport>(std::move(t).value());
    };
    driver_options_ = dopts;
  }

  void TearDown() override {
    driver_.reset();
    if (server_ != nullptr) (void)server_->Kill();
    if (std::getenv("AEDB_KEEP_CRASH_DIR") != nullptr) {
      // Debug aid: leave the data dir behind for post-mortem replay.
      std::fprintf(stderr, "torture: keeping data dir %s\n", data_dir_.c_str());
      return;
    }
    if (!data_dir_.empty()) {
      // Scratch data dirs are throwaway; a plain rm -rf equivalent.
      std::vector<std::string> files = ListDataDirFiles();
      for (const std::string& f : files) unlink(f.c_str());
      rmdir(data_dir_.c_str());
    }
  }

  /// Starts (or restarts) the server over the durable data dir. Returns
  /// false when the child died before serving — the expected outcome of a
  /// --die-at crash during startup recovery.
  bool StartServer(const std::vector<std::string>& die_at = {}) {
    std::vector<std::string> args = {
        "--port",       "0",
        "--data-dir",   data_dir_,
        "--key-seed",   std::to_string(kKeySeed),
        // Small threshold so background checkpoints really happen while the
        // harness is shooting at checkpoint-path fault points.
        "--checkpoint-bytes", "8192",
        "--drain-deadline-ms", "10000",
    };
    for (const std::string& d : die_at) {
      args.push_back("--die-at");
      args.push_back(d);
    }
    Status st = server_->Start(args);
    if (!st.ok()) return false;
    port_->store(server_->port());
    if (driver_ == nullptr) {
      auto t = driver_options_.transport_factory();
      EXPECT_TRUE(t.ok()) << t.status().ToString();
      driver_ = std::make_unique<Driver>(std::move(t).value(), &registry_,
                                         hgs_->signing_public(),
                                         driver_options_);
    }
    return true;
  }

  void ProvisionAndLoadTpcc() {
    ASSERT_TRUE(driver_
                    ->ProvisionCmk("TpccCMK", vault_->name(), kVaultPath,
                                   /*enclave_enabled=*/true)
                    .ok());
    ASSERT_TRUE(driver_->ProvisionCek("TpccCEK", "TpccCMK").ok());
    tpcc::TpccConfig config = TpccShape();
    tpcc::TpccLoader loader(driver_.get(), config);
    Status st = loader.CreateSchema();
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = loader.Load();
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = driver_->ExecuteDdl(
        "CREATE TABLE CommitLog ("
        "  Seq INT NOT NULL,"
        "  Tag VARCHAR(64) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TpccCEK,"
        "    ENCRYPTION_TYPE = Randomized,"
        "    ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))");
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  static tpcc::TpccConfig TpccShape() {
    tpcc::TpccConfig config;
    config.warehouses = 1;
    config.districts_per_warehouse = 2;
    config.customers_per_district = 4;
    config.items = 20;
    config.initial_orders_per_district = 2;
    config.encryption = tpcc::Encryption::kRandomized;
    config.cek_name = "TpccCEK";
    return config;
  }

  static void Note(const std::string& what) {
    std::fprintf(stderr, "torture: %s\n", what.c_str());
  }

  /// Drives journaled commits (plus TPC-C terminal mix) until the server
  /// dies under it or `max_ops` succeed. Every acknowledged INSERT seq goes
  /// to acked_; a failed one is in-flight limbo (maybe_) — the crash may or
  /// may not have made it durable, and either outcome is legal.
  void DriveTraffic(tpcc::TpccTerminal* terminal, int max_ops) {
    for (int i = 0; i < max_ops; ++i) {
      uint64_t seq = next_seq_++;
      auto r = driver_->Query("INSERT INTO CommitLog (Seq, Tag) VALUES (@s, @t)",
                              {{"s", Value::Int32(static_cast<int32_t>(seq))},
                               {"t", Value::String(TagFor(seq))}});
      if (!r.ok()) {
        maybe_.insert(seq);
        return;
      }
      acked_.insert(seq);
      if (i % 4 == 3 && terminal != nullptr) {
        if (!terminal->RunOne().ok()) return;  // server died mid-TPC-C txn
      }
    }
  }

  /// The exact-prefix + zero-wrong-results check, run after every restart.
  void VerifySurvivors(const std::string& where) {
    auto r = driver_->Query("SELECT Seq, Tag FROM CommitLog");
    ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    std::map<uint64_t, std::string> present;
    for (const auto& row : r->rows) {
      uint64_t seq = static_cast<uint64_t>(row[0].i32());
      ASSERT_EQ(present.count(seq), 0u)
          << where << ": seq " << seq << " duplicated (a statement replayed "
          << "non-idempotently)";
      present[seq] = row[1].str();
    }
    for (uint64_t seq : acked_) {
      auto it = present.find(seq);
      ASSERT_NE(it, present.end())
          << where << ": acknowledged commit seq " << seq
          << " lost after restart (durability violation)";
      ASSERT_EQ(it->second, TagFor(seq))
          << where << ": seq " << seq << " decrypted to the wrong payload";
    }
    for (const auto& [seq, tag] : present) {
      ASSERT_TRUE(acked_.count(seq) == 1 || maybe_.count(seq) == 1)
          << where << ": phantom seq " << seq << " was never issued";
      ASSERT_EQ(tag, TagFor(seq))
          << where << ": seq " << seq << " decrypted to the wrong payload";
    }
    // An enclave-evaluated predicate on the RND column: forces CEK install
    // into the fresh enclave (re-attestation + ResolveDeferred server-side)
    // and proves encrypted evaluation returns exact results post-crash.
    if (!acked_.empty()) {
      uint64_t probe = *acked_.rbegin();
      auto q = driver_->Query("SELECT Seq FROM CommitLog WHERE Tag = @t",
                              {{"t", Value::String(TagFor(probe))}});
      ASSERT_TRUE(q.ok()) << where << ": " << q.status().ToString();
      ASSERT_EQ(q->rows.size(), 1u) << where;
      EXPECT_EQ(static_cast<uint64_t>(q->rows[0][0].i32()), probe) << where;
    }
  }

  std::vector<std::string> ListDataDirFiles() const {
    std::vector<std::string> out;
    // The data dir is flat; reuse the durable-file helpers' naming.
    for (const char* name :
         {"wal.log", "ddl.log", "clean_shutdown", "wal.log.tmp"}) {
      std::string path = data_dir_ + "/" + name;
      if (OnDisk(path)) out.push_back(path);
    }
    return out;
  }

  std::string data_dir_;
  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<testing::ServerProcess> server_;
  std::shared_ptr<std::atomic<uint16_t>> port_;
  DriverOptions driver_options_;
  std::unique_ptr<Driver> driver_;

  uint64_t next_seq_ = 1;
  std::set<uint64_t> acked_;  // server acknowledged the commit
  std::set<uint64_t> maybe_;  // in flight at crash time: either outcome legal
};

TEST_F(CrashTortureTest, AckedPrefixSurvivesTwentyPlusKillNineCycles) {
  const uint64_t seed_env =
      std::getenv("AEDB_CRASH_SEED") != nullptr
          ? strtoull(std::getenv("AEDB_CRASH_SEED"), nullptr, 10)
          : 0xC4A54ULL;
  Xoshiro256 rng(seed_env);

  // Phase A (protected from kills): boot, provision keys, create + load the
  // encrypted TPC-C schema, create the commit journal.
  ASSERT_TRUE(StartServer());
  Note("server up, loading TPC-C");
  ProvisionAndLoadTpcc();
  Note("TPC-C loaded, baseline traffic");
  tpcc::TpccTerminal terminal(driver_.get(), TpccShape(), /*seed=*/rng.Next());
  DriveTraffic(&terminal, 10);  // some pre-crash baseline traffic
  ASSERT_GE(acked_.size(), 10u);
  Note("baseline done, entering crash cycles");

  // Phase B: ≥20 seeded crash/restart cycles across the crash-point matrix.
  const int kCycles = 21;
  int attestations_seen = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    Note("cycle " + std::to_string(cycle) + " (mode " +
         std::to_string(cycle % 7) + "), acked=" +
         std::to_string(acked_.size()));
    const int mode = cycle % 7;
    bool die_armed = true;
    switch (mode) {
      case 0:
        ASSERT_TRUE(server_->Kill().ok());  // make room to restart armed
        ASSERT_TRUE(StartServer(
            {"wal/append:" + std::to_string(rng.Uniform(10, 60))}));
        break;
      case 1:
        ASSERT_TRUE(server_->Kill().ok());
        ASSERT_TRUE(StartServer(
            {"wal/sync:" + std::to_string(rng.Uniform(3, 25))}));
        break;
      case 2:
        // Mid-checkpoint publish: dies between the log rewrite's tmp-file
        // fsync and its rename.
        ASSERT_TRUE(server_->Kill().ok());
        ASSERT_TRUE(StartServer({"fsio/pre_rename"}));
        break;
      case 3:
        // Checkpoint quiesced, before its log rewrite starts.
        ASSERT_TRUE(server_->Kill().ok());
        ASSERT_TRUE(StartServer({"ckpt/pre_write"}));
        break;
      default:
        die_armed = false;  // raw SIGKILL at a seeded random moment
        break;
    }
    if (!server_->running()) {
      // The armed fault fired during startup recovery itself; restart clean.
      ASSERT_TRUE(StartServer());
    }
    VerifySurvivors("pre-traffic");

    if (die_armed) {
      // Drive until the armed fault kills the server mid-operation.
      DriveTraffic(&terminal, 200);
      if (server_->running()) {
        // Fault never fired (e.g. checkpoint threshold not reached): crash
        // the old-fashioned way so the cycle still ends in kill -9.
        server_->KillAsync();
        DriveTraffic(&terminal, 50);
      }
    } else {
      // Killer thread: SIGKILL after a seeded random delay while the main
      // thread pumps traffic.
      const int delay_ms = static_cast<int>(rng.Uniform(10, 200));
      std::thread killer([this, delay_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        server_->KillAsync();
      });
      DriveTraffic(&terminal, 100000);
      killer.join();
    }
    ASSERT_TRUE(server_->WaitExit(nullptr).ok());

    // Every few cycles, make the NEXT recovery itself crash partway and
    // prove re-running it from the same files converges (idempotence).
    if (mode == 6) {
      bool served = StartServer({"recovery/replay:2"});
      if (served) {
        // Tail was too short to reach the fault during replay; kill it and
        // fall through to the clean restart.
        ASSERT_TRUE(server_->Kill().ok());
      }
    }
    ASSERT_TRUE(StartServer());
    VerifySurvivors("post-restart");
    attestations_seen = static_cast<int>(driver_->attestations());
  }
  // The single long-lived driver re-attested transparently across restarts —
  // no manual InvalidateSession, no application-visible ceremony.
  EXPECT_GT(attestations_seen, 1);
  EXPECT_GE(acked_.size(), 40u) << "torture produced too little traffic to "
                                   "mean anything";

  // Phase C: SIGTERM graceful drain — bounded, flushes, writes the
  // clean-shutdown marker, exits 0.
  int wait_status = 0;
  ASSERT_TRUE(server_->Terminate(&wait_status).ok());
  ASSERT_TRUE(WIFEXITED(wait_status))
      << "server did not exit cleanly on SIGTERM";
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  EXPECT_TRUE(
      OnDisk(data_dir_ + "/clean_shutdown"));

  // The survivors are intact after a clean restart too.
  ASSERT_TRUE(StartServer());
  VerifySurvivors("post-clean-shutdown");

  // Ciphertext at rest: no plaintext of any encrypted column — TPC-C
  // customer last names (LastName syllables) or the journal payloads — may
  // appear in any byte the server ever wrote durably.
  ASSERT_TRUE(server_->Kill().ok());
  // "BARBAR" prefixes every loaded customer's C_LAST (LastName(0..3)).
  const std::vector<std::string> secrets = {"CONFIDENTIAL-PAYLOAD", "BARBAR"};
  size_t scanned = 0;
  for (const std::string& file : ListDataDirFiles()) {
    auto bytes = storage::PosixFs().ReadFile(file);
    ASSERT_TRUE(bytes.ok()) << file;
    scanned += bytes->size();
    std::string_view haystack(reinterpret_cast<const char*>(bytes->data()),
                              bytes->size());
    for (const std::string& secret : secrets) {
      EXPECT_EQ(haystack.find(secret), std::string_view::npos)
          << "plaintext '" << secret << "' at rest in " << file;
    }
  }
  EXPECT_GT(scanned, 0u);
}

}  // namespace
}  // namespace aedb
