// §4.6 ablation: synchronous enclave calls (one call-gate transition per
// morsel) vs the queued worker-thread design with spin-polling, at a
// realistic VBS transition cost, across morsel sizes. Every case crosses the
// call gate through the batch entry points; a morsel of one row (or one
// cell) is the row-at-a-time system.
//
// Besides the Google Benchmark suite, the binary runs a batch-size sweep at
// transition_cost_ns = 5000 and writes machine-readable results to
// BENCH_batch.json (override with --sweep-json=PATH; --sweep-only skips the
// gbench suite).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "crypto/drbg.h"
#include "enclave/enclave.h"
#include "enclave/worker_pool.h"

namespace aedb::enclave {
namespace {

using types::TypeId;
using types::Value;

struct Rig {
  crypto::RsaPrivateKey author;
  std::unique_ptr<VbsPlatform> platform;
  std::unique_ptr<Enclave> enclave;
  uint64_t handle = 0;
  uint64_t session = 0;
  Bytes cell_a, cell_b;

  explicit Rig(uint64_t transition_ns) {
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("bench")));
    author = crypto::GenerateRsaKey(1024, &drbg);
    platform = std::make_unique<VbsPlatform>("boot");
    EnclaveConfig cfg;
    cfg.transition_cost_ns = transition_ns;
    enclave = std::move(platform->LoadEnclave(
                            EnclaveImage::MakeEsImage(1, author), cfg))
                  .value();
    // Session + CEK install.
    crypto::DhKeyPair dh = crypto::GenerateDhKeyPair(&drbg);
    auto resp = enclave->CreateSession(crypto::DhPublicKeyBytes(dh));
    session = resp->session_id;
    Bytes secret =
        *crypto::DhComputeSharedSecret(dh.private_key, resp->enclave_dh_public);
    crypto::CellCodec channel(secret);
    Bytes cek = crypto::SecureRandom(32);
    Bytes body;
    PutU64(&body, 0);
    PutU32(&body, 1);
    PutU32(&body, 1);
    PutLengthPrefixed(&body, cek);
    (void)enclave->InstallCeks(
        session, 0, channel.Encrypt(body, crypto::EncryptionScheme::kRandomized));
    // Register the standard equality expression.
    es::EsProgram p;
    auto enc = types::EncryptionType::Encrypted(types::EncKind::kRandomized, 1,
                                                true);
    p.GetData(0, TypeId::kString, enc);
    p.GetData(1, TypeId::kString, enc);
    p.Comp(es::CompareOp::kEq);
    p.SetData(0, TypeId::kBool);
    handle = *enclave->RegisterExpression(p.Serialize());
    crypto::CellCodec codec(cek);
    cell_a = codec.Encrypt(Value::String("SMITH").Encode(),
                           crypto::EncryptionScheme::kRandomized);
    cell_b = codec.Encrypt(Value::String("JONES").Encode(),
                           crypto::EncryptionScheme::kRandomized);
  }
};

void BM_WorkerPoolEval(benchmark::State& state) {
  static Rig* rig = new Rig(3000);
  static EnclaveWorkerPool* pool = [] {
    EnclaveWorkerPool::Options opts;
    opts.num_threads = static_cast<int>(2);
    return new EnclaveWorkerPool(rig->enclave.get(), opts);
  }();
  std::vector<std::vector<Value>> morsel = {
      {Value::Binary(rig->cell_a), Value::Binary(rig->cell_b)}};
  for (auto _ : state) {
    auto r = pool->SubmitEvalBatch(rig->handle, morsel);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("queued; spinning worker amortizes transitions; wakeups=" +
                 std::to_string(pool->wakeups()));
}
BENCHMARK(BM_WorkerPoolEval)->Unit(benchmark::kMicrosecond);

void BM_BatchedEval(benchmark::State& state) {
  static Rig* rig = new Rig(3000);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<Value>> batch(
      n, {Value::Binary(rig->cell_a), Value::Binary(rig->cell_b)});
  for (auto _ : state) {
    auto r = rig->enclave->EvalRegisteredBatch(rig->handle, batch);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel("one transition per morsel of " + std::to_string(n));
}
BENCHMARK(BM_BatchedEval)->Arg(1)->Arg(16)->Arg(256)->Unit(
    benchmark::kMicrosecond);

void BM_CompareCellsBatch(benchmark::State& state) {
  static Rig* rig = new Rig(3000);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Slice> cells(n, Slice(rig->cell_b));
  for (auto _ : state) {
    auto r = rig->enclave->CompareCellsBatch(1, rig->cell_a, cells);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel("whole-node probe, one transition");
}
BENCHMARK(BM_CompareCellsBatch)->Arg(1)->Arg(64)->Unit(
    benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Batch-size sweep: rows (or cells) per second at transition_cost_ns = 5000
// for batch sizes 1..256, written to a JSON file. Batch size 1 sends
// morsels of one, so it is the row-at-a-time system.

double EvalRowsPerSec(Rig& rig, size_t batch, size_t total_rows) {
  std::vector<std::vector<Value>> morsel(
      batch, {Value::Binary(rig.cell_a), Value::Binary(rig.cell_b)});
  auto start = std::chrono::steady_clock::now();
  size_t done = 0;
  while (done < total_rows) {
    auto r = rig.enclave->EvalRegisteredBatch(rig.handle, morsel);
    if (!r.ok()) return -1.0;
    done += batch;
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return secs > 0 ? static_cast<double>(done) / secs : 0.0;
}

double CompareCellsPerSec(Rig& rig, size_t batch, size_t total_cells) {
  std::vector<Slice> cells(batch, Slice(rig.cell_b));
  auto start = std::chrono::steady_clock::now();
  size_t done = 0;
  while (done < total_cells) {
    auto r = rig.enclave->CompareCellsBatch(1, rig.cell_a, cells);
    if (!r.ok()) return -1.0;
    done += batch;
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return secs > 0 ? static_cast<double>(done) / secs : 0.0;
}

int RunBatchSweep(const std::string& json_path) {
  constexpr uint64_t kTransitionNs = 5000;  // acceptance-criteria setting
  constexpr size_t kRowsPerMeasurement = 4096;
  constexpr int kRepeats = 3;  // best-of to shrug off scheduler noise
  const size_t sizes[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

  Rig rig(kTransitionNs);
  // Warm up code paths and caches.
  (void)EvalRowsPerSec(rig, 256, 512);
  (void)CompareCellsPerSec(rig, 64, 512);

  std::printf("\nbatch sweep (transition_cost_ns=%llu, %zu rows/measurement)\n",
              static_cast<unsigned long long>(kTransitionNs),
              kRowsPerMeasurement);
  std::printf("%10s %20s %20s\n", "batch", "eval rows/s", "compare cells/s");

  double eval_rps[sizeof(sizes) / sizeof(sizes[0])] = {};
  double cmp_cps[sizeof(sizes) / sizeof(sizes[0])] = {};
  for (size_t i = 0; i < sizeof(sizes) / sizeof(sizes[0]); ++i) {
    for (int rep = 0; rep < kRepeats; ++rep) {
      double e = EvalRowsPerSec(rig, sizes[i], kRowsPerMeasurement);
      double c = CompareCellsPerSec(rig, sizes[i], kRowsPerMeasurement);
      if (e < 0 || c < 0) {
        std::fprintf(stderr, "sweep failed at batch %zu\n", sizes[i]);
        return 1;
      }
      eval_rps[i] = std::max(eval_rps[i], e);
      cmp_cps[i] = std::max(cmp_cps[i], c);
    }
    std::printf("%10zu %20.0f %20.0f\n", sizes[i], eval_rps[i], cmp_cps[i]);
  }

  const size_t last = sizeof(sizes) / sizeof(sizes[0]) - 1;
  double eval_speedup = eval_rps[last] / std::max(1.0, eval_rps[0]);
  double cmp_speedup = cmp_cps[last] / std::max(1.0, cmp_cps[0]);
  std::printf("speedup at batch %zu vs 1: eval %.2fx, compare %.2fx "
              "(acceptance: >= 3x)\n",
              sizes[last], eval_speedup, cmp_speedup);

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_enclave_call batch sweep\",\n");
  std::fprintf(f, "  \"transition_cost_ns\": %llu,\n",
               static_cast<unsigned long long>(kTransitionNs));
  std::fprintf(f, "  \"rows_per_measurement\": %zu,\n", kRowsPerMeasurement);
  std::fprintf(f, "  \"eval_rows_per_sec\": {");
  for (size_t i = 0; i <= last; ++i)
    std::fprintf(f, "%s\"%zu\": %.1f", i ? ", " : "", sizes[i], eval_rps[i]);
  std::fprintf(f, "},\n  \"compare_cells_per_sec\": {");
  for (size_t i = 0; i <= last; ++i)
    std::fprintf(f, "%s\"%zu\": %.1f", i ? ", " : "", sizes[i], cmp_cps[i]);
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"eval_speedup_256_vs_1\": %.3f,\n", eval_speedup);
  std::fprintf(f, "  \"compare_speedup_256_vs_1\": %.3f\n}\n", cmp_speedup);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace aedb::enclave

int main(int argc, char** argv) {
  std::string sweep_json = "BENCH_batch.json";
  bool sweep_only = false;
  // Strip our flags before handing argv to Google Benchmark.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--sweep-json=", 0) == 0) {
      sweep_json = arg.substr(13);
    } else if (arg == "--sweep-only") {
      sweep_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!sweep_only) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return aedb::enclave::RunBatchSweep(sweep_json);
}
