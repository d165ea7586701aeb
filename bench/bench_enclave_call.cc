// §4.6 ablation: synchronous enclave calls (one call-gate transition per
// morsel) vs the queued worker-thread design with spin-polling, at a
// realistic VBS transition cost, across morsel sizes. Every case crosses the
// call gate through the batch entry points; a morsel of one row (or one
// cell) is the row-at-a-time system.
//
// Every evaluated morsel has the shape of a scan's: a column of distinct
// RND cells, one per row, and the parameter as a one-value column that every
// row shares.
//
// Besides the Google Benchmark suite, the binary repeats a batch-size sweep
// at transition_cost_ns = 5000 and writes the median and min-max per size
// to BENCH_batch.json (override with --sweep-json=PATH; --sweep-only skips
// the gbench suite).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

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
  std::vector<Bytes> column_cells;  // distinct per row

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
    for (int i = 0; i < 256; ++i) {
      column_cells.push_back(
          codec.Encrypt(Value::String("NAME" + std::to_string(i)).Encode(),
                        crypto::EncryptionScheme::kRandomized));
    }
  }

  /// The columns of `n` rows comparing a distinct column cell with the
  /// parameter cell_a, a one-value column.
  es::Columns MorselColumns(size_t n) const {
    es::Columns columns(2);
    columns[0].reserve(n);
    for (size_t i = 0; i < n; ++i) {
      columns[0].push_back(
          Value::Binary(column_cells[i % column_cells.size()]));
    }
    columns[1].push_back(Value::Binary(cell_a));
    return columns;
  }
};

void BM_WorkerPoolEval(benchmark::State& state) {
  static Rig* rig = new Rig(3000);
  static EnclaveWorkerPool* pool = [] {
    EnclaveWorkerPool::Options opts;
    opts.num_threads = static_cast<int>(2);
    return new EnclaveWorkerPool(rig->enclave.get(), opts);
  }();
  const es::Columns columns = rig->MorselColumns(1);
  const es::Morsel morsel = es::Morsel::Of(1, columns);
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
  const es::Columns columns = rig->MorselColumns(n);
  const es::Morsel morsel = es::Morsel::Of(n, columns);
  for (auto _ : state) {
    auto r = rig->enclave->EvalRegisteredBatch(rig->handle, morsel);
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
// for batch sizes 1..256, repeated kSweeps times; the median and min-max per
// size go to a JSON file. Batch size 1 sends morsels of one, so it is the
// row-at-a-time system.

double EvalRowsPerSec(Rig& rig, size_t batch, size_t total_rows) {
  const es::Columns columns = rig.MorselColumns(batch);
  const es::Morsel morsel = es::Morsel::Of(batch, columns);
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

/// Median, min and max of one measurement over the sweeps.
struct Spread {
  double median = 0, min = 0, max = 0;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  double median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return Spread{median, v.front(), v.back()};
}

void WriteSpread(FILE* f, const Spread& s, int decimals) {
  std::fprintf(f, "{\"median\": %.*f, \"min\": %.*f, \"max\": %.*f}",
               decimals, s.median, decimals, s.min, decimals, s.max);
}

int RunBatchSweep(const std::string& json_path) {
  constexpr uint64_t kTransitionNs = 5000;  // acceptance-criteria setting
  constexpr size_t kRowsPerMeasurement = 4096;
  // One measurement takes about 10 ms, so one sweep can land on a noisy
  // stretch of a shared host: repeat it and report the spread.
  constexpr int kSweeps = 9;
  constexpr double kAcceptance = 3.0;  // median speedup at 256 vs 1
  const std::vector<size_t> sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const size_t last = sizes.size() - 1;

  Rig rig(kTransitionNs);
  // Warm up code paths and caches.
  (void)EvalRowsPerSec(rig, 256, 512);
  (void)CompareCellsPerSec(rig, 64, 512);

  // [size][sweep]; speedups are paired within a sweep.
  std::vector<std::vector<double>> eval_rps(sizes.size());
  std::vector<std::vector<double>> cmp_cps(sizes.size());
  std::vector<double> eval_speedups, cmp_speedups;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      double e = EvalRowsPerSec(rig, sizes[i], kRowsPerMeasurement);
      double c = CompareCellsPerSec(rig, sizes[i], kRowsPerMeasurement);
      if (e < 0 || c < 0) {
        std::fprintf(stderr, "sweep failed at batch %zu\n", sizes[i]);
        return 1;
      }
      eval_rps[i].push_back(e);
      cmp_cps[i].push_back(c);
    }
    eval_speedups.push_back(eval_rps[last].back() /
                            std::max(1.0, eval_rps[0].back()));
    cmp_speedups.push_back(cmp_cps[last].back() /
                           std::max(1.0, cmp_cps[0].back()));
  }

  std::printf("\nbatch sweep (transition_cost_ns=%llu, %zu rows/measurement, "
              "%d sweeps: median [min-max])\n",
              static_cast<unsigned long long>(kTransitionNs),
              kRowsPerMeasurement, kSweeps);
  std::printf("%6s %32s %32s\n", "batch", "eval rows/s", "compare cells/s");
  std::vector<Spread> eval(sizes.size()), cmp(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    eval[i] = SpreadOf(eval_rps[i]);
    cmp[i] = SpreadOf(cmp_cps[i]);
    std::printf("%6zu %10.0f [%8.0f-%8.0f] %10.0f [%8.0f-%8.0f]\n", sizes[i],
                eval[i].median, eval[i].min, eval[i].max, cmp[i].median,
                cmp[i].min, cmp[i].max);
  }
  const Spread eval_speedup = SpreadOf(eval_speedups);
  const Spread cmp_speedup = SpreadOf(cmp_speedups);
  const bool met = eval_speedup.median >= kAcceptance &&
                   cmp_speedup.median >= kAcceptance;
  std::printf("speedup at batch %zu vs 1, median [min-max] of %d sweeps: "
              "eval %.2fx [%.2f-%.2f], compare %.2fx [%.2f-%.2f] "
              "(acceptance: median >= %.0fx: %s)\n",
              sizes[last], kSweeps, eval_speedup.median, eval_speedup.min,
              eval_speedup.max, cmp_speedup.median, cmp_speedup.min,
              cmp_speedup.max, kAcceptance, met ? "met" : "NOT met");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_enclave_call batch sweep\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"transition_cost_ns\": %llu,\n",
               static_cast<unsigned long long>(kTransitionNs));
  std::fprintf(f, "  \"rows_per_measurement\": %zu,\n", kRowsPerMeasurement);
  std::fprintf(f, "  \"sweeps\": %d,\n", kSweeps);
  std::fprintf(f,
               "  \"morsel\": \"eval: a column of distinct RND cells, one "
               "per row, against a one-value RND parameter column every row "
               "shares; compare: one probe against the batch's cells\",\n");
  std::fprintf(f, "  \"eval_rows_per_sec\": {");
  for (size_t i = 0; i <= last; ++i) {
    std::fprintf(f, "%s\n    \"%zu\": ", i ? "," : "", sizes[i]);
    WriteSpread(f, eval[i], 1);
  }
  std::fprintf(f, "\n  },\n  \"compare_cells_per_sec\": {");
  for (size_t i = 0; i <= last; ++i) {
    std::fprintf(f, "%s\n    \"%zu\": ", i ? "," : "", sizes[i]);
    WriteSpread(f, cmp[i], 1);
  }
  std::fprintf(f, "\n  },\n  \"eval_speedup_256_vs_1\": ");
  WriteSpread(f, eval_speedup, 3);
  std::fprintf(f, ",\n  \"compare_speedup_256_vs_1\": ");
  WriteSpread(f, cmp_speedup, 3);
  std::fprintf(f, ",\n  \"acceptance\": \"median speedup at 256 vs 1 >= %.0fx\",\n",
               kAcceptance);
  std::fprintf(f, "  \"acceptance_met\": %s\n}\n", met ? "true" : "false");
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
