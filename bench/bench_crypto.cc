// Microbenchmarks for the cell-encryption substrate (§2.3 ablation): the
// AEAD_AES_256_CBC_HMAC_SHA_256 codec in both schemes, plus the primitives.
// Every benchmark's last argument picks the block kernels: 0 the portable
// ones, 1 the ones this CPU selected (printed in the context header).

#include <benchmark/benchmark.h>

#include <string>

#include "crypto/aes.h"
#include "crypto/cell_codec.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"

namespace aedb::crypto {
namespace {

const internal::Kernels& KernelsArg(const benchmark::State& state, int arg) {
  return state.range(arg) == 0 ? internal::kPortableKernels
                               : internal::CpuKernels();
}

std::string SelectedSha256() {
  return internal::CpuHasShaNi() ? "sha-ni" : "portable";
}

std::string SelectedAes() {
  return internal::CpuHasAesNi() ? "aes-ni" : "portable";
}

std::string KernelLabel(const benchmark::State& state, int arg) {
  if (state.range(arg) == 0) return "portable";
  return "cpu: " + SelectedSha256() + "+" + SelectedAes();
}

void BM_Sha256Block(benchmark::State& state) {
  const internal::Kernels& kernels = KernelsArg(state, 0);
  Bytes block = SecureRandom(Sha256::kBlockSize);
  uint32_t h[8] = {};
  for (auto _ : state) {
    kernels.sha256_blocks(h, block.data(), 1);
    benchmark::DoNotOptimize(h);
    benchmark::ClobberMemory();
  }
  state.SetLabel(KernelLabel(state, 0));
  state.SetBytesProcessed(state.iterations() * Sha256::kBlockSize);
}
BENCHMARK(BM_Sha256Block)->Arg(0)->Arg(1);

void BM_Sha256(benchmark::State& state) {
  internal::ScopedKernels kernels(KernelsArg(state, 1));
  Bytes data = SecureRandom(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetLabel(KernelLabel(state, 1));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->ArgsProduct({{64, 1024, 8192}, {0, 1}});

void BM_HmacSha256(benchmark::State& state) {
  internal::ScopedKernels kernels(KernelsArg(state, 1));
  Bytes key = SecureRandom(32);
  Bytes data = SecureRandom(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256::Mac(key, data));
  }
  state.SetLabel(KernelLabel(state, 1));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->ArgsProduct({{64, 1024}, {0, 1}});

void BM_Aes256Encrypt(benchmark::State& state) {
  internal::ScopedKernels kernels(KernelsArg(state, 0));
  Bytes key = SecureRandom(32);
  Aes256 aes(key);
  uint8_t in[16], out[16];
  SecureRandom(in, 16);
  for (auto _ : state) {
    aes.EncryptBlock(in, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetLabel(KernelLabel(state, 0));
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes256Encrypt)->Arg(0)->Arg(1);

void BM_Aes256Decrypt(benchmark::State& state) {
  internal::ScopedKernels kernels(KernelsArg(state, 0));
  Bytes key = SecureRandom(32);
  Aes256 aes(key);
  uint8_t in[16], out[16];
  SecureRandom(in, 16);
  for (auto _ : state) {
    aes.DecryptBlock(in, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetLabel(KernelLabel(state, 0));
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes256Decrypt)->Arg(0)->Arg(1);

void BM_CellEncrypt(benchmark::State& state) {
  internal::ScopedKernels kernels(KernelsArg(state, 2));
  Bytes cek = SecureRandom(32);
  CellCodec codec(cek);
  Bytes plain = SecureRandom(static_cast<size_t>(state.range(0)));
  auto scheme = state.range(1) == 0 ? EncryptionScheme::kDeterministic
                                    : EncryptionScheme::kRandomized;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encrypt(plain, scheme));
  }
  state.SetLabel(std::string(EncryptionSchemeName(scheme)) + ", " +
                 KernelLabel(state, 2));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CellEncrypt)->ArgsProduct({{16, 256}, {0, 1}, {0, 1}});

void BM_CellDecrypt(benchmark::State& state) {
  internal::ScopedKernels kernels(KernelsArg(state, 1));
  Bytes cek = SecureRandom(32);
  CellCodec codec(cek);
  Bytes cell = codec.Encrypt(SecureRandom(static_cast<size_t>(state.range(0))),
                             EncryptionScheme::kRandomized);
  for (auto _ : state) {
    auto r = codec.Decrypt(cell);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(KernelLabel(state, 1));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CellDecrypt)->ArgsProduct({{16, 256}, {0, 1}});

}  // namespace
}  // namespace aedb::crypto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // What this process's Sha256 and Aes256 run on outside the benchmarks
  // that pin the portable kernels.
  benchmark::AddCustomContext("sha256_kernel", aedb::crypto::SelectedSha256());
  benchmark::AddCustomContext("aes_kernel", aedb::crypto::SelectedAes());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
