// §3.1 ablation: B+-tree cost with plaintext ordering vs DET ciphertext
// ordering vs enclave-routed comparisons on RND ciphertext. Reports both
// time and comparator invocations (each an enclave call for RND).

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "crypto/drbg.h"
#include "enclave/enclave.h"
#include "storage/btree.h"
#include "storage/sim_fs.h"
#include "types/value.h"

namespace aedb::storage {
namespace {

using types::Value;

/// A buffer pool over a simulated disk for a standalone tree.
struct SimPool {
  SimFs fs;
  FilePageStore store{&fs, "pages"};
  BufferPool pool{&store, 0};
};

class PlainValueComparator : public Comparator {
 public:
  Result<int> Compare(Slice a, Slice b) const override {
    size_t off = 0;
    Value va, vb;
    AEDB_ASSIGN_OR_RETURN(va, Value::Decode(a, &off));
    off = 0;
    AEDB_ASSIGN_OR_RETURN(vb, Value::Decode(b, &off));
    return va.Compare(vb);
  }
  const char* Name() const override { return "plain"; }
};

class EnclaveRoutedComparator : public Comparator {
 public:
  EnclaveRoutedComparator(enclave::Enclave* enclave, uint32_t cek)
      : enclave_(enclave), cek_(cek) {}
  Result<int> Compare(Slice a, Slice b) const override {
    std::vector<int> c;
    AEDB_ASSIGN_OR_RETURN(c, enclave_->CompareCellsBatch(cek_, a, {b}));
    return c[0];
  }
  const char* Name() const override { return "enclave"; }

 private:
  enclave::Enclave* enclave_;
  uint32_t cek_;
};

struct EnclaveRig {
  crypto::RsaPrivateKey author;
  std::unique_ptr<enclave::VbsPlatform> platform;
  std::unique_ptr<enclave::Enclave> enclave;
  Bytes cek = crypto::SecureRandom(32);

  EnclaveRig() {
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("idx-bench")));
    author = crypto::GenerateRsaKey(1024, &drbg);
    platform = std::make_unique<enclave::VbsPlatform>("boot");
    enclave = std::move(platform->LoadEnclave(
                            enclave::EnclaveImage::MakeEsImage(1, author),
                            enclave::EnclaveConfig{}))
                  .value();
    crypto::DhKeyPair dh = crypto::GenerateDhKeyPair(&drbg);
    auto resp = enclave->CreateSession(crypto::DhPublicKeyBytes(dh));
    Bytes secret =
        *crypto::DhComputeSharedSecret(dh.private_key, resp->enclave_dh_public);
    crypto::CellCodec channel(secret);
    Bytes body;
    PutU64(&body, 0);
    PutU32(&body, 1);
    PutU32(&body, 1);
    PutLengthPrefixed(&body, cek);
    (void)enclave->InstallCeks(
        resp->session_id, 0,
        channel.Encrypt(body, crypto::EncryptionScheme::kRandomized));
  }
};

EnclaveRig& Rig() {
  static EnclaveRig* rig = new EnclaveRig();
  return *rig;
}

enum class KeyMode { kPlain, kDet, kRndEnclave };

Bytes MakeKey(KeyMode mode, int64_t v) {
  Value value = Value::Int64(v);
  switch (mode) {
    case KeyMode::kPlain:
      return value.Encode();
    case KeyMode::kDet: {
      static crypto::CellCodec* codec = new crypto::CellCodec(Rig().cek);
      return codec->Encrypt(value.Encode(),
                            crypto::EncryptionScheme::kDeterministic);
    }
    case KeyMode::kRndEnclave: {
      static crypto::CellCodec* codec = new crypto::CellCodec(Rig().cek);
      return codec->Encrypt(value.Encode(),
                            crypto::EncryptionScheme::kRandomized);
    }
  }
  return {};
}

std::unique_ptr<Comparator> MakeComparator(KeyMode mode) {
  switch (mode) {
    case KeyMode::kPlain:
      return std::make_unique<PlainValueComparator>();
    case KeyMode::kDet:
      return std::make_unique<BinaryComparator>();
    case KeyMode::kRndEnclave:
      return std::make_unique<EnclaveRoutedComparator>(Rig().enclave.get(), 1);
  }
  return nullptr;
}

const char* ModeName(KeyMode m) {
  switch (m) {
    case KeyMode::kPlain: return "plaintext-range";
    case KeyMode::kDet: return "DET-equality(ciphertext order)";
    case KeyMode::kRndEnclave: return "RND-range(enclave order)";
  }
  return "?";
}

void BM_IndexBuild(benchmark::State& state) {
  KeyMode mode = static_cast<KeyMode>(state.range(0));
  int n = static_cast<int>(state.range(1));
  std::vector<Bytes> keys;
  aedb::Xoshiro256 rng(7);
  for (int i = 0; i < n; ++i) keys.push_back(MakeKey(mode, rng.Uniform(0, 1 << 20)));
  uint64_t comparisons = 0;
  for (auto _ : state) {
    auto cmp = MakeComparator(mode);
    SimPool sim;
    BTree tree(cmp.get(), false, &sim.pool);
    for (int i = 0; i < n; ++i) {
      auto r = tree.Insert(keys[i], Rid{0, static_cast<uint16_t>(i)});
      benchmark::DoNotOptimize(r);
    }
    comparisons = tree.comparisons();
  }
  state.SetLabel(std::string(ModeName(mode)) + ", " +
                 std::to_string(comparisons) + " comparisons/build");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexBuild)
    ->Args({0, 2000})
    ->Args({1, 2000})
    ->Args({2, 2000})
    ->Unit(benchmark::kMillisecond);

void BM_IndexSeek(benchmark::State& state) {
  KeyMode mode = static_cast<KeyMode>(state.range(0));
  int n = 4000;
  auto cmp = MakeComparator(mode);
  SimPool sim;
  BTree tree(cmp.get(), false, &sim.pool);
  aedb::Xoshiro256 rng(7);
  std::vector<Bytes> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back(MakeKey(mode, i));
    (void)tree.Insert(keys.back(), Rid{0, static_cast<uint16_t>(i % 1000)});
  }
  uint64_t before = tree.comparisons();
  uint64_t seeks = 0;
  for (auto _ : state) {
    auto r = tree.SeekEqual(keys[rng.Uniform(0, n - 1)]);
    benchmark::DoNotOptimize(r);
    ++seeks;
  }
  state.SetLabel(std::string(ModeName(mode)) + ", " +
                 std::to_string((tree.comparisons() - before) / seeks) +
                 " comparisons/seek");
}
BENCHMARK(BM_IndexSeek)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aedb::storage

BENCHMARK_MAIN();
