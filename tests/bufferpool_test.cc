#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "common/random.h"
#include "crypto/drbg.h"
#include "fault/fault.h"
#include "server/router.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/engine.h"
#include "storage/heap_table.h"
#include "storage/sim_fs.h"
#include "storage/torture.h"
#include "storage/wal.h"
#include "temp_dir.h"
#include "tpcc/tpcc.h"

namespace aedb::storage {
namespace {

using testing::TempDir;

Bytes B(std::string_view s) { return Slice(s).ToBytes(); }

/// Deterministic per-page fill byte so any cross-page corruption is visible.
uint8_t FillByte(uint32_t object_id, uint32_t page_no) {
  return static_cast<uint8_t>((object_id * 31 + page_no * 7 + 5) % 251);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().Reset(); }
  void TearDown() override { fault::FaultRegistry::Global().Reset(); }
};

TEST_F(BufferPoolTest, PinCreateWriteReadBack) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  uint32_t obj = pool.NewObject();

  {
    auto pin = pool.Pin(PageId{obj, 0}, /*create=*/true);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    std::memset(pin->data(), FillByte(obj, 0), Page::kPageSize);
    pin->MarkDirty();
  }
  // Still cached: a re-pin is a hit and sees the bytes.
  auto again = pool.Pin(PageId{obj, 0}, /*create=*/false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[17], FillByte(obj, 0));
  again->Release();
  EXPECT_FALSE(again->holds());

  BufferPoolStats stats = pool.stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
  // A page the store never saw is NotFound without create.
  EXPECT_FALSE(pool.Pin(PageId{obj, 99}, /*create=*/false).ok());
}

TEST_F(BufferPoolTest, EvictionRoundTripsThroughStore) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  uint32_t obj = pool.NewObject();
  const uint32_t kPages = 4 * BufferPool::kMinPages;

  for (uint32_t p = 0; p < kPages; ++p) {
    auto pin = pool.Pin(PageId{obj, p}, /*create=*/true);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    std::memset(pin->data(), FillByte(obj, p), Page::kPageSize);
    pin->MarkDirty();
  }
  // Everything earlier than the last kMinPages pages was evicted (written
  // back, since every page is dirty) and must fault back in byte-exact.
  for (uint32_t p = 0; p < kPages; ++p) {
    auto pin = pool.Pin(PageId{obj, p}, /*create=*/false);
    ASSERT_TRUE(pin.ok()) << "page " << p << ": " << pin.status().ToString();
    EXPECT_EQ(pin->data()[0], FillByte(obj, p)) << "page " << p;
    EXPECT_EQ(pin->data()[Page::kPageSize - 1], FillByte(obj, p));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.writebacks, 0u);
  EXPECT_LE(stats.pinned_highwater, BufferPool::kMinPages);
}

TEST_F(BufferPoolTest, AllPinnedPoolRefusesThenRecovers) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  uint32_t obj = pool.NewObject();

  std::vector<PinnedPage> held;
  for (uint32_t p = 0; p < BufferPool::kMinPages; ++p) {
    auto pin = pool.Pin(PageId{obj, p}, /*create=*/true);
    ASSERT_TRUE(pin.ok());
    held.push_back(std::move(*pin));
  }
  EXPECT_EQ(pool.pinned(), BufferPool::kMinPages);

  // Every frame pinned: one more Pin must wait, then fail typed — but a
  // concurrent unpin rescues it. Release one pin from another thread while
  // the Pin call is blocked.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    held.back().Release();
  });
  auto rescued = pool.Pin(PageId{obj, BufferPool::kMinPages}, /*create=*/true);
  releaser.join();
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  rescued->Release();

  // DropObject while frames are still pinned: it succeeds, store pages are
  // deleted immediately, and the pinned frames are doomed — even a stale
  // holder re-dirtying its pin afterwards must never write a dead object's
  // page back to the store.
  for (auto& pin : held) {
    if (!pin.holds()) continue;
    std::memset(pin.data(), 0xee, 16);
    pin.MarkDirty();
  }
  ASSERT_TRUE(pool.DropObject(obj).ok());
  for (auto& pin : held) {
    if (pin.holds()) {
      pin.MarkDirty();  // stale holder touches its doomed frame post-drop
      break;
    }
  }
  // A flusher pass must skip the doomed frames. Once it has landed another
  // object's dirty page, it has walked them too.
  const uint32_t marker = pool.NewObject();
  {
    auto pin = pool.Pin(PageId{marker, 0}, /*create=*/true);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    pin->MarkDirty();
  }
  pool.StartFlusher(/*interval_ms=*/1);
  Bytes marker_img(Page::kPageSize, 0);
  Status flushed = Status::NotFound("never");
  for (int i = 0; i < 1000 && !flushed.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    flushed = store.Read(PageId{marker, 0}, marker_img.data());
  }
  pool.StopFlusher();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  held.clear();
  EXPECT_EQ(pool.pinned(), 0u);
  Bytes img(Page::kPageSize, 0);
  EXPECT_TRUE(store.Read(PageId{obj, 0}, img.data()).IsNotFound());
  // Dropped pages are gone from the cache too...
  EXPECT_FALSE(pool.Pin(PageId{obj, 0}, /*create=*/false).ok());
  // ...and every doomed frame was reclaimed at its final unpin: a fresh
  // object can pin the entire pool without leaking a single frame.
  uint32_t obj2 = pool.NewObject();
  std::vector<PinnedPage> refill;
  for (uint32_t p = 0; p < BufferPool::kMinPages; ++p) {
    auto pin = pool.Pin(PageId{obj2, p}, /*create=*/true);
    ASSERT_TRUE(pin.ok()) << "frame leaked: " << pin.status().ToString();
    refill.push_back(std::move(*pin));
  }
}

TEST_F(BufferPoolTest, EvictFaultFailsPinAndLeavesVictimCached) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  uint32_t obj = pool.NewObject();
  for (uint32_t p = 0; p < BufferPool::kMinPages; ++p) {
    auto pin = pool.Pin(PageId{obj, p}, /*create=*/true);
    ASSERT_TRUE(pin.ok());
    std::memset(pin->data(), FillByte(obj, p), Page::kPageSize);
    pin->MarkDirty();
  }

  fault::FaultRegistry::Global().Arm(
      "pool/evict", fault::FaultSpec::OneShot(Status::Internal("evict io")));
  auto faulted = pool.Pin(PageId{obj, 1000}, /*create=*/true);
  EXPECT_FALSE(faulted.ok());
  fault::FaultRegistry::Global().DisarmAll();

  // The victim was not half-evicted: every resident page still reads back.
  for (uint32_t p = 0; p < BufferPool::kMinPages; ++p) {
    auto pin = pool.Pin(PageId{obj, p}, /*create=*/false);
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(pin->data()[3], FillByte(obj, p));
  }
  // And the pool works again once the fault clears.
  EXPECT_TRUE(pool.Pin(PageId{obj, 1000}, /*create=*/true).ok());
}

TEST_F(BufferPoolTest, WritebackFaultFailsFlushThenSucceeds) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  uint32_t obj = pool.NewObject();
  {
    auto pin = pool.Pin(PageId{obj, 0}, /*create=*/true);
    ASSERT_TRUE(pin.ok());
    std::memset(pin->data(), 0x5a, Page::kPageSize);
    pin->MarkDirty();
  }

  fault::FaultRegistry::Global().Arm(
      "pool/writeback",
      fault::FaultSpec::OneShot(Status::Internal("store write io")));
  pool.StartFlusher(/*interval_ms=*/1);

  // The first flusher pass fails at the fault. The page stays dirty through
  // it, and a later pass lands it.
  Bytes img(Page::kPageSize, 0);
  Status read = Status::NotFound("never");
  for (int i = 0; i < 1000 && !read.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    read = store.Read(PageId{obj, 0}, img.data());
  }
  pool.StopFlusher();
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(fault::FaultRegistry::Global().fires("pool/writeback"), 1u);
  EXPECT_EQ(pool.stats().writebacks, 1u);
  EXPECT_EQ(img[100], 0x5a);
}

TEST_F(BufferPoolTest, BackgroundFlusherWritesDirtyPages) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  uint32_t obj = pool.NewObject();
  pool.StartFlusher(/*interval_ms=*/5);
  {
    auto pin = pool.Pin(PageId{obj, 0}, /*create=*/true);
    ASSERT_TRUE(pin.ok());
    std::memset(pin->data(), 0xc3, Page::kPageSize);
    pin->MarkDirty();
  }
  // The flusher, not an eviction, must land the page in the store.
  Bytes img(Page::kPageSize, 0);
  Status read = Status::NotFound("never");
  for (int i = 0; i < 500 && !read.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    read = store.Read(PageId{obj, 0}, img.data());
  }
  pool.StopFlusher();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(img[8], 0xc3);
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().writebacks, 0u);
}

/// The flusher must leave pinned frames alone: their holders mutate page
/// bytes under only the table latch, so a concurrent writeback could persist
/// a torn image — and a MarkDirty racing the dirty-bit clear would be lost.
TEST_F(BufferPoolTest, FlusherSkipsPinnedFramesAndKeepsThemDirty) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  uint32_t obj = pool.NewObject();
  pool.StartFlusher(/*interval_ms=*/2);

  auto pin = pool.Pin(PageId{obj, 0}, /*create=*/true);
  ASSERT_TRUE(pin.ok());
  std::memset(pin->data(), 0x7b, Page::kPageSize);
  pin->MarkDirty();
  // Many flusher cycles pass; the pinned frame never reaches the store.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Bytes img(Page::kPageSize, 0);
  EXPECT_TRUE(store.Read(PageId{obj, 0}, img.data()).IsNotFound());

  // The skip kept the dirty bit: after unpin the flusher lands the page.
  pin->Release();
  Status read = Status::NotFound("never");
  for (int i = 0; i < 500 && !read.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    read = store.Read(PageId{obj, 0}, img.data());
  }
  pool.StopFlusher();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(img[Page::kPageSize - 1], 0x7b);
  EXPECT_EQ(pool.stats().evictions, 0u);
}

/// Readers and writers over a working set several times the pool: eviction,
/// fault-in, and pin/unpin race under real concurrency (the TSan lane runs
/// this binary). Threads own disjoint pages, so any cross-thread corruption
/// is the pool's fault, not the test's.
TEST_F(BufferPoolTest, ConcurrentAccessWithPoolSmallerThanWorkingSet) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, BufferPool::kMinPages);
  constexpr int kThreads = 4;
  constexpr uint32_t kPagesPerThread = 16;  // 64 pages vs 8 frames
  std::vector<uint32_t> objects;
  for (int t = 0; t < kThreads; ++t) objects.push_back(pool.NewObject());

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uint32_t obj = objects[static_cast<size_t>(t)];
      Xoshiro256 rng(static_cast<uint64_t>(1000 + t));
      for (uint32_t p = 0; p < kPagesPerThread; ++p) {
        auto pin = pool.Pin(PageId{obj, p}, /*create=*/true);
        if (!pin.ok()) { ++failures; return; }
        std::memset(pin->data(), FillByte(obj, p), Page::kPageSize);
        pin->MarkDirty();
      }
      for (int i = 0; i < 400; ++i) {
        uint32_t p = static_cast<uint32_t>(
            rng.Uniform(0, static_cast<int64_t>(kPagesPerThread) - 1));
        auto pin = pool.Pin(PageId{obj, p}, /*create=*/false);
        if (!pin.ok()) { ++failures; return; }
        if (pin->data()[0] != FillByte(obj, p) ||
            pin->data()[Page::kPageSize / 2] != FillByte(obj, p)) {
          ++failures;
          return;
        }
        if (i % 3 == 0) {  // rewrite (same pattern) to keep dirty churn up
          std::memset(pin->data(), FillByte(obj, p), Page::kPageSize);
          pin->MarkDirty();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(pool.stats().evictions, 0u);
}

/// Dropping an object frees its frames' buffers, the doomed ones at their
/// final unpin. Otherwise each object dropped and re-created (every table
/// and index at each recovery) claims fresh frames, as the clock hand
/// prefers an unused frame to a freed one, until all of them hold memory.
TEST_F(BufferPoolTest, DropObjectReleasesFrameBuffers) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool pool(&store, 0);  // default capacity: far more frames than pages
  for (int round = 0; round < 50; ++round) {
    const uint32_t obj = pool.NewObject();
    PinnedPage held;
    for (uint32_t p = 0; p < 8; ++p) {
      auto pin = pool.Pin(PageId{obj, p}, /*create=*/true);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      pin->MarkDirty();
      if (p == 0) held = std::move(*pin);
    }
    EXPECT_EQ(pool.stats().buffers, 8u);
    ASSERT_TRUE(pool.DropObject(obj).ok());
    EXPECT_EQ(pool.stats().buffers, 1u) << "round " << round;  // `held`
  }
  EXPECT_EQ(pool.stats().buffers, 0u);
}

// --- paged structures behave exactly like unbounded ones ---

TEST_F(BufferPoolTest, HeapTableTinyPoolMatchesUnbounded) {
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool tiny(&store, BufferPool::kMinPages);
  HeapTable paged(&tiny);
  FilePageStore big_store(&fs, "pages-unbounded");
  BufferPool big(&big_store, 0);  // default capacity
  HeapTable unbounded(&big);

  Xoshiro256 rng(11);
  std::vector<Rid> rids_a, rids_b;
  for (int i = 0; i < 1500; ++i) {
    size_t len = static_cast<size_t>(rng.Uniform(1, 300));
    Bytes rec(len, static_cast<uint8_t>(i % 251));
    auto ra = paged.Insert(rec);
    auto rb = unbounded.Insert(rec);
    ASSERT_TRUE(ra.ok() && rb.ok());
    // Placement must be identical: the pool is invisible to layout.
    EXPECT_EQ(ra->page, rb->page);
    EXPECT_EQ(ra->slot, rb->slot);
    rids_a.push_back(*ra);
    rids_b.push_back(*rb);
  }
  for (size_t i = 0; i < rids_a.size(); i += 3) {
    ASSERT_TRUE(paged.Delete(rids_a[i]).ok());
    ASSERT_TRUE(unbounded.Delete(rids_b[i]).ok());
  }
  EXPECT_EQ(paged.live_rows(), unbounded.live_rows());
  EXPECT_EQ(paged.page_count(), unbounded.page_count());

  std::vector<std::pair<uint64_t, Bytes>> scan_a, scan_b;
  ASSERT_TRUE(paged
                  .Scan([&](const Rid& rid, Slice rec) {
                    scan_a.emplace_back(rid.Encode(), rec.ToBytes());
                    return true;
                  })
                  .ok());
  ASSERT_TRUE(unbounded
                  .Scan([&](const Rid& rid, Slice rec) {
                    scan_b.emplace_back(rid.Encode(), rec.ToBytes());
                    return true;
                  })
                  .ok());
  EXPECT_EQ(scan_a, scan_b);
  EXPECT_GT(tiny.stats().evictions, 0u);
}

TEST_F(BufferPoolTest, BTreeTinyPoolMatchesUnbounded) {
  BinaryComparator cmp;
  SimFs fs;
  FilePageStore store(&fs, "pages");
  BufferPool tiny(&store, BufferPool::kMinPages);
  BTree paged(&cmp, /*unique=*/false, &tiny);
  FilePageStore big_store(&fs, "pages-unbounded");
  BufferPool big(&big_store, 0);  // default capacity
  BTree unbounded(&cmp, /*unique=*/false, &big);

  Xoshiro256 rng(23);
  std::vector<std::pair<std::string, uint16_t>> entries;
  for (int i = 0; i < 3000; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%06d",
             static_cast<int>(rng.Uniform(0, 99999)));
    uint16_t slot = static_cast<uint16_t>(rng.Uniform(0, 9999));
    ASSERT_TRUE(paged.Insert(B(buf), Rid{0, slot}).ok());
    ASSERT_TRUE(unbounded.Insert(B(buf), Rid{0, slot}).ok());
    entries.emplace_back(buf, slot);
  }
  for (size_t i = 0; i < entries.size(); i += 4) {
    auto da = paged.Delete(B(entries[i].first), Rid{0, entries[i].second});
    auto db = unbounded.Delete(B(entries[i].first), Rid{0, entries[i].second});
    ASSERT_TRUE(da.ok() && db.ok());
    EXPECT_EQ(*da, *db);
  }
  ASSERT_EQ(paged.size(), unbounded.size());

  auto ia = paged.Begin();
  auto ib = unbounded.Begin();
  while (ia.Valid() && ib.Valid()) {
    auto ka = ia.key();
    auto kb = ib.key();
    ASSERT_TRUE(ka.ok() && kb.ok());
    ASSERT_EQ(*ka, *kb);
    ASSERT_EQ(ia.rid().Encode(), ib.rid().Encode());
    ia.Next();
    ib.Next();
  }
  EXPECT_FALSE(ia.Valid());
  EXPECT_FALSE(ib.Valid());

  for (size_t i = 1; i < entries.size(); i += 97) {
    auto ra = paged.SeekEqual(B(entries[i].first));
    auto rb = unbounded.SeekEqual(B(entries[i].first));
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->size(), rb->size());
  }
  EXPECT_GT(tiny.stats().evictions, 0u);
}

// --- group commit ---

constexpr uint32_t kTable = 1;

TEST_F(BufferPoolTest, GroupCommitAmortizesFsyncsAndLosesNothing) {
  TempDir dir;
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;

  // A real disk: cohorts form while a leader's fsync takes real time.
  auto disk = std::make_shared<PosixFs>();
  EngineOptions opts;
  opts.group_commit_window_us = 200;
  StorageEngine engine(opts, disk, dir.path());
  ASSERT_TRUE(engine.CreateTable(kTable).ok());
  ASSERT_TRUE(engine.Open().ok());

  std::vector<std::thread> committers;
  std::atomic<int> hard_errors{0};
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        uint64_t txn = engine.Begin();
        std::string row = "t" + std::to_string(t) + "-" + std::to_string(i);
        auto rid = engine.HeapInsert(txn, kTable, B(row));
        if (!rid.ok() || !engine.Commit(txn).ok()) {
          ++hard_errors;
          return;
        }
      }
    });
  }
  for (auto& c : committers) c.join();
  ASSERT_EQ(hard_errors.load(), 0);

  const uint64_t requests = engine.wal().sync_requests();
  const uint64_t batches = engine.wal().group_commit_batches();
  EXPECT_EQ(requests, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  ASSERT_GT(batches, 0u);
  EXPECT_LT(batches, requests);  // at least some cohorts formed
  EXPECT_GT(static_cast<double>(requests) / static_cast<double>(batches), 1.5);

  // Every acked commit is durable: a fresh engine recovering from the file
  // sees all of them.
  StorageEngine fresh(EngineOptions{}, std::make_shared<PosixFs>(),
                      dir.path());
  ASSERT_TRUE(fresh.CreateTable(kTable).ok());
  Status load = fresh.Open();
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_EQ(fresh.wal().torn_bytes_dropped(), 0u);
  auto recovered = fresh.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(fresh.table(kTable)->live_rows(),
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
}

TEST_F(BufferPoolTest, SingleCommitterGroupCommitIsJustSync) {
  EngineOptions opts;  // window 0: pure natural batching, no linger
  StorageEngine engine(opts);
  ASSERT_TRUE(engine.CreateTable(kTable).ok());
  for (int i = 0; i < 5; ++i) {
    uint64_t txn = engine.Begin();
    ASSERT_TRUE(engine.HeapInsert(txn, kTable, B("r" + std::to_string(i))).ok());
    ASSERT_TRUE(engine.Commit(txn).ok());
  }
  // Alone, every commit is its own cohort: ratio exactly 1.
  EXPECT_EQ(engine.wal().sync_requests(), 5u);
  EXPECT_EQ(engine.wal().group_commit_batches(), 5u);
}

/// LoadImage (the reopen-after-crash path) can rewind the LSN space; the
/// fsync watermark must rewind with it, or SyncUpTo on records minted at
/// reused LSNs would skip the fsync — a silent durability hole.
TEST_F(BufferPoolTest, LoadImageResetsTheGroupCommitBarrier) {
  SimFs fs;
  Wal wal(&fs, "wal.log");
  ASSERT_TRUE(wal.Open().ok());
  LogRecord rec;
  rec.txn_id = 1;
  rec.type = LogRecordType::kBegin;
  auto lsn = wal.Append(rec);
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE(wal.SyncUpTo(*lsn).ok());
  const uint64_t fsyncs_before = wal.fsyncs();

  wal.LoadImage(Bytes());  // empty image: next_lsn_ rewinds to 1
  LogRecord rec2;
  rec2.txn_id = 2;
  rec2.type = LogRecordType::kBegin;
  auto lsn2 = wal.Append(rec2);
  ASSERT_TRUE(lsn2.ok()) << lsn2.status().ToString();
  ASSERT_LE(*lsn2, *lsn);  // a stale watermark would claim this is durable
  ASSERT_TRUE(wal.SyncUpTo(*lsn2).ok());
  EXPECT_GT(wal.fsyncs(), fsyncs_before) << "barrier rode a stale watermark";
}

/// The crash-point matrix with group commit on: the acked prefix stays exact
/// at every boundary and torn cut (PR 7's invariant must survive the
/// batching refactor).
TEST_F(BufferPoolTest, GroupCommitCrashTortureStaysExact) {
  auto factory = [] {
    EngineOptions opts;
    opts.group_commit_window_us = 200;
    opts.pool_pages = BufferPool::kMinPages;  // paged storage under torture too
    auto engine = std::make_unique<StorageEngine>(opts);
    EXPECT_TRUE(engine->CreateTable(kTable).ok());
    return engine;
  };
  auto workload = [](StorageEngine* engine) -> Status {
    for (int round = 0; round < 5; ++round) {
      uint64_t txn = engine->Begin();
      Rid rid;
      AEDB_ASSIGN_OR_RETURN(
          rid, engine->HeapInsert(txn, kTable, B("gc-" + std::to_string(round))));
      if (round % 2 == 0) {
        AEDB_RETURN_IF_ERROR(engine->Commit(txn));
      } else {
        AEDB_RETURN_IF_ERROR(engine->Abort(txn));
      }
    }
    return Status::OK();
  };
  auto report = RunWalCrashTorture(factory, workload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GE(report->crash_points, 10u);
}

// --- end-to-end: TPC-C over a pool smaller than its data ---

class PagedTpccTest : public ::testing::Test {
 protected:
  struct Instance {
    std::unique_ptr<keys::InMemoryKeyVault> vault;
    keys::KeyProviderRegistry registry;
    crypto::RsaPrivateKey author_key;
    enclave::EnclaveImage image;
    std::unique_ptr<attestation::HostGuardianService> hgs;
    std::unique_ptr<server::Database> db;

    explicit Instance(uint64_t pool_pages) {
      vault = std::make_unique<keys::InMemoryKeyVault>();
      EXPECT_TRUE(vault->CreateKey("kv/tpcc-enclave", 1024).ok());
      EXPECT_TRUE(registry.Register(vault.get()).ok());
      crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                            Slice(std::string_view("pool-author")));
      author_key = crypto::GenerateRsaKey(1024, &drbg);
      image = enclave::EnclaveImage::MakeEsImage(1, author_key);
      hgs = std::make_unique<attestation::HostGuardianService>();
      server::ServerOptions opts;
      opts.engine.pool_pages = pool_pages;
      opts.engine.group_commit_window_us = 100;
      db = std::make_unique<server::Database>(opts, hgs.get(), &image);
      hgs->RegisterTcgLog(db->platform()->tcg_log());
    }

    std::unique_ptr<client::Driver> MakeDriver() {
      client::DriverOptions opts;
      opts.enclave_policy.trusted_author_id = image.AuthorId();
      return std::make_unique<client::Driver>(db.get(), &registry,
                                              hgs->signing_public(), opts);
    }
  };

  static tpcc::TpccConfig SmallConfig() {
    tpcc::TpccConfig config;
    config.warehouses = 1;
    config.customers_per_district = 12;
    config.districts_per_warehouse = 3;
    config.items = 40;
    config.initial_orders_per_district = 6;
    config.encryption = tpcc::Encryption::kPlaintext;
    return config;
  }

  /// Loads the schema/data and runs `txns` deterministic transactions on one
  /// terminal; returns scalar fingerprints of the final database state.
  static std::vector<double> RunAndFingerprint(Instance* inst,
                                               const tpcc::TpccConfig& config,
                                               int txns) {
    auto driver = inst->MakeDriver();
    tpcc::TpccLoader loader(driver.get(), config);
    Status schema = loader.CreateSchema();
    EXPECT_TRUE(schema.ok()) << schema.ToString();
    Status load = loader.Load();
    EXPECT_TRUE(load.ok()) << load.ToString();
    tpcc::TpccTerminal terminal(driver.get(), config, /*seed=*/77);
    for (int i = 0; i < txns; ++i) {
      Status st = terminal.RunOne();
      EXPECT_TRUE(st.ok()) << "txn " << i << ": " << st.ToString();
    }
    std::vector<double> fp;
    for (const char* q :
         {"SELECT SUM(D_YTD) FROM District", "SELECT SUM(D_NEXT_O_ID) FROM District",
          "SELECT SUM(W_YTD) FROM Warehouse", "SELECT COUNT(*) FROM Orders",
          "SELECT COUNT(*) FROM OrderLine", "SELECT COUNT(*) FROM NewOrder",
          "SELECT COUNT(*) FROM History", "SELECT SUM(O_ID) FROM Orders"}) {
      auto rows = driver->Query(q);
      EXPECT_TRUE(rows.ok()) << q << ": " << rows.status().ToString();
      if (!rows.ok() || rows->rows.empty()) {
        fp.push_back(-1);
        continue;
      }
      const types::Value& v = rows->rows[0][0];
      fp.push_back(v.AsDouble());
    }
    return fp;
  }
};

/// Same seed, same workload: a pool far smaller than the data must produce a
/// byte-identical final state to the unbounded run (the tentpole's "TPC-C
/// correct at scale exceeding pool size" acceptance, sized for tier-1).
TEST_F(PagedTpccTest, TinyPoolMatchesUnboundedRun) {
  tpcc::TpccConfig config = SmallConfig();
  Instance paged(/*pool_pages=*/2 * BufferPool::kMinPages);
  Instance unbounded(/*pool_pages=*/0);

  std::vector<double> fp_paged = RunAndFingerprint(&paged, config, 40);
  std::vector<double> fp_unbounded = RunAndFingerprint(&unbounded, config, 40);
  EXPECT_EQ(fp_paged, fp_unbounded);

  server::DatabaseStats stats = paged.db->Stats();
  EXPECT_GT(stats.pool_misses, 0u);
  EXPECT_GT(stats.pool_evictions, 0u) << "pool did not actually page";
  EXPECT_GT(stats.pool_hits, stats.pool_misses);  // locality still wins
}

/// The verify.sh --large-data lane: TPC-C at a scale whose working set is a
/// large multiple of the pool, with concurrent terminals. Self-skips unless
/// AEDB_RUN_LARGE_DATA=1 (too heavy for tier-1).
TEST_F(PagedTpccTest, LargeDataTpccExceedsPoolAndStaysCorrect) {
  const char* run = std::getenv("AEDB_RUN_LARGE_DATA");
  if (run == nullptr || std::string(run) != "1") {
    GTEST_SKIP() << "set AEDB_RUN_LARGE_DATA=1 to run (verify.sh --large-data)";
  }
  tpcc::TpccConfig config;
  config.warehouses = 2;
  config.customers_per_district = 40;
  config.districts_per_warehouse = 8;
  config.items = 200;
  config.initial_orders_per_district = 12;
  config.encryption = tpcc::Encryption::kPlaintext;

  Instance paged(/*pool_pages=*/2 * BufferPool::kMinPages);
  std::vector<double> fp_paged = RunAndFingerprint(&paged, config, 150);
  server::DatabaseStats stats = paged.db->Stats();
  EXPECT_GT(stats.pool_evictions, 1000u)
      << "working set not actually exceeding the pool";

  Instance unbounded(/*pool_pages=*/0);
  std::vector<double> fp_unbounded = RunAndFingerprint(&unbounded, config, 150);
  EXPECT_EQ(fp_paged, fp_unbounded);

  // Concurrency smoke at the same scale: 4 terminals, nothing hard-errors,
  // and commits amortize over fsync-free in-memory WAL barriers cleanly.
  Instance concurrent(/*pool_pages=*/2 * BufferPool::kMinPages);
  {
    auto loader_driver = concurrent.MakeDriver();
    tpcc::TpccLoader loader(loader_driver.get(), config);
    ASSERT_TRUE(loader.CreateSchema().ok());
    ASSERT_TRUE(loader.Load().ok());
  }
  tpcc::BenchcraftResult result = tpcc::RunBenchcraftCount(
      [&] { return concurrent.MakeDriver(); }, config, /*threads=*/4,
      /*target_committed=*/300, /*deadline_seconds=*/120);
  EXPECT_TRUE(result.first_error.empty()) << result.first_error;
  EXPECT_GE(result.committed, 300u);
  EXPECT_GT(concurrent.db->Stats().pool_evictions, 0u);
}

/// Shared-nothing pool isolation: every shard owns a private buffer pool, so
/// driving one shard far past its pool capacity must never evict (or disturb)
/// another shard's frames — the cold shard stays eviction-free and its data
/// stays readable and correct throughout.
TEST_F(PagedTpccTest, ShardedPoolsEvictIndependently) {
  crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                        Slice(std::string_view("shard-pool-author")));
  crypto::RsaPrivateKey author_key = crypto::GenerateRsaKey(1024, &drbg);
  enclave::EnclaveImage image = enclave::EnclaveImage::MakeEsImage(1, author_key);
  attestation::HostGuardianService hgs;

  server::ShardedOptions sopts;
  sopts.shards = 2;
  sopts.base.engine.pool_pages = BufferPool::kMinPages;
  sopts.base.engine.group_commit_window_us = 100;
  auto sharded =
      std::make_unique<server::ShardedDatabase>(std::move(sopts), &hgs, &image);
  for (uint32_t i = 0; i < sharded->shard_count(); ++i) {
    hgs.RegisterTcgLog(sharded->shard(i)->platform()->tcg_log());
  }
  ASSERT_TRUE(sharded->Open().ok());

  keys::KeyProviderRegistry registry;
  client::DriverOptions dopts;
  dopts.enclave_policy.trusted_author_id = image.AuthorId();
  client::Driver driver(sharded.get(), &registry, hgs.signing_public(), dopts);

  ASSERT_TRUE(
      driver.ExecuteDdl("CREATE TABLE Ledger (W_ID INT, SEQ INT, PAD VARCHAR)")
          .ok());

  // Warehouse 2 lives on shard 1: a small resident set that fits its pool.
  const std::string pad(256, 'x');
  for (int i = 0; i < 6; ++i) {
    auto r = driver.Query(
        "INSERT INTO Ledger (W_ID, SEQ, PAD) VALUES (@w, @s, @p)",
        {{"w", types::Value::Int32(2)},
         {"s", types::Value::Int32(i)},
         {"p", types::Value::String(pad)}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const uint64_t cold_evictions_before =
      sharded->shard(1)->Stats().pool_evictions;

  // Warehouse 1 lives on shard 0: hammer it until its working set is many
  // times the pool and eviction is certain.
  for (int i = 0; i < 600; ++i) {
    auto r = driver.Query(
        "INSERT INTO Ledger (W_ID, SEQ, PAD) VALUES (@w, @s, @p)",
        {{"w", types::Value::Int32(1)},
         {"s", types::Value::Int32(i)},
         {"p", types::Value::String(pad)}});
    ASSERT_TRUE(r.ok()) << "insert " << i << ": " << r.status().ToString();
  }
  auto scan = driver.Query("SELECT COUNT(*) FROM Ledger WHERE W_ID = @w",
                           {{"w", types::Value::Int32(1)}});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->rows[0][0].i64(), 600);

  EXPECT_GT(sharded->shard(0)->Stats().pool_evictions, 0u)
      << "hot shard never exceeded its pool — grow the workload";
  EXPECT_EQ(sharded->shard(1)->Stats().pool_evictions, cold_evictions_before)
      << "hot shard's churn evicted frames from the cold shard's pool";

  // And the cold shard's rows are still intact, through the router and
  // against the shard engine directly.
  auto cold = driver.Query("SELECT COUNT(*) FROM Ledger WHERE W_ID = @w",
                           {{"w", types::Value::Int32(2)}});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->rows[0][0].i64(), 6);
  auto direct = sharded->shard(1)->Execute(
      "SELECT SEQ, PAD FROM Ledger WHERE W_ID = @w ORDER BY SEQ",
      {types::Value::Int32(2)});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_EQ(direct->rows.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(direct->rows[i][0].i32(), i);
    EXPECT_EQ(direct->rows[i][1].str(), pad);
  }
}

}  // namespace
}  // namespace aedb::storage
