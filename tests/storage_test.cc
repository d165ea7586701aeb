#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "fault/fault.h"
#include "storage/btree.h"
#include "storage/engine.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/sim_fs.h"
#include "storage/wal.h"

namespace aedb::storage {
namespace {

Bytes B(std::string_view s) { return Slice(s).ToBytes(); }

// Iterator keys come back through the buffer pool as Result<Bytes>; tests
// want a plain string and treat a key-read failure as fatal.
std::string KeyStr(const BTree::Iterator& it) {
  auto key = it.key();
  EXPECT_TRUE(key.ok()) << key.status().ToString();
  if (!key.ok()) return {};
  return std::string(key->begin(), key->end());
}

/// A buffer pool over a simulated disk, for a standalone heap or B-tree.
struct SimPool {
  SimFs fs;
  FilePageStore store{&fs, "pages"};
  BufferPool pool{&store, 0};
};

// --- Page ---

TEST(PageTest, InsertReadDelete) {
  Page page;
  auto s0 = page.Insert(B("hello"));
  auto s1 = page.Insert(B("world!"));
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(page.Read(*s0)->ToString(), "hello");
  EXPECT_EQ(page.Read(*s1)->ToString(), "world!");
  ASSERT_TRUE(page.Delete(*s0).ok());
  EXPECT_FALSE(page.Read(*s0).ok());
  EXPECT_TRUE(page.Read(*s1).ok());
}

TEST(PageTest, ResurrectRestoresBytes) {
  Page page;
  auto s = page.Insert(B("lazarus"));
  ASSERT_TRUE(page.Delete(*s).ok());
  EXPECT_FALSE(page.IsLive(*s));
  ASSERT_TRUE(page.Resurrect(*s).ok());
  EXPECT_EQ(page.Read(*s)->ToString(), "lazarus");
  // Double resurrect fails.
  EXPECT_FALSE(page.Resurrect(*s).ok());
}

TEST(PageTest, FillsUpAndRejects) {
  Page page;
  Bytes rec(100, 0xab);
  int inserted = 0;
  while (page.Insert(rec).ok()) ++inserted;
  EXPECT_GT(inserted, 70);  // ~8K / 104
  EXPECT_FALSE(page.HasSpaceFor(100));
  // Small records may still fit.
  EXPECT_TRUE(page.Insert(Bytes(1, 1)).ok() || !page.HasSpaceFor(1));
}

TEST(PageTest, UpdateInPlaceRules) {
  Page page;
  auto s = page.Insert(B("0123456789"));
  ASSERT_TRUE(page.UpdateInPlace(*s, B("abcde")).ok());
  EXPECT_EQ(page.Read(*s)->ToString(), "abcde");
  // Larger than current length: relocate.
  EXPECT_EQ(page.UpdateInPlace(*s, B("0123456789x")).code(),
            StatusCode::kOutOfRange);
}

TEST(PageTest, RejectsOversizedRecord) {
  Page page;
  Bytes huge(Page::kPageSize, 0);
  EXPECT_FALSE(page.Insert(huge).ok());
}

// --- HeapTable ---

TEST(HeapTableTest, InsertSpillsAcrossPages) {
  SimPool sim;
  HeapTable heap(&sim.pool);
  Bytes rec(1000, 0x11);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(heap.Insert(rec).ok());
  EXPECT_GT(heap.page_count(), 1u);
  EXPECT_EQ(heap.live_rows(), 20u);
}

TEST(HeapTableTest, ScanVisitsLiveRows) {
  SimPool sim;
  HeapTable heap(&sim.pool);
  std::vector<Rid> rids;
  for (int i = 0; i < 10; ++i) {
    rids.push_back(*heap.Insert(B("row" + std::to_string(i))));
  }
  ASSERT_TRUE(heap.Delete(rids[3]).ok());
  int count = 0;
  heap.Scan([&](const Rid&, Slice) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 9);
}

TEST(HeapTableTest, ScanEarlyStop) {
  SimPool sim;
  HeapTable heap(&sim.pool);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(heap.Insert(B("x")).ok());
  int count = 0;
  heap.Scan([&](const Rid&, Slice) { return ++count < 3; });
  EXPECT_EQ(count, 3);
}

TEST(HeapTableTest, UpdateMayMove) {
  SimPool sim;
  HeapTable heap(&sim.pool);
  Rid rid = *heap.Insert(B("short"));
  // Fill the page so a grown record cannot stay.
  while (heap.page_count() == 1) ASSERT_TRUE(heap.Insert(Bytes(500, 1)).ok());
  auto new_rid = heap.Update(rid, Bytes(2000, 2));
  ASSERT_TRUE(new_rid.ok());
  EXPECT_FALSE(*new_rid == rid);
  EXPECT_EQ(heap.Read(*new_rid)->size(), 2000u);
  EXPECT_FALSE(heap.Read(rid).ok());
}

// --- BTree ---

TEST(BTreeTest, InsertAndSeekEqual) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, /*unique=*/false, &sim.pool);
  for (int i = 0; i < 500; ++i) {
    Bytes key = B("key" + std::to_string(1000 + i));
    ASSERT_TRUE(tree.Insert(key, Rid{0, static_cast<uint16_t>(i)}).ok());
  }
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_GT(tree.height(), 1);
  auto rids = tree.SeekEqual(B("key1234"));
  ASSERT_TRUE(rids.ok());
  ASSERT_EQ(rids->size(), 1u);
  EXPECT_EQ((*rids)[0].slot, 234);
  EXPECT_TRUE(tree.SeekEqual(B("nope"))->empty());
}

TEST(BTreeTest, DuplicateKeys) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, false, &sim.pool);
  for (uint16_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(B("dup"), Rid{1, i}).ok());
  }
  auto rids = tree.SeekEqual(B("dup"));
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 100u);
}

TEST(BTreeTest, UniqueRejectsDuplicates) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, true, &sim.pool);
  EXPECT_TRUE(*tree.Insert(B("k"), Rid{0, 0}));
  auto second = tree.Insert(B("k"), Rid{0, 1});
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, DeleteSpecificEntry) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, false, &sim.pool);
  for (uint16_t i = 0; i < 10; ++i) ASSERT_TRUE(tree.Insert(B("k"), Rid{0, i}).ok());
  EXPECT_TRUE(*tree.Delete(B("k"), Rid{0, 4}));
  EXPECT_FALSE(*tree.Delete(B("k"), Rid{0, 4}));
  auto rids = tree.SeekEqual(B("k"));
  EXPECT_EQ(rids->size(), 9u);
  for (const Rid& r : *rids) EXPECT_NE(r.slot, 4);
}

TEST(BTreeTest, RangeScanInOrder) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, false, &sim.pool);
  Xoshiro256 rng(99);
  std::vector<int> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<int>(rng.Uniform(0, 99999)));
  for (int v : values) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%05d", v);
    ASSERT_TRUE(tree.Insert(B(buf), Rid{0, 0}).ok());
  }
  std::string prev;
  size_t count = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    std::string cur = KeyStr(it);
    EXPECT_LE(prev, cur);
    prev = cur;
    ++count;
  }
  EXPECT_EQ(count, values.size());
}

TEST(BTreeTest, SeekAtLeast) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, false, &sim.pool);
  for (int i = 0; i < 100; i += 2) {
    char buf[8];
    snprintf(buf, sizeof(buf), "%03d", i);
    ASSERT_TRUE(tree.Insert(B(buf), Rid{0, 0}).ok());
  }
  auto it = tree.SeekAtLeast(B("051"));  // odd: next even is 052
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(KeyStr(*it), "052");
  auto exact = tree.SeekAtLeast(B("050"));
  EXPECT_EQ(KeyStr(*exact), "050");
  auto past = tree.SeekAtLeast(B("999"));
  EXPECT_FALSE(past->Valid());
}

TEST(BTreeTest, InsertDeleteChurn) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, false, &sim.pool);
  Xoshiro256 rng(7);
  std::multimap<std::string, uint16_t> model;
  for (int round = 0; round < 4000; ++round) {
    int v = static_cast<int>(rng.Uniform(0, 199));
    char buf[8];
    snprintf(buf, sizeof(buf), "%03d", v);
    uint16_t slot = static_cast<uint16_t>(rng.Uniform(0, 9999));
    if (rng.Uniform(0, 2) != 0 || model.empty()) {
      ASSERT_TRUE(tree.Insert(B(buf), Rid{0, slot}).ok());
      model.emplace(buf, slot);
    } else {
      // Delete a random model entry.
      auto it = model.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
      ASSERT_TRUE(*tree.Delete(B(it->first), Rid{0, it->second}));
      model.erase(it);
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  // Compare full scans.
  auto it = tree.Begin();
  for (auto& [k, slot] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(KeyStr(it), k);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

// A comparator that can be switched to fail, like an enclave missing its CEK.
class FailableComparator : public Comparator {
 public:
  Result<int> Compare(Slice a, Slice b) const override {
    if (fail) return Status::KeyNotInEnclave("CEK not installed");
    return a.compare(b);
  }
  const char* Name() const override { return "failable"; }
  mutable bool fail = false;
};

TEST(BTreeTest, ComparatorFailurePropagates) {
  FailableComparator cmp;
  SimPool sim;
  BTree tree(&cmp, false, &sim.pool);
  ASSERT_TRUE(tree.Insert(B("a"), Rid{0, 0}).ok());
  cmp.fail = true;
  EXPECT_TRUE(tree.Insert(B("b"), Rid{0, 1}).status().IsKeyNotInEnclave());
  EXPECT_TRUE(tree.SeekEqual(B("a")).status().IsKeyNotInEnclave());
  EXPECT_TRUE(tree.Delete(B("a"), Rid{0, 0}).status().IsKeyNotInEnclave());
}

TEST(BTreeTest, CountsComparisons) {
  BinaryComparator cmp;
  SimPool sim;
  BTree tree(&cmp, false, &sim.pool);
  for (uint16_t i = 0; i < 200; ++i) {
    char buf[8];
    snprintf(buf, sizeof(buf), "%03d", i);
    ASSERT_TRUE(tree.Insert(B(buf), Rid{0, i}).ok());
  }
  uint64_t before = tree.comparisons();
  ASSERT_TRUE(tree.SeekEqual(B("100")).ok());
  uint64_t seek_cost = tree.comparisons() - before;
  EXPECT_GT(seek_cost, 0u);
  EXPECT_LT(seek_cost, 30u);  // O(log n), not O(n)
}

// --- WAL ---

TEST(WalTest, AppendAssignsLsns) {
  SimFs fs;
  Wal wal(&fs, "wal.log");
  LogRecord r;
  r.type = LogRecordType::kBegin;
  EXPECT_EQ(wal.Append(r).value(), 1u);
  EXPECT_EQ(wal.Append(r).value(), 2u);
  EXPECT_EQ(wal.record_count(), 2u);
}

TEST(WalTest, SerializationRoundTrip) {
  SimFs fs;
  Wal wal(&fs, "wal.log");
  LogRecord r;
  r.txn_id = 42;
  r.type = LogRecordType::kHeapInsert;
  r.object_id = 7;
  r.rid = Rid{3, 9};
  r.payload1 = B("payload");
  ASSERT_TRUE(wal.Append(r).ok());
  Bytes raw = wal.RawBytes();
  WalLoadResult parsed = Wal::ParseImage(raw);
  EXPECT_FALSE(parsed.torn_tail);
  EXPECT_EQ(parsed.bytes_consumed, raw.size());
  ASSERT_EQ(parsed.records.size(), 1u);
  const LogRecord& back = parsed.records[0];
  EXPECT_EQ(back.txn_id, 42u);
  EXPECT_EQ(back.object_id, 7u);
  EXPECT_TRUE(back.rid == (Rid{3, 9}));
  EXPECT_EQ(back.payload1, B("payload"));
}

TEST(WalTest, ParseImageDropsTornTail) {
  SimFs fs;
  Wal wal(&fs, "wal.log");
  LogRecord r;
  r.type = LogRecordType::kHeapInsert;
  r.payload1 = B("rowdata");
  ASSERT_TRUE(wal.Append(r).ok());
  ASSERT_TRUE(wal.Append(r).ok());
  Bytes raw = wal.RawBytes();

  // Cut mid-way through the second frame: parsing keeps record 1, drops the
  // torn tail, and reports it.
  WalLoadResult full = Wal::ParseImage(raw);
  ASSERT_EQ(full.frame_ends.size(), 2u);
  size_t mid = full.frame_ends[0] + (full.frame_ends[1] - full.frame_ends[0]) / 2;
  Bytes torn(raw.begin(), raw.begin() + mid);
  WalLoadResult parsed = Wal::ParseImage(torn);
  EXPECT_TRUE(parsed.torn_tail);
  EXPECT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.bytes_consumed, full.frame_ends[0]);

  // A flipped bit inside a frame body is caught by the checksum.
  Bytes corrupt = raw;
  corrupt[full.frame_ends[0] + 12] ^= 0x01;
  WalLoadResult after_flip = Wal::ParseImage(corrupt);
  EXPECT_TRUE(after_flip.torn_tail);
  EXPECT_EQ(after_flip.records.size(), 1u);
}

/// After a cut, the image, its parse, the frame count and a fresh log loaded
/// from the image all hold exactly the records `lsns`.
void ExpectLogHolds(const Wal& wal, const std::vector<uint64_t>& lsns) {
  const Bytes raw = wal.RawBytes();
  EXPECT_FALSE(Wal::ParseImage(raw).torn_tail);
  std::vector<uint64_t> got;
  auto records = wal.Snapshot();
  ASSERT_TRUE(records.ok());
  for (const LogRecord& rec : *records) got.push_back(rec.lsn);
  EXPECT_EQ(got, lsns);
  EXPECT_EQ(wal.record_count(), lsns.size());
  SimFs fs;
  Wal fresh(&fs, "wal.log");
  fresh.LoadImage(raw);
  EXPECT_EQ(fresh.RawBytes(), raw);
  EXPECT_EQ(fresh.record_count(), lsns.size());
}

TEST(WalTest, TruncateBefore) {
  SimFs fs;
  Wal wal(&fs, "wal.log");
  LogRecord r;
  r.type = LogRecordType::kBegin;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(wal.Append(r).ok());
  const Bytes full = wal.RawBytes();

  // Horizon before the first record: nothing to cut.
  ASSERT_TRUE(wal.TruncateBefore(1).ok());
  EXPECT_EQ(wal.RawBytes(), full);
  ExpectLogHolds(wal, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});

  // Mid-log: the kept bytes are the original image's tail, frames intact.
  ASSERT_TRUE(wal.TruncateBefore(6).ok());
  const Bytes kept = wal.RawBytes();
  ASSERT_LT(kept.size(), full.size());
  EXPECT_TRUE(std::equal(kept.begin(), kept.end(), full.end() - kept.size()));
  ExpectLogHolds(wal, {6, 7, 8, 9, 10});

  // Past the last record: the log empties, and LSNs keep counting.
  ASSERT_TRUE(wal.TruncateBefore(wal.next_lsn()).ok());
  EXPECT_TRUE(wal.RawBytes().empty());
  ExpectLogHolds(wal, {});
  EXPECT_EQ(wal.Append(r).value(), 11u);
  EXPECT_EQ(wal.Append(r).value(), 12u);

  // An image ending in a torn frame: the cut drops the torn bytes too, and
  // the next record follows the last kept frame.
  fault::FaultRegistry::Global().Arm(
      "wal/torn_append", fault::FaultSpec::OneShot(Status::Internal("crash")));
  EXPECT_FALSE(wal.Append(r).ok());
  fault::FaultRegistry::Global().Reset();
  ASSERT_TRUE(Wal::ParseImage(wal.RawBytes()).torn_tail);
  ASSERT_TRUE(wal.TruncateBefore(12).ok());
  ExpectLogHolds(wal, {12});
  auto next = wal.Append(r);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectLogHolds(wal, {12, *next});
}

// --- LockManager ---

TEST(LockManagerTest, ExclusiveAndReentrant) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, 100, std::chrono::milliseconds(10)).ok());
  ASSERT_TRUE(locks.Acquire(1, 100, std::chrono::milliseconds(10)).ok());
  EXPECT_FALSE(locks.Acquire(2, 100, std::chrono::milliseconds(10)).ok());
  EXPECT_TRUE(locks.IsLockedByOther(2, 100));
  EXPECT_FALSE(locks.IsLockedByOther(1, 100));
  locks.ReleaseAll(1);
  EXPECT_TRUE(locks.Acquire(2, 100, std::chrono::milliseconds(10)).ok());
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, 5, std::chrono::milliseconds(10)).ok());
  std::thread waiter([&] {
    EXPECT_TRUE(locks.Acquire(2, 5, std::chrono::milliseconds(2000)).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  locks.ReleaseAll(1);
  waiter.join();
  EXPECT_EQ(locks.HeldCount(2), 1u);
}

// Deadlock detection. Every wait below runs under a 2 s timeout, so a cycle
// that resolves in milliseconds was detected, not timed out.
constexpr std::chrono::milliseconds kLockTimeout{2000};
// Long enough for a waiter thread to be blocked before the next step.
constexpr std::chrono::milliseconds kSettle{100};

double ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Txn t holds resource t. Txns 1..n-1 each block on the next txn's resource,
// then txn n closes the cycle by asking for resource 1: txn n is the victim,
// fails at once, and once it rolls back every other txn gets its lock.
TEST(LockManagerTest, CycleFailsTheRequesterAtOnce) {
  for (uint64_t n : {2, 3}) {
    SCOPED_TRACE(std::to_string(n) + "-transaction cycle");
    LockManager locks;
    for (uint64_t t = 1; t <= n; ++t) {
      ASSERT_TRUE(locks.Acquire(t, t, kLockTimeout).ok());
    }
    std::vector<Status> granted(n);
    std::vector<std::thread> waiters;
    for (uint64_t t = 1; t < n; ++t) {
      waiters.emplace_back(
          [&, t] { granted[t] = locks.Acquire(t, t + 1, kLockTimeout); });
      std::this_thread::sleep_for(kSettle);
    }
    auto t0 = std::chrono::steady_clock::now();
    Status victim = locks.Acquire(n, 1, kLockTimeout);
    double ms = ElapsedMs(t0);
    EXPECT_EQ(victim.code(), StatusCode::kFailedPrecondition)
        << victim.ToString();
    EXPECT_NE(victim.message().find("deadlock"), std::string::npos);
    EXPECT_EQ(victim.message().find("lock timeout"), std::string::npos);
    EXPECT_LT(ms, 10.0);
    EXPECT_EQ(locks.deadlocks(), 1u);
    // The victim rolls back; each survivor is granted and commits in turn.
    locks.ReleaseAll(n);
    for (uint64_t t = n - 1; t >= 1; --t) {
      waiters[t - 1].join();
      EXPECT_TRUE(granted[t].ok()) << "txn " << t << ": "
                                   << granted[t].ToString();
      locks.ReleaseAll(t);
    }
    EXPECT_EQ(locks.total_locked(), 0u);
  }
}

TEST(LockManagerTest, WaitChainWithoutCycleIsGranted) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, 10, kLockTimeout).ok());
  ASSERT_TRUE(locks.Acquire(2, 20, kLockTimeout).ok());
  Status second, third;
  std::thread t2([&] { second = locks.Acquire(2, 10, kLockTimeout); });
  std::this_thread::sleep_for(kSettle);
  // 3 -> 2 -> 1 is a chain: txn 3 must wait, not fail.
  std::thread t3([&] { third = locks.Acquire(3, 20, kLockTimeout); });
  std::this_thread::sleep_for(kSettle);
  locks.ReleaseAll(1);
  t2.join();
  EXPECT_TRUE(second.ok()) << second.ToString();
  locks.ReleaseAll(2);
  t3.join();
  EXPECT_TRUE(third.ok()) << third.ToString();
  EXPECT_EQ(locks.deadlocks(), 0u);
}

// Txn 2 waits on txn 1 and gives up; then txn 1 waits on txn 2. An edge left
// behind by txn 2 would close a cycle that no longer exists.
TEST(LockManagerTest, AbandonedWaitLeavesNoEdge) {
  enum class GiveUp { kTimeout, kCancel, kDeadline };
  for (GiveUp how : {GiveUp::kTimeout, GiveUp::kCancel, GiveUp::kDeadline}) {
    SCOPED_TRACE(static_cast<int>(how));
    LockManager locks;
    ASSERT_TRUE(locks.Acquire(1, 10, kLockTimeout).ok());
    ASSERT_TRUE(locks.Acquire(2, 20, kLockTimeout).ok());
    Status gave_up;
    if (how == GiveUp::kTimeout) {
      gave_up = locks.Acquire(2, 10, std::chrono::milliseconds(30));
    } else if (how == GiveUp::kDeadline) {
      QueryContext q =
          QueryContext::WithDeadlineAfter(std::chrono::milliseconds(30));
      gave_up = locks.Acquire(2, 10, kLockTimeout, &q);
    } else {
      QueryContext q;
      std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        q.Cancel();
      });
      gave_up = locks.Acquire(2, 10, kLockTimeout, &q);
      canceller.join();
    }
    ASSERT_FALSE(gave_up.ok());
    Status later = locks.Acquire(1, 20, std::chrono::milliseconds(30));
    EXPECT_NE(later.message().find("lock timeout"), std::string::npos)
        << later.ToString();
    EXPECT_EQ(locks.deadlocks(), 0u);
  }
}

// --- StorageEngine: transactions + recovery (§4.5) ---

class EngineTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kTable = 1;
  static constexpr uint32_t kIndex = 10;

  void Register(StorageEngine* engine, FailableComparator** cmp_out) {
    ASSERT_TRUE(engine->CreateTable(kTable).ok());
    auto cmp = std::make_unique<FailableComparator>();
    *cmp_out = cmp.get();
    ASSERT_TRUE(engine->CreateIndex(kIndex, kTable, std::move(cmp), false).ok());
  }
};

TEST_F(EngineTest, CommitPersistsThroughRecovery) {
  StorageEngine engine;
  FailableComparator* cmp;
  Register(&engine, &cmp);

  uint64_t txn = engine.Begin();
  Rid rid = *engine.HeapInsert(txn, kTable, B("row1"));
  ASSERT_TRUE(engine.IndexInsert(txn, kIndex, B("k1"), rid).ok());
  ASSERT_TRUE(engine.Commit(txn).ok());

  // Crash: new engine, same log.
  StorageEngine engine2;
  FailableComparator* cmp2;
  Register(&engine2, &cmp2);
  engine2.wal().LoadImage(engine.wal().RawBytes());
  auto result = engine2.Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deferred_txns.empty());
  EXPECT_EQ(engine2.table(kTable)->live_rows(), 1u);
  EXPECT_EQ(*engine2.table(kTable)->Read(rid), B("row1"));
  auto rids = engine2.index_tree(kIndex)->SeekEqual(B("k1"));
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 1u);
}

TEST_F(EngineTest, RuntimeAbortUndoesEverything) {
  StorageEngine engine;
  FailableComparator* cmp;
  Register(&engine, &cmp);

  uint64_t t1 = engine.Begin();
  Rid keep = *engine.HeapInsert(t1, kTable, B("keep"));
  ASSERT_TRUE(engine.IndexInsert(t1, kIndex, B("keep"), keep).ok());
  ASSERT_TRUE(engine.Commit(t1).ok());

  uint64_t t2 = engine.Begin();
  Rid gone = *engine.HeapInsert(t2, kTable, B("gone"));
  ASSERT_TRUE(engine.IndexInsert(t2, kIndex, B("gone"), gone).ok());
  ASSERT_TRUE(engine.HeapDelete(t2, kTable, keep).ok());
  ASSERT_TRUE(engine.IndexDelete(t2, kIndex, B("keep"), keep).ok());
  ASSERT_TRUE(engine.Abort(t2).ok());

  EXPECT_EQ(engine.table(kTable)->live_rows(), 1u);
  EXPECT_EQ(*engine.table(kTable)->Read(keep), B("keep"));
  EXPECT_EQ(engine.index_tree(kIndex)->SeekEqual(B("keep"))->size(), 1u);
  EXPECT_TRUE(engine.index_tree(kIndex)->SeekEqual(B("gone"))->empty());
}

TEST_F(EngineTest, LoserUndoneAtRecovery) {
  StorageEngine engine;
  FailableComparator* cmp;
  Register(&engine, &cmp);

  uint64_t t1 = engine.Begin();
  Rid r1 = *engine.HeapInsert(t1, kTable, B("committed"));
  ASSERT_TRUE(engine.IndexInsert(t1, kIndex, B("a"), r1).ok());
  ASSERT_TRUE(engine.Commit(t1).ok());

  uint64_t t2 = engine.Begin();
  Rid r2 = *engine.HeapInsert(t2, kTable, B("in-flight"));
  ASSERT_TRUE(engine.IndexInsert(t2, kIndex, B("b"), r2).ok());
  // Crash with t2 in flight.

  StorageEngine engine2;
  FailableComparator* cmp2;
  Register(&engine2, &cmp2);
  engine2.wal().LoadImage(engine.wal().RawBytes());
  auto result = engine2.Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->deferred_txns.empty());
  EXPECT_EQ(engine2.table(kTable)->live_rows(), 1u);
  EXPECT_EQ(engine2.index_tree(kIndex)->SeekEqual(B("b"))->size(), 0u);
  EXPECT_EQ(engine2.index_tree(kIndex)->SeekEqual(B("a"))->size(), 1u);
}

TEST_F(EngineTest, MissingEnclaveKeyDefersTransaction) {
  StorageEngine engine;
  FailableComparator* cmp;
  Register(&engine, &cmp);

  uint64_t t1 = engine.Begin();
  Rid r1 = *engine.HeapInsert(t1, kTable, B("committed"));
  ASSERT_TRUE(engine.IndexInsert(t1, kIndex, B("a"), r1).ok());
  ASSERT_TRUE(engine.Commit(t1).ok());

  uint64_t t2 = engine.Begin();
  ASSERT_TRUE(engine.LockRow(t2, kTable, r1).ok());
  Rid r2 = *engine.HeapInsert(t2, kTable, B("loser"));
  ASSERT_TRUE(engine.IndexInsert(t2, kIndex, B("b"), r2).ok());

  // Crash; on restart the enclave has no keys: comparator fails.
  StorageEngine engine2;
  FailableComparator* cmp2;
  Register(&engine2, &cmp2);
  engine2.wal().LoadImage(engine.wal().RawBytes());
  cmp2->fail = true;
  auto result = engine2.Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->deferred_txns.size(), 1u);
  EXPECT_EQ(result->rebuild_pending_indexes, std::vector<uint32_t>{kIndex});
  EXPECT_TRUE(engine2.HasDeferredTxns());

  // Heap is already clean (committed state), but the loser's rows stay
  // locked and the index is unusable.
  EXPECT_EQ(engine2.table(kTable)->live_rows(), 1u);
  EXPECT_FALSE(engine2.CheckIndexUsable(kIndex).ok());
  uint64_t reader = engine2.Begin();
  EXPECT_FALSE(engine2.LockRow(reader, kTable, r2).ok());  // blocked

  // Log truncation is pinned by the deferred transaction (§4.5).
  EXPECT_FALSE(engine2.CanTruncateLog().ok());

  // Client connects, keys arrive: deferred work resolves.
  cmp2->fail = false;
  ASSERT_TRUE(engine2.ResolveDeferred().ok());
  EXPECT_FALSE(engine2.HasDeferredTxns());
  EXPECT_TRUE(engine2.CheckIndexUsable(kIndex).ok());
  EXPECT_EQ(engine2.index_tree(kIndex)->SeekEqual(B("a"))->size(), 1u);
  EXPECT_EQ(engine2.index_tree(kIndex)->SeekEqual(B("b"))->size(), 0u);
  uint64_t reader2 = engine2.Begin();
  EXPECT_TRUE(engine2.LockRow(reader2, kTable, r2).ok());
}

TEST_F(EngineTest, ConstantTimeRecoveryReleasesLocks) {
  StorageEngine crashed;
  FailableComparator* cmp;
  Register(&crashed, &cmp);
  uint64_t t = crashed.Begin();
  Rid r = *crashed.HeapInsert(t, kTable, B("loser"));
  ASSERT_TRUE(crashed.IndexInsert(t, kIndex, B("x"), r).ok());

  EngineOptions opts;
  opts.constant_time_recovery = true;
  StorageEngine engine(opts);
  FailableComparator* cmp2;
  Register(&engine, &cmp2);
  engine.wal().LoadImage(crashed.wal().RawBytes());
  cmp2->fail = true;
  auto result = engine.Recover();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->deferred_txns.size(), 1u);
  // CTR: no locks held; rows fully available.
  uint64_t reader = engine.Begin();
  EXPECT_TRUE(engine.LockRow(reader, kTable, r).ok());
  // But the deferred txn still pins the log until keys arrive.
  EXPECT_FALSE(engine.CanTruncateLog().ok());
}

TEST_F(EngineTest, IndexInvalidationForcesResolution) {
  StorageEngine crashed;
  FailableComparator* cmp;
  Register(&crashed, &cmp);
  uint64_t t = crashed.Begin();
  Rid r = *crashed.HeapInsert(t, kTable, B("loser"));
  ASSERT_TRUE(crashed.IndexInsert(t, kIndex, B("x"), r).ok());

  StorageEngine engine;
  FailableComparator* cmp2;
  Register(&engine, &cmp2);
  engine.wal().LoadImage(crashed.wal().RawBytes());
  cmp2->fail = true;
  ASSERT_TRUE(engine.Recover().ok());
  ASSERT_TRUE(engine.HasDeferredTxns());

  // Policy fires (timeout / log space): invalidate the index.
  ASSERT_TRUE(engine.InvalidateIndex(kIndex).ok());
  EXPECT_FALSE(engine.HasDeferredTxns());
  EXPECT_TRUE(engine.IndexInvalid(kIndex));
  EXPECT_FALSE(engine.CheckIndexUsable(kIndex).ok());
  EXPECT_TRUE(engine.CanTruncateLog().ok());
  // Writes to the invalid index are refused.
  uint64_t t2 = engine.Begin();
  Rid r2 = *engine.HeapInsert(t2, kTable, B("new"));
  EXPECT_FALSE(engine.IndexInsert(t2, kIndex, B("y"), r2).ok());
}

TEST_F(EngineTest, RedoIsDeterministic) {
  StorageEngine engine;
  FailableComparator* cmp;
  Register(&engine, &cmp);
  Xoshiro256 rng(3);
  std::vector<Rid> live;
  uint64_t txn = engine.Begin();
  for (int i = 0; i < 500; ++i) {
    if (rng.Uniform(0, 3) != 0 || live.empty()) {
      Bytes rec(static_cast<size_t>(rng.Uniform(1, 300)), 0x5a);
      live.push_back(*engine.HeapInsert(txn, kTable, rec));
    } else {
      size_t pick = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(engine.HeapDelete(txn, kTable, live[pick]).ok());
      live.erase(live.begin() + pick);
    }
  }
  ASSERT_TRUE(engine.Commit(txn).ok());

  StorageEngine engine2;
  FailableComparator* cmp2;
  Register(&engine2, &cmp2);
  engine2.wal().LoadImage(engine.wal().RawBytes());
  ASSERT_TRUE(engine2.Recover().ok());
  EXPECT_EQ(engine2.table(kTable)->live_rows(), live.size());
  for (const Rid& rid : live) {
    EXPECT_TRUE(engine2.table(kTable)->Read(rid).ok());
  }
}

TEST_F(EngineTest, UniqueIndexViolationSurfaces) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable(kTable).ok());
  ASSERT_TRUE(engine
                  .CreateIndex(kIndex, kTable,
                               std::make_unique<BinaryComparator>(), true)
                  .ok());
  uint64_t txn = engine.Begin();
  Rid r1 = *engine.HeapInsert(txn, kTable, B("a"));
  Rid r2 = *engine.HeapInsert(txn, kTable, B("b"));
  ASSERT_TRUE(engine.IndexInsert(txn, kIndex, B("k"), r1).ok());
  EXPECT_EQ(engine.IndexInsert(txn, kIndex, B("k"), r2).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace aedb::storage
