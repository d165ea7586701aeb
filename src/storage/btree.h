#ifndef AEDB_STORAGE_BTREE_H_
#define AEDB_STORAGE_BTREE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace aedb::storage {

/// Key ordering for an index. The crucial AE design point (paper §3.1): a
/// DET equality index orders by raw ciphertext bytes (BinaryComparator); a
/// range index over RND ciphertext orders by *plaintext* via a comparator
/// that routes each comparison into the enclave. Comparisons can fail —
/// e.g. the enclave lacks the CEK — so Compare returns Result.
class Comparator {
 public:
  virtual ~Comparator() = default;
  virtual Result<int> Compare(Slice a, Slice b) const = 0;
  virtual const char* Name() const = 0;

  /// True when batched comparisons are cheaper than scalar ones — i.e. the
  /// comparator pays a per-call boundary cost worth amortizing (the enclave
  /// comparator). Plaintext/DET comparators keep the scalar binary-search
  /// paths, which do strictly fewer comparisons.
  virtual bool PrefersBatch() const { return false; }

  /// Compares `probe` against every key in `keys`; out[i] = cmp(probe,
  /// keys[i]). Batch-preferring comparators override this with a single
  /// boundary crossing (Enclave::CompareCellsBatch); the default loops
  /// Compare so semantics are identical either way.
  virtual Result<std::vector<int>> CompareBatch(
      Slice probe, const std::vector<Slice>& keys) const {
    std::vector<int> out;
    out.reserve(keys.size());
    for (Slice k : keys) {
      int c;
      AEDB_ASSIGN_OR_RETURN(c, Compare(probe, k));
      out.push_back(c);
    }
    return out;
  }
};

/// memcmp order over raw bytes (DET equality indexes: "index keys are
/// ordered in the B+-Tree using ciphertext").
class BinaryComparator : public Comparator {
 public:
  Result<int> Compare(Slice a, Slice b) const override { return a.compare(b); }
  const char* Name() const override { return "binary"; }
};

/// \brief B+-tree mapping byte keys to RIDs. Keys may repeat (non-unique
/// indexes); entries are totally ordered by (key, rid).
///
/// Structural maintenance — node splits, the leaf chain, slot bookkeeping —
/// never looks inside keys, mirroring the paper's observation that "the vast
/// majority of index processing ... remains unaffected by encryption". Only
/// the comparator touches key contents. Deletion is tombstone-free but lazy:
/// underfull nodes are not rebalanced (separator keys remain valid bounds).
///
/// Key bytes live in buffer-pool pages: each node backs its entries with one
/// slotted page (one pool object per tree), accessed through pin/unpin, so
/// ciphertext key payloads are evictable and every paged-out byte goes
/// through the page store's at-rest discipline. The node skeleton — child
/// pointers, rids, the slot order — stays in memory; it carries no cell
/// contents. A node splits when it exceeds kMaxKeys entries OR kSplitBytes
/// of live key bytes, so any key up to kMaxKeyBytes always fits its page.
///
/// Thread safety: an internal reader-writer latch makes Insert/Delete/Clear/
/// LoadSortedEntries atomic against the seek entry points, so unlatched
/// executor probes never observe a mid-split skeleton. Iterators returned by
/// Begin/SeekAtLeast hold no latch — they are for quiescent use only
/// (checkpoints, tests).
class BTree {
 public:
  /// Fan-out chosen so a 64-byte ciphertext key node is roughly page-sized.
  static constexpr size_t kMaxKeys = 64;
  /// Live key bytes past which a node splits (half a page: guarantees room
  /// for one more maximum-size key after compaction).
  static constexpr size_t kSplitBytes = Page::kPageSize / 2;
  /// Largest accepted key (a quarter page; ciphertext cells are far smaller).
  static constexpr size_t kMaxKeyBytes = Page::kPageSize / 4;

  /// The tree's pages live in `pool`, which must outlive it.
  BTree(const Comparator* comparator, bool unique, BufferPool* pool);
  ~BTree();  // out-of-line: Node is incomplete here

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts (key, rid). Returns false (without inserting) when the index is
  /// unique and the key already exists.
  Result<bool> Insert(const Bytes& key, Rid rid);

  /// Removes the exact (key, rid) entry; false if absent.
  Result<bool> Delete(const Bytes& key, Rid rid);

  /// All RIDs with key == `key`.
  Result<std::vector<Rid>> SeekEqual(Slice key) const;

  /// All RIDs with lower (<|<=) key (<|<=) upper, in key order. Null bounds
  /// are unbounded. For batch-preferring comparators every leaf's bound
  /// checks ride on one CompareBatch call instead of one enclave call per
  /// entry — the batched range-seek path of the tentpole.
  Result<std::vector<Rid>> SeekRange(const Bytes* lower, bool lower_inclusive,
                                     const Bytes* upper,
                                     bool upper_inclusive) const;

  /// Forward iterator over (key, rid) entries in key order.
  class Iterator {
   public:
    bool Valid() const { return node_ != nullptr; }
    /// Copies the key out from under a transient pin (the backing frame may
    /// be evicted between calls, so no stable view can be handed out).
    Result<Bytes> key() const;
    Rid rid() const;
    void Next();

   private:
    friend class BTree;
    const BTree* tree_ = nullptr;
    const void* node_ = nullptr;  // Node*
    size_t pos_ = 0;
  };

  /// Iterator at the smallest entry.
  Iterator Begin() const;
  /// Iterator at the first entry with entry.key >= key.
  Result<Iterator> SeekAtLeast(Slice key) const;

  uint64_t size() const {
    std::shared_lock lock(mu_);
    return size_;
  }
  /// Total comparator invocations (each is an enclave call for encrypted
  /// range indexes — the §3.1 ablation measures this).
  uint64_t comparisons() const {
    return comparisons_.load(std::memory_order_relaxed);
  }
  int height() const;

  /// Drops all entries.
  void Clear();

  /// Replaces the contents with `entries`, which MUST already be in (key,
  /// rid) entry order. Builds the tree bottom-up with ZERO comparator calls —
  /// the checkpoint-restore path for encrypted range indexes, whose
  /// comparator routes through an enclave that has no keys yet at startup.
  Status LoadSortedEntries(const std::vector<std::pair<Bytes, Rid>>& entries);

 private:
  struct Node;
  friend class Iterator;

  /// A pinned view over one node's key page. key(i) slices into the pinned
  /// frame; the view must outlive every slice taken from it.
  struct NodeView {
    PinnedPage pin;
    const Node* node = nullptr;
    Slice key(size_t i) const;
  };
  Result<NodeView> View(const Node* n) const;

  Result<int> Cmp(Slice a, Slice b) const;
  /// (key, rid) total order used for leaf placement; `view` is the node's
  /// pinned key page.
  Result<int> CmpEntry(Slice key, Rid rid, const NodeView& view,
                       size_t i) const;
  /// cmp(probe, node key i) for every i in [from, size) via one batched
  /// comparator call; charges one comparison per key compared.
  Result<std::vector<int>> CmpNodeFrom(Slice probe, const Node* node,
                                       size_t from) const;

  /// One-off copy of a node's key i from under a transient pin.
  Result<Bytes> KeyAt(const Node* n, size_t i) const;
  /// Allocates the node's backing page on first use.
  Status EnsurePage(Node* n);
  /// Inserts key bytes into the node's page (compacting dead slots if space
  /// ran out) and splices (slot, rid) in at `pos`.
  Status InsertKeyAt(Node* n, size_t pos, Slice key, Rid rid);
  /// Tombstones the entry's key bytes and removes (slot, rid) at `pos`.
  Status RemoveKeyAt(Node* n, size_t pos);
  /// Moves entries [from_pos, count) of `from` to the (fresh) node `to`.
  Status MoveTail(Node* from, size_t from_pos, Node* to);
  /// True when the node must split (entry count or live key bytes).
  static bool Overfull(const Node* n);

  struct SplitResult {
    Bytes separator;
    Rid separator_rid;
    std::unique_ptr<Node> right;
  };

  Result<bool> InsertRec(Node* node, const Bytes& key, Rid rid,
                         std::unique_ptr<SplitResult>* split);
  Status SplitNode(Node* node, std::unique_ptr<SplitResult>* split);
  Result<size_t> ChildIndex(const Node* node, Slice key) const;

  /// Latch-free bodies of the public entry points, composed by callers that
  /// already hold mu_ (Insert's unique check, SeekRange's positioning, ...).
  Result<std::vector<Rid>> SeekEqualLocked(Slice key) const;
  Result<Iterator> SeekAtLeastLocked(Slice key) const;
  Iterator BeginLocked() const;
  void ClearLocked();

  /// Readers shared, mutators exclusive (see class comment).
  mutable std::shared_mutex mu_;
  const Comparator* comparator_;
  bool unique_;
  BufferPool* pool_;
  uint32_t object_id_;
  uint32_t next_page_no_ = 0;
  std::unique_ptr<Node> root_;
  uint64_t size_ = 0;
  mutable std::atomic<uint64_t> comparisons_{0};
};

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_BTREE_H_
