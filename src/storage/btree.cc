#include "storage/btree.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace aedb::storage {

/// Both node kinds hold a parallel (slot, rid) order; the rid participates in
/// ordering so duplicate keys have a total order and separators are unique —
/// internal separators are (key, rid) pairs. Leaves additionally chain via
/// `next` for range scans.
///
/// Key BYTES live on the node's buffer-pool page (slot `slots[i]` holds the
/// bytes of entry i); everything else here is in-memory skeleton. The page is
/// allocated lazily on the first key insert (kNoPage until then).
struct BTree::Node {
  static constexpr uint32_t kNoPage = 0xffffffffu;

  bool leaf = true;
  uint32_t page_no = kNoPage;
  std::vector<uint16_t> slots;  // pos -> page slot, in (key, rid) order
  std::vector<Rid> rids;
  std::vector<std::unique_ptr<Node>> children;  // size count()+1 (internal)
  Node* next = nullptr;                         // leaf chain
  size_t key_bytes = 0;                         // live key bytes on the page

  size_t count() const { return slots.size(); }
};

BTree::BTree(const Comparator* comparator, bool unique, BufferPool* pool)
    : comparator_(comparator),
      unique_(unique),
      pool_(pool),
      object_id_(pool->NewObject()),
      root_(std::make_unique<Node>()) {}

BTree::~BTree() { (void)pool_->DropObject(object_id_); }

// Out-of-line so ~unique_ptr<Node> sees the complete type.
void BTree::Clear() {
  std::unique_lock lock(mu_);
  ClearLocked();
}

void BTree::ClearLocked() {
  // A fresh object retires every old node page at once (cached frames and
  // store pages both).
  (void)pool_->DropObject(object_id_);
  object_id_ = pool_->NewObject();
  next_page_no_ = 0;
  root_ = std::make_unique<Node>();
  size_ = 0;
}

// ---------------------------------------------------------------------------
// Paged key access

Slice BTree::NodeView::key(size_t i) const {
  auto r = Page::Wrap(pin.data()).Read(node->slots[i]);
  // Slots in the in-memory order vector are live by construction; a dead or
  // out-of-range slot here would mean skeleton/page divergence.
  assert(r.ok());
  return r.ok() ? *r : Slice();
}

Result<BTree::NodeView> BTree::View(const Node* n) const {
  NodeView v;
  v.node = n;
  if (n->page_no != Node::kNoPage) {
    AEDB_ASSIGN_OR_RETURN(
        v.pin, pool_->Pin(PageId{object_id_, n->page_no}, /*create=*/false));
  }
  return v;
}

Result<Bytes> BTree::KeyAt(const Node* n, size_t i) const {
  NodeView view;
  AEDB_ASSIGN_OR_RETURN(view, View(n));
  return view.key(i).ToBytes();
}

Status BTree::EnsurePage(Node* n) {
  if (n->page_no != Node::kNoPage) return Status::OK();
  uint32_t page_no = next_page_no_++;
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(
      pin, pool_->Pin(PageId{object_id_, page_no}, /*create=*/true));
  Page::WrapInit(pin.data());
  pin.MarkDirty();
  n->page_no = page_no;
  return Status::OK();
}

Status BTree::InsertKeyAt(Node* n, size_t pos, Slice key, Rid rid) {
  AEDB_RETURN_IF_ERROR(EnsurePage(n));
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(
      pin, pool_->Pin(PageId{object_id_, n->page_no}, /*create=*/false));
  Page page = Page::Wrap(pin.data());
  if (!page.HasSpaceFor(key.size())) {
    // Dead slots (removed or split-moved entries) still hold bytes: compact
    // the live entries in place. The split-bytes invariant guarantees the
    // insert fits afterwards.
    std::vector<Bytes> live;
    live.reserve(n->count());
    for (size_t i = 0; i < n->count(); ++i) {
      Slice s;
      AEDB_ASSIGN_OR_RETURN(s, page.Read(n->slots[i]));
      live.push_back(s.ToBytes());
    }
    page = Page::WrapInit(pin.data());
    for (size_t i = 0; i < live.size(); ++i) {
      uint16_t slot;
      AEDB_ASSIGN_OR_RETURN(slot, page.Insert(live[i]));
      n->slots[i] = slot;
    }
  }
  if (!page.HasSpaceFor(key.size())) {
    return Status::Internal("btree node page overflow");
  }
  uint16_t slot;
  AEDB_ASSIGN_OR_RETURN(slot, page.Insert(key));
  pin.MarkDirty();
  n->slots.insert(n->slots.begin() + pos, slot);
  n->rids.insert(n->rids.begin() + pos, rid);
  n->key_bytes += key.size();
  return Status::OK();
}

Status BTree::RemoveKeyAt(Node* n, size_t pos) {
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(
      pin, pool_->Pin(PageId{object_id_, n->page_no}, /*create=*/false));
  Page page = Page::Wrap(pin.data());
  Slice s;
  AEDB_ASSIGN_OR_RETURN(s, page.Read(n->slots[pos]));
  size_t len = s.size();
  AEDB_RETURN_IF_ERROR(page.Delete(n->slots[pos]));
  pin.MarkDirty();
  n->key_bytes -= len;
  n->slots.erase(n->slots.begin() + pos);
  n->rids.erase(n->rids.begin() + pos);
  return Status::OK();
}

Status BTree::MoveTail(Node* from, size_t from_pos, Node* to) {
  AEDB_RETURN_IF_ERROR(EnsurePage(to));
  PinnedPage from_pin, to_pin;
  AEDB_ASSIGN_OR_RETURN(from_pin, pool_->Pin(PageId{object_id_, from->page_no},
                                             /*create=*/false));
  AEDB_ASSIGN_OR_RETURN(
      to_pin, pool_->Pin(PageId{object_id_, to->page_no}, /*create=*/false));
  Page from_page = Page::Wrap(from_pin.data());
  Page to_page = Page::Wrap(to_pin.data());
  for (size_t i = from_pos; i < from->count(); ++i) {
    Slice k;
    AEDB_ASSIGN_OR_RETURN(k, from_page.Read(from->slots[i]));
    if (!to_page.HasSpaceFor(k.size())) {
      return Status::Internal("btree split target page overflow");
    }
    uint16_t slot;
    AEDB_ASSIGN_OR_RETURN(slot, to_page.Insert(k));
    to->slots.push_back(slot);
    to->rids.push_back(from->rids[i]);
    to->key_bytes += k.size();
    AEDB_RETURN_IF_ERROR(from_page.Delete(from->slots[i]));
    from->key_bytes -= k.size();
  }
  from_pin.MarkDirty();
  to_pin.MarkDirty();
  from->slots.resize(from_pos);
  from->rids.resize(from_pos);
  return Status::OK();
}

bool BTree::Overfull(const Node* n) {
  return n->count() > kMaxKeys || n->key_bytes > kSplitBytes;
}

// ---------------------------------------------------------------------------
// Bulk load

Status BTree::LoadSortedEntries(
    const std::vector<std::pair<Bytes, Rid>>& entries) {
  std::unique_lock lock(mu_);
  ClearLocked();
  if (entries.empty()) return Status::OK();
  size_ = entries.size();

  // One level at a time, bottom-up. Each built node carries its minimum
  // (key, rid) entry so the parent level can form separators without ever
  // touching the comparator: separator i is the min entry of child i+1,
  // matching the (key, rid)-ordered descent in ChildIndex/InsertRec.
  struct Built {
    std::unique_ptr<Node> node;
    Bytes min_key;
    Rid min_rid;
  };
  std::vector<Built> level;

  // Leaves: chunks capped by entry count AND key bytes, chained left to
  // right (the same dual limit a split enforces).
  Node* prev_leaf = nullptr;
  size_t at = 0;
  while (at < entries.size()) {
    size_t n = 0, bytes = 0;
    while (at + n < entries.size() && n < kMaxKeys &&
           (n == 0 || bytes + entries[at + n].first.size() <= kSplitBytes)) {
      bytes += entries[at + n].first.size();
      ++n;
    }
    auto leaf = std::make_unique<Node>();
    leaf->leaf = true;
    for (size_t i = 0; i < n; ++i) {
      AEDB_RETURN_IF_ERROR(InsertKeyAt(leaf.get(), leaf->count(),
                                       entries[at + i].first,
                                       entries[at + i].second));
    }
    if (prev_leaf != nullptr) prev_leaf->next = leaf.get();
    prev_leaf = leaf.get();
    Built b;
    b.min_key = entries[at].first;
    b.min_rid = entries[at].second;
    b.node = std::move(leaf);
    level.push_back(std::move(b));
    at += n;
  }

  // Internal levels: up to kMaxKeys+1 children per node, separator bytes
  // capped like a split.
  while (level.size() > 1) {
    std::vector<Built> parents;
    size_t from = 0;
    while (from < level.size()) {
      size_t n = 0, bytes = 0;
      while (from + n < level.size() && n < kMaxKeys + 1) {
        if (n > 0) {
          size_t sep = level[from + n].min_key.size();
          if (bytes + sep > kSplitBytes) break;
          bytes += sep;
        }
        ++n;
      }
      auto parent = std::make_unique<Node>();
      parent->leaf = false;
      Built b;
      b.min_key = level[from].min_key;
      b.min_rid = level[from].min_rid;
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) {
          AEDB_RETURN_IF_ERROR(InsertKeyAt(parent.get(), parent->count(),
                                           level[from + i].min_key,
                                           level[from + i].min_rid));
        }
        parent->children.push_back(std::move(level[from + i].node));
      }
      b.node = std::move(parent);
      parents.push_back(std::move(b));
      from += n;
    }
    level = std::move(parents);
  }
  root_ = std::move(level.front().node);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Comparisons

Result<int> BTree::Cmp(Slice a, Slice b) const {
  comparisons_.fetch_add(1, std::memory_order_relaxed);
  return comparator_->Compare(a, b);
}

Result<int> BTree::CmpEntry(Slice key, Rid rid, const NodeView& view,
                            size_t i) const {
  int c;
  AEDB_ASSIGN_OR_RETURN(c, Cmp(key, view.key(i)));
  if (c != 0) return c;
  uint64_t a = rid.Encode(), b = view.node->rids[i].Encode();
  return a < b ? -1 : (a > b ? 1 : 0);
}

Result<std::vector<int>> BTree::CmpNodeFrom(Slice probe, const Node* node,
                                            size_t from) const {
  NodeView view;
  AEDB_ASSIGN_OR_RETURN(view, View(node));
  std::vector<Slice> keys;
  keys.reserve(node->count() - from);
  for (size_t i = from; i < node->count(); ++i) {
    keys.push_back(view.key(i));
  }
  comparisons_.fetch_add(keys.size(), std::memory_order_relaxed);
  return comparator_->CompareBatch(probe, keys);
}

namespace {
constexpr Rid kMinRid{0, 0};

/// (key, kMinRid) entry order derived from a raw key comparison: on a key
/// tie, kMinRid sorts before any real rid (only a zero-encoded rid ties).
int EntryCmpMinRid(int key_cmp, Rid entry_rid) {
  if (key_cmp != 0) return key_cmp;
  return entry_rid.Encode() == 0 ? 0 : -1;
}
}  // namespace

Result<size_t> BTree::ChildIndex(const Node* node, Slice key) const {
  // This overload is used by (key, kMinRid) searches only; see InsertRec for
  // the rid-aware descent.
  if (comparator_->PrefersBatch() && node->count() > 1) {
    // One boundary crossing for the whole node beats log2(n) crossings even
    // though it compares every key (the comparator told us so).
    std::vector<int> cmps;
    AEDB_ASSIGN_OR_RETURN(cmps, CmpNodeFrom(key, node, 0));
    size_t lo = 0;
    while (lo < cmps.size() && EntryCmpMinRid(cmps[lo], node->rids[lo]) >= 0) {
      ++lo;
    }
    return lo;
  }
  size_t lo = 0, hi = node->count();
  NodeView view;
  if (hi > 0) AEDB_ASSIGN_OR_RETURN(view, View(node));
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    int c;
    AEDB_ASSIGN_OR_RETURN(c, CmpEntry(key, kMinRid, view, mid));
    if (c < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Mutation

Result<bool> BTree::InsertRec(Node* node, const Bytes& key, Rid rid,
                              std::unique_ptr<SplitResult>* split) {
  if (node->leaf) {
    // Binary search for the (key, rid) position, pin scoped to the search so
    // InsertKeyAt/SplitNode re-pin without stacking.
    size_t lo = 0, hi = node->count();
    {
      NodeView view;
      if (hi > 0) AEDB_ASSIGN_OR_RETURN(view, View(node));
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        int c;
        AEDB_ASSIGN_OR_RETURN(c, CmpEntry(key, rid, view, mid));
        if (c < 0) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
    }
    AEDB_RETURN_IF_ERROR(InsertKeyAt(node, lo, key, rid));
    if (Overfull(node)) AEDB_RETURN_IF_ERROR(SplitNode(node, split));
    return true;
  }

  // Internal: rid-aware descent.
  size_t lo = 0, hi = node->count();
  {
    NodeView view;
    if (hi > 0) AEDB_ASSIGN_OR_RETURN(view, View(node));
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      int c;
      AEDB_ASSIGN_OR_RETURN(c, CmpEntry(key, rid, view, mid));
      if (c < 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
  }
  std::unique_ptr<SplitResult> child_split;
  bool inserted;
  AEDB_ASSIGN_OR_RETURN(inserted,
                        InsertRec(node->children[lo].get(), key, rid,
                                  &child_split));
  if (child_split != nullptr) {
    AEDB_RETURN_IF_ERROR(InsertKeyAt(node, lo, child_split->separator,
                                     child_split->separator_rid));
    node->children.insert(node->children.begin() + lo + 1,
                          std::move(child_split->right));
    if (Overfull(node)) AEDB_RETURN_IF_ERROR(SplitNode(node, split));
  }
  return inserted;
}

Status BTree::SplitNode(Node* node, std::unique_ptr<SplitResult>* split) {
  size_t mid = node->count() / 2;
  auto result = std::make_unique<SplitResult>();
  auto right = std::make_unique<Node>();
  right->leaf = node->leaf;
  if (node->leaf) {
    AEDB_RETURN_IF_ERROR(MoveTail(node, mid, right.get()));
    AEDB_ASSIGN_OR_RETURN(result->separator, KeyAt(right.get(), 0));
    result->separator_rid = right->rids.front();
    right->next = node->next;
    node->next = right.get();
  } else {
    // Entry `mid` is promoted: copy it out as the separator, move the tail
    // past it to the right node, then drop it from this one.
    AEDB_ASSIGN_OR_RETURN(result->separator, KeyAt(node, mid));
    result->separator_rid = node->rids[mid];
    AEDB_RETURN_IF_ERROR(MoveTail(node, mid + 1, right.get()));
    for (size_t i = mid + 1; i < node->children.size(); ++i) {
      right->children.push_back(std::move(node->children[i]));
    }
    node->children.resize(mid + 1);
    AEDB_RETURN_IF_ERROR(RemoveKeyAt(node, mid));
  }
  result->right = std::move(right);
  *split = std::move(result);
  return Status::OK();
}

Result<bool> BTree::Insert(const Bytes& key, Rid rid) {
  if (key.size() > kMaxKeyBytes) {
    return Status::InvalidArgument("index key exceeds kMaxKeyBytes");
  }
  std::unique_lock lock(mu_);
  if (unique_) {
    std::vector<Rid> existing;
    AEDB_ASSIGN_OR_RETURN(existing, SeekEqualLocked(key));
    if (!existing.empty()) return false;
  }
  std::unique_ptr<SplitResult> split;
  AEDB_RETURN_IF_ERROR(InsertRec(root_.get(), key, rid, &split).status());
  if (split != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    AEDB_RETURN_IF_ERROR(InsertKeyAt(new_root.get(), 0, split->separator,
                                     split->separator_rid));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  ++size_;
  return true;
}

Result<bool> BTree::Delete(const Bytes& key, Rid rid) {
  std::unique_lock lock(mu_);
  // Descend rid-aware to the leaf that would hold (key, rid).
  Node* node = root_.get();
  while (!node->leaf) {
    size_t lo = 0, hi = node->count();
    NodeView view;
    if (hi > 0) AEDB_ASSIGN_OR_RETURN(view, View(node));
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      int c;
      AEDB_ASSIGN_OR_RETURN(c, CmpEntry(key, rid, view, mid));
      if (c < 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    node = node->children[lo].get();
  }
  size_t pos;
  {
    size_t lo = 0, hi = node->count();
    NodeView view;
    if (hi > 0) AEDB_ASSIGN_OR_RETURN(view, View(node));
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      int c;
      AEDB_ASSIGN_OR_RETURN(c, CmpEntry(key, rid, view, mid));
      if (c < 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    // The match, if present, is the entry just before the insert position.
    if (lo == 0) return false;
    pos = lo - 1;
    int c;
    AEDB_ASSIGN_OR_RETURN(c, CmpEntry(key, rid, view, pos));
    if (c != 0) return false;
  }
  AEDB_RETURN_IF_ERROR(RemoveKeyAt(node, pos));
  --size_;
  // Lazy deletion: no rebalance; empty leaves are skipped by iterators.
  return true;
}

// ---------------------------------------------------------------------------
// Lookup

Result<std::vector<Rid>> BTree::SeekEqual(Slice key) const {
  std::shared_lock lock(mu_);
  return SeekEqualLocked(key);
}

Result<std::vector<Rid>> BTree::SeekEqualLocked(Slice key) const {
  std::vector<Rid> out;
  Iterator it;
  AEDB_ASSIGN_OR_RETURN(it, SeekAtLeastLocked(key));
  const Node* node = static_cast<const Node*>(it.node_);
  size_t pos = it.pos_;
  if (comparator_->PrefersBatch()) {
    // Leaf-at-a-time: one batched call checks every candidate in the node.
    while (node != nullptr) {
      if (pos >= node->count()) {
        node = node->next;
        pos = 0;
        continue;
      }
      std::vector<int> cmps;
      AEDB_ASSIGN_OR_RETURN(cmps, CmpNodeFrom(key, node, pos));
      for (size_t i = 0; i < cmps.size(); ++i) {
        if (cmps[i] != 0) return out;
        out.push_back(node->rids[pos + i]);
      }
      node = node->next;
      pos = 0;
    }
    return out;
  }
  while (node != nullptr) {
    if (pos >= node->count()) {
      node = node->next;
      pos = 0;
      continue;
    }
    NodeView view;
    AEDB_ASSIGN_OR_RETURN(view, View(node));
    for (; pos < node->count(); ++pos) {
      int c;
      AEDB_ASSIGN_OR_RETURN(c, Cmp(view.key(pos), key));
      if (c != 0) return out;
      out.push_back(node->rids[pos]);
    }
    node = node->next;
    pos = 0;
  }
  return out;
}

Result<std::vector<Rid>> BTree::SeekRange(const Bytes* lower,
                                          bool lower_inclusive,
                                          const Bytes* upper,
                                          bool upper_inclusive) const {
  std::shared_lock lock(mu_);
  std::vector<Rid> out;
  Iterator start;
  if (lower != nullptr) {
    AEDB_ASSIGN_OR_RETURN(start, SeekAtLeastLocked(*lower));
  } else {
    start = BeginLocked();
  }
  const Node* node = static_cast<const Node*>(start.node_);
  size_t pos = start.pos_;
  // SeekAtLeast lands on the first key >= lower; an exclusive lower bound
  // additionally skips the run of keys equal to it.
  bool skipping_equal = lower != nullptr && !lower_inclusive;

  if (comparator_->PrefersBatch()) {
    while (node != nullptr) {
      if (pos >= node->count()) {
        node = node->next;
        pos = 0;
        continue;
      }
      if (skipping_equal) {
        std::vector<int> cmps;
        AEDB_ASSIGN_OR_RETURN(cmps, CmpNodeFrom(*lower, node, pos));
        size_t i = 0;
        while (i < cmps.size() && cmps[i] == 0) ++i;
        pos += i;
        if (i < cmps.size()) skipping_equal = false;
        if (pos >= node->count()) {
          node = node->next;
          pos = 0;
          continue;
        }
      }
      if (upper == nullptr) {
        for (size_t i = pos; i < node->rids.size(); ++i) {
          out.push_back(node->rids[i]);
        }
      } else {
        std::vector<int> cmps;
        AEDB_ASSIGN_OR_RETURN(cmps, CmpNodeFrom(*upper, node, pos));
        for (size_t i = 0; i < cmps.size(); ++i) {
          bool in = upper_inclusive ? cmps[i] >= 0 : cmps[i] > 0;
          if (!in) return out;
          out.push_back(node->rids[pos + i]);
        }
      }
      node = node->next;
      pos = 0;
    }
    return out;
  }

  // Scalar path: entry-at-a-time with early exit past the upper bound, one
  // pin per visited leaf.
  while (node != nullptr) {
    if (pos >= node->count()) {
      node = node->next;
      pos = 0;
      continue;
    }
    NodeView view;
    AEDB_ASSIGN_OR_RETURN(view, View(node));
    for (; pos < node->count(); ++pos) {
      if (skipping_equal) {
        int c;
        AEDB_ASSIGN_OR_RETURN(c, Cmp(*lower, view.key(pos)));
        if (c == 0) continue;
        skipping_equal = false;
      }
      if (upper != nullptr) {
        int c;
        AEDB_ASSIGN_OR_RETURN(c, Cmp(*upper, view.key(pos)));
        bool in = upper_inclusive ? c >= 0 : c > 0;
        if (!in) return out;
      }
      out.push_back(node->rids[pos]);
    }
    node = node->next;
    pos = 0;
  }
  return out;
}

Result<Bytes> BTree::Iterator::key() const {
  return tree_->KeyAt(static_cast<const Node*>(node_), pos_);
}

Rid BTree::Iterator::rid() const {
  const Node* n = static_cast<const Node*>(node_);
  return n->rids[pos_];
}

void BTree::Iterator::Next() {
  const Node* n = static_cast<const Node*>(node_);
  ++pos_;
  while (n != nullptr && pos_ >= n->count()) {
    n = n->next;
    pos_ = 0;
  }
  node_ = n;
}

BTree::Iterator BTree::Begin() const {
  std::shared_lock lock(mu_);
  return BeginLocked();
}

BTree::Iterator BTree::BeginLocked() const {
  const Node* n = root_.get();
  while (!n->leaf) n = n->children.front().get();
  while (n != nullptr && n->count() == 0) n = n->next;
  Iterator it;
  it.tree_ = this;
  it.node_ = n;
  it.pos_ = 0;
  return it;
}

Result<BTree::Iterator> BTree::SeekAtLeast(Slice key) const {
  std::shared_lock lock(mu_);
  return SeekAtLeastLocked(key);
}

Result<BTree::Iterator> BTree::SeekAtLeastLocked(Slice key) const {
  const Node* node = root_.get();
  while (!node->leaf) {
    size_t idx;
    AEDB_ASSIGN_OR_RETURN(idx, ChildIndex(node, key));
    node = node->children[idx].get();
  }
  size_t lo;
  if (comparator_->PrefersBatch() && node->count() > 1) {
    std::vector<int> cmps;
    AEDB_ASSIGN_OR_RETURN(cmps, CmpNodeFrom(key, node, 0));
    lo = 0;
    while (lo < cmps.size() && EntryCmpMinRid(cmps[lo], node->rids[lo]) > 0) {
      ++lo;
    }
  } else {
    lo = 0;
    size_t hi = node->count();
    NodeView view;
    if (hi > 0) AEDB_ASSIGN_OR_RETURN(view, View(node));
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      int c;
      AEDB_ASSIGN_OR_RETURN(c, CmpEntry(key, kMinRid, view, mid));
      if (c <= 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
  }
  Iterator it;
  const Node* n = node;
  size_t pos = lo;
  while (n != nullptr && pos >= n->count()) {
    n = n->next;
    pos = 0;
  }
  it.tree_ = this;
  it.node_ = n;
  it.pos_ = pos;
  return it;
}

int BTree::height() const {
  std::shared_lock lock(mu_);
  int h = 1;
  const Node* n = root_.get();
  while (!n->leaf) {
    ++h;
    n = n->children.front().get();
  }
  return h;
}

}  // namespace aedb::storage
