#include "physical/operators.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "physical/column_kernels.h"
#include "util/check.h"
#include "util/hash.h"

namespace subshare {

namespace {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Index mapping from a source layout to a target layout.
std::vector<int> MappingTo(const Layout& source, const Layout& target) {
  std::vector<int> map;
  map.reserve(target.size());
  for (ColId c : target.cols()) {
    int idx = source.IndexOf(c);
    CHECK(idx >= 0) << "column c" << c << " not produced by child";
    map.push_back(idx);
  }
  return map;
}

// True if `map` is the identity over rows of width `source_width` (output
// rows can then be moved through instead of re-gathered).
bool IsIdentityMapping(const std::vector<int>& map, int source_width) {
  if (static_cast<int>(map.size()) != source_width) return false;
  for (size_t i = 0; i < map.size(); ++i) {
    if (map[i] != static_cast<int>(i)) return false;
  }
  return true;
}

Row ApplyMapping(const Row& source, const std::vector<int>& map) {
  Row out;
  out.reserve(map.size());
  for (int idx : map) out.push_back(source[idx]);
  return out;
}

// Hash of the key columns `idx` of `row`, combined exactly like
// HashRow(extracted key) so stored and by-reference keys agree.
size_t HashRowAt(const Row& row, const std::vector<int>& idx) {
  size_t seed = 0;
  for (int i : idx) HashCombine(&seed, row[i].Hash());
  return seed;
}

// Group key for hash aggregation / hash join build. The hash is computed
// once at construction; probes use RowKeyRef to look up without extracting
// (and re-hashing) a key row per probe.
struct RowKey {
  Row values;
  size_t hash;
  explicit RowKey(Row v) : values(std::move(v)), hash(HashRow(values)) {}
};

// A key described by (row, key column indexes) with a precomputed hash;
// used for heterogeneous (allocation-free) hash table probes.
struct RowKeyRef {
  const Row* row;
  const std::vector<int>* idx;
  size_t hash;
};

bool KeyValueEq(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null()) return false;
  return a.is_null() || a.Compare(b) == 0;
}

struct RowKeyHash {
  using is_transparent = void;
  size_t operator()(const RowKey& k) const { return k.hash; }
  size_t operator()(const RowKeyRef& k) const { return k.hash; }
};

struct RowKeyEq {
  using is_transparent = void;
  bool operator()(const RowKey& a, const RowKey& b) const {
    if (a.values.size() != b.values.size()) return false;
    for (size_t i = 0; i < a.values.size(); ++i) {
      if (!KeyValueEq(a.values[i], b.values[i])) return false;
    }
    return true;
  }
  bool operator()(const RowKeyRef& a, const RowKey& b) const {
    if (a.idx->size() != b.values.size()) return false;
    for (size_t i = 0; i < b.values.size(); ++i) {
      if (!KeyValueEq((*a.row)[(*a.idx)[i]], b.values[i])) return false;
    }
    return true;
  }
  bool operator()(const RowKey& a, const RowKeyRef& b) const {
    return operator()(b, a);
  }
  bool operator()(const RowKeyRef& a, const RowKeyRef& b) const {
    if (a.idx->size() != b.idx->size()) return false;
    for (size_t i = 0; i < a.idx->size(); ++i) {
      if (!KeyValueEq((*a.row)[(*a.idx)[i]], (*b.row)[(*b.idx)[i]])) {
        return false;
      }
    }
    return true;
  }
};

template <typename V>
using RowKeyMap = std::unordered_map<RowKey, V, RowKeyHash, RowKeyEq>;

bool HasNullAt(const Row& row, const std::vector<int>& idx) {
  for (int i : idx) {
    if (row[i].is_null()) return true;
  }
  return false;
}

// Open-addressed hash table over one uint64 join key: maps key -> chain of
// build-row indexes (power-of-two capacity, linear probing). The batch
// engine's probe table for equi-joins: the int fast path stores the exact
// int64 key bits (chains are per-key), the generic path stores the RowKey
// hash (chains may interleave hash-colliding keys; callers filter at emit).
// Building and probing do no per-row allocation, unlike the RowKey map.
//
// Probes run per window through FindBatch (DESIGN.md §11): one
// straight-line loop with a single-entry memo, so clustered probe keys
// (e.g. lineitem by l_orderkey) resolve each run of equal keys once.
struct ChainTable {
  struct Slot {
    uint64_t key;       // valid where head >= 0
    int32_t head = -1;  // first build-row index, -1 = empty
  };
  std::vector<Slot> slots;
  std::vector<int32_t> next;  // build row -> next row with the same slot key
  size_t mask = 0;

  static uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Inserts keys[i] -> rows[i] chains. `num_rows` sizes next (row indexes
  // index into it); n <= num_rows since null-key rows are pre-filtered by
  // the caller.
  void Build(const uint64_t* keys, const int32_t* rows, int n, int num_rows) {
    size_t cap = 16;
    while (cap < static_cast<size_t>(num_rows) * 2) cap <<= 1;
    mask = cap - 1;
    slots.assign(cap, Slot());
    next.assign(static_cast<size_t>(num_rows), -1);
    for (int i = 0; i < n; ++i) {
      const uint64_t k = keys[i];
      size_t s = Mix(k) & mask;
      while (slots[s].head >= 0 && slots[s].key != k) s = (s + 1) & mask;
      slots[s].key = k;
      next[static_cast<size_t>(rows[i])] = slots[s].head;
      slots[s].head = rows[i];
    }
  }

  int32_t Find(uint64_t k) const {
    size_t s = Mix(k) & mask;
    while (slots[s].head >= 0) {
      if (slots[s].key == k) return slots[s].head;
      s = (s + 1) & mask;
    }
    return -1;
  }

  // Resolves the chain head for each of keys[0, n) into heads[0, n).
  void FindBatch(const uint64_t* keys, int n, int32_t* heads) const {
    uint64_t last_key = 0;
    int32_t last_head = -1;
    bool has_last = false;
    for (int i = 0; i < n; ++i) {
      if (!has_last || keys[i] != last_key) {
        has_last = true;
        last_key = keys[i];
        last_head = Find(last_key);
      }
      heads[i] = last_head;
    }
  }
};

// ---------------------------------------------------------------- scans ---

// Filters one window of a scan — [start, start+n) dense rows, or that slice
// of `pos` — into `sel` (absolute row ids): compiled kernels first, then the
// row-level residual (gathered into *scratch only for kernel survivors).
// Returns the survivor count. Shared by the scan operators and both fused
// consumers (hash-join probe, hash aggregation).
int FilterWindow(const ColumnStore& store, const std::vector<int64_t>* pos,
                 const CompiledPredicate& pred, int64_t start, int n,
                 int32_t* sel, Row* scratch) {
  int count = pos != nullptr
                  ? pred.FilterPositions(pos->data() + start, n, sel)
                  : pred.FilterDense(start, n, sel);
  return ApplyRowResidual(store, pred.residual(), sel, count, scratch);
}

// Table scan and spool scan share the same shape: iterate a backing
// ColumnStore, apply the scan predicate, emit rows in the output layout.
// The batched path runs the compiled kernels over a window of rows into a
// selection vector and gathers only the surviving rows' output columns —
// row materialization happens exclusively at this columnar/row boundary.
class ScanBase : public Operator {
 public:
  ScanBase(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node) {}

  ScanSource* AsScanSource() override {
    if (store_ == nullptr) return nullptr;  // not opened yet
    source_info_.store = store_;
    source_info_.positions = use_positions_ ? &positions_ : nullptr;
    source_info_.pred = &pred_;
    source_info_.storage = storage_layout_;
    source_info_.count_spool_reads = count_spool_reads_;
    source_info_.stats = stats_;
    return &source_info_;
  }

 protected:
  // Subclasses set these in OpenImpl (store_ before OpenScan).
  const ColumnStore* store_ = nullptr;  // backing columns
  std::vector<int64_t> positions_;      // index-scan row positions
  bool use_positions_ = false;
  bool count_spool_reads_ = false;
  ExprPtr bound_filter_;
  CompiledPredicate pred_;
  std::vector<int> map_;  // output col -> store col
  int64_t cursor_ = 0;

  void OpenScan(const Layout& storage_layout) {
    storage_layout_ = storage_layout;
    bound_filter_ = node_.filter ? BindExpr(node_.filter, storage_layout)
                                 : nullptr;
    pred_ = CompiledPredicate::Compile(bound_filter_, *store_);
    map_ = MappingTo(storage_layout, node_.output);
    cursor_ = 0;
  }

  // Row mode stays the reference implementation: gather the row, evaluate
  // the bound filter with EvalPredicate, remap.
  bool NextImpl(Row* out) override {
    int64_t limit = use_positions_ ? static_cast<int64_t>(positions_.size())
                                   : store_->num_rows();
    while (cursor_ < limit) {
      int64_t r = use_positions_ ? positions_[cursor_] : cursor_;
      ++cursor_;
      ++ctx_->rows_scanned;
      if (count_spool_reads_) ++ctx_->spool_rows_read;
      store_->GetRow(r, &scratch_);
      if (bound_filter_ != nullptr && !EvalPredicate(bound_filter_, scratch_)) {
        continue;
      }
      *out = ApplyMapping(scratch_, map_);
      return true;
    }
    return false;
  }

  bool NextBatchImpl(RowBatch* out) override {
    int64_t limit = use_positions_ ? static_cast<int64_t>(positions_.size())
                                   : store_->num_rows();
    while (out->empty() && cursor_ < limit) {
      int window = static_cast<int>(
          std::min<int64_t>(out->capacity(), limit - cursor_));
      ctx_->rows_scanned += window;
      if (count_spool_reads_) ctx_->spool_rows_read += window;
      sel_.resize(static_cast<size_t>(window));
      int count = FilterWindow(*store_, use_positions_ ? &positions_ : nullptr,
                               pred_, cursor_, window, sel_.data(), &scratch_);
      GatherInto(*store_, sel_.data(), count, map_, out);
      cursor_ += window;
    }
    return !out->empty();
  }

  const PhysicalNode& node_;

 private:
  Layout storage_layout_;
  ScanSource source_info_;
  std::vector<int32_t> sel_;
  Row scratch_;
};

class TableScanOp : public ScanBase {
 public:
  using ScanBase::ScanBase;

  void OpenImpl() override {
    store_ = &node_.table->columns();
    Layout storage_layout(node_.input_cols);
    OpenScan(storage_layout);
    if (node_.kind == PhysOpKind::kIndexScan) {
      const SortedIndex* idx = node_.table->GetIndex(node_.index_range.column_idx);
      CHECK(idx != nullptr) << "missing index on " << node_.table->name();
      const Value* lo = node_.index_range.lo ? &*node_.index_range.lo : nullptr;
      const Value* hi = node_.index_range.hi ? &*node_.index_range.hi : nullptr;
      positions_ = idx->RangeLookup(lo, node_.index_range.lo_inclusive, hi,
                                    node_.index_range.hi_inclusive);
      use_positions_ = true;
    }
  }
};

class SpoolScanOp : public ScanBase {
 public:
  using ScanBase::ScanBase;

  void OpenImpl() override {
    const WorkTable* work_table = ctx_->work_tables->Get(node_.cse_id);
    CHECK(work_table != nullptr)
        << "CSE " << node_.cse_id << " was not materialized before use";
    store_ = &work_table->columns();
    Layout storage_layout(node_.input_cols);
    OpenScan(storage_layout);
    count_spool_reads_ = true;
  }
};

// --------------------------------------------------------------- filter ---

class FilterOp : public Operator {
 public:
  FilterOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    Layout child_layout = node_.children[0]->output;
    bound_pred_ = BindExpr(node_.filter, child_layout);
    map_ = MappingTo(child_layout, node_.output);
    identity_map_ = IsIdentityMapping(map_, child_layout.size());
  }

  bool NextImpl(Row* out) override {
    Row row;
    while (child_->Next(&row)) {
      if (EvalPredicate(bound_pred_, row)) {
        *out = ApplyMapping(row, map_);
        return true;
      }
    }
    return false;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (out->empty()) {
      if (!child_->NextBatch(&input_)) return false;
      int n = input_.size();
      keep_.assign(static_cast<size_t>(n), 1);
      EvalPredicateBatch(bound_pred_, &input_.row(0), n, keep_.data());
      for (int i = 0; i < n; ++i) {
        if (!keep_[i]) continue;
        if (identity_map_) {
          out->AppendMove(std::move(input_.row(i)));
        } else {
          out->AppendMapped(input_.row(i), map_);
        }
      }
    }
    return true;
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  ExprPtr bound_pred_;
  std::vector<int> map_;
  bool identity_map_ = false;
  RowBatch input_;
  std::vector<uint8_t> keep_;
};

// ---------------------------------------------------------------- joins ---

// Hash join: builds on the right child, probes with the left. Batched
// probes extract keys per window (in place, no key row allocated) and
// resolve all chain heads through one ChainTable::FindBatch pass. When the
// probe child is a scan over stable storage (ScanSource), the probe fuses
// with it: windows of the backing rows are filtered and probed in place,
// skipping the scan's per-row output copies entirely.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        left_(BuildOperator(*node.children[0], ctx)),
        right_(BuildOperator(*node.children[1], ctx)) {}

  void OpenImpl() override {
    const Layout& right_layout = node_.children[1]->output;
    right_key_idx_.clear();
    for (const auto& [l, r] : node_.join_keys) {
      int ri = right_layout.IndexOf(r);
      CHECK(ri >= 0) << "join key missing from build child layout";
      right_key_idx_.push_back(ri);
    }
    build_.clear();
    build_rows_.clear();
    std::vector<Row> build_rows;
    DrainChild(right_.get(), &build_rows);
    // The batch engine probes through the ChainTable in both flavors. The
    // common single integer-backed join key (every TPC-H equi-join) stores
    // the exact int64 key bits, skipping the variant dispatch of
    // Value::Hash/Compare and all per-row allocation on both build and
    // probe. The generic path (multi-column, double, string keys) stores
    // the RowKey hash; its chains may interleave hash-colliding keys, so
    // emission filters through ChainKeysMatch. Row mode keeps the RowKey
    // map as the plain reference implementation.
    int_key_ = ctx_->mode == ExecMode::kBatch && right_key_idx_.size() == 1;
    if (int_key_) {
      for (const Row& row : build_rows) {
        const Value& v = row[right_key_idx_[0]];
        if (!v.is_null() && (v.type() == DataType::kDouble ||
                             v.type() == DataType::kString)) {
          int_key_ = false;
          break;
        }
      }
    }
    if (ctx_->mode == ExecMode::kBatch) {
      build_rows_ = std::move(build_rows);
      std::vector<uint64_t> keys;
      std::vector<int32_t> key_rows;
      keys.reserve(build_rows_.size());
      key_rows.reserve(build_rows_.size());
      for (size_t i = 0; i < build_rows_.size(); ++i) {
        const Row& row = build_rows_[i];
        if (HasNullAt(row, right_key_idx_)) continue;  // nulls never join
        keys.push_back(
            int_key_
                ? static_cast<uint64_t>(row[right_key_idx_[0]].AsInt64())
                : static_cast<uint64_t>(HashRowAt(row, right_key_idx_)));
        key_rows.push_back(static_cast<int32_t>(i));
      }
      table_.Build(keys.data(), key_rows.data(), static_cast<int>(keys.size()),
                   static_cast<int>(build_rows_.size()));
    } else {
      build_.reserve(build_rows.size());
      for (Row& row : build_rows) {
        if (HasNullAt(row, right_key_idx_)) continue;  // nulls never join
        RowKey key(ApplyMapping(row, right_key_idx_));
        build_[std::move(key)].push_back(std::move(row));
      }
    }

    left_->Open();
    // Scan fusion: probe the left scan's backing rows in place. Probe-side
    // key indexes, the residual, and the output map then bind against the
    // scan's storage layout instead of its (never materialized) output.
    fused_ = ctx_->mode == ExecMode::kBatch ? left_->AsScanSource() : nullptr;
    if (fused_ != nullptr) fused_->stats->fused = true;
    const Layout& left_layout =
        fused_ != nullptr ? fused_->storage : node_.children[0]->output;

    left_key_idx_.clear();
    for (const auto& [l, r] : node_.join_keys) {
      int li = left_layout.IndexOf(l);
      CHECK(li >= 0) << "join key missing from probe child layout";
      left_key_idx_.push_back(li);
    }
    // Concatenated layout for residual evaluation and output mapping.
    std::vector<ColId> concat = left_layout.cols();
    concat.insert(concat.end(), right_layout.cols().begin(),
                  right_layout.cols().end());
    Layout concat_layout(std::move(concat));
    bound_residual_ = node_.join_residual
                          ? BindExpr(node_.join_residual, concat_layout)
                          : nullptr;
    map_ = MappingTo(concat_layout, node_.output);
    left_width_ = left_layout.size();
    // Split the output map into per-side copy lists so the no-residual emit
    // path copies straight from the source rows, without a per-column
    // side branch.
    out_left_.clear();
    out_right_.clear();
    for (size_t j = 0; j < map_.size(); ++j) {
      if (map_[j] < left_width_) {
        out_left_.push_back({static_cast<int>(j), map_[j]});
      } else {
        out_right_.push_back({static_cast<int>(j), map_[j] - left_width_});
      }
    }

    // Fused probes gather the probe row only when it has matches (and only
    // the columns the output copies), so filtered-out and matchless rows
    // never materialize. A residual (or the general hash path) needs the
    // full storage-width row.
    left_gather_.clear();
    if (fused_ != nullptr) {
      if (int_key_ && bound_residual_ == nullptr) {
        for (const OutCopy& c : out_left_) left_gather_.push_back(c.src);
      } else {
        for (int i = 0; i < left_width_; ++i) left_gather_.push_back(i);
      }
    }

    matches_ = nullptr;
    match_idx_ = 0;
    chain_ = -1;
    cur_head_ = -1;
    cur_left_ = nullptr;
    probe_.clear();
    probe_idx_ = 0;
    batch_heads_.clear();
    fcursor_ = 0;
    win_count_ = 0;
    win_idx_ = 0;
  }

  bool NextImpl(Row* out) override {
    // Parents lacking a batch implementation (driven through the default
    // NextBatch adapter) still pull row-wise while the tree runs in batch
    // mode. OpenImpl's batch-mode bindings (fused storage layout, int64
    // table) are only valid for the batch machinery, so route such pulls
    // through it one row at a time.
    if (ctx_->mode == ExecMode::kBatch) return NextRowViaBatch(out);
    while (true) {
      if (matches_ != nullptr && match_idx_ < matches_->size()) {
        const Row& right_row = (*matches_)[match_idx_++];
        Row concat = current_left_;
        concat.insert(concat.end(), right_row.begin(), right_row.end());
        if (bound_residual_ != nullptr &&
            !EvalPredicate(bound_residual_, concat)) {
          continue;
        }
        *out = ApplyMapping(concat, map_);
        return true;
      }
      if (!left_->Next(&current_left_)) return false;
      if (HasNullAt(current_left_, left_key_idx_)) {
        matches_ = nullptr;
        continue;
      }
      RowKeyRef ref{&current_left_, &left_key_idx_,
                    HashRowAt(current_left_, left_key_idx_)};
      auto it = build_.find(ref);
      matches_ = it == build_.end() ? nullptr : &it->second;
      match_idx_ = 0;
    }
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full()) {
      // Emit the full chain for the current probe row first (may overshoot
      // capacity slightly; bounded by one chain).
      if (chain_ >= 0) {
        do {
          const Row& right = build_rows_[static_cast<size_t>(chain_)];
          chain_ = table_.next[static_cast<size_t>(chain_)];
          // Generic-path chains are keyed by hash; drop colliding keys.
          if (!int_key_ && !ChainKeysMatch(*cur_left_, right)) continue;
          Emit(*cur_left_, right, out);
        } while (chain_ >= 0);
        continue;
      }
      if (!AdvanceProbe()) break;
    }
    return !out->empty();
  }

 private:
  // Row-wise pull driven by a batch-mode parent without a batch
  // implementation: same advance/probe/emit machinery as NextBatchImpl,
  // yielding one row per call.
  bool NextRowViaBatch(Row* out) {
    while (true) {
      if (chain_ >= 0) {
        const Row& right = build_rows_[static_cast<size_t>(chain_)];
        chain_ = table_.next[static_cast<size_t>(chain_)];
        if (!int_key_ && !ChainKeysMatch(*cur_left_, right)) continue;
        if (EmitRow(*cur_left_, right, out)) return true;
        continue;
      }
      if (!AdvanceProbe()) return false;
    }
  }

  // Exact key equality between a probe row and a chained build row, with
  // the same cross-type semantics the RowKey map used (KeyValueEq). Needed
  // on the generic path only: its chains are keyed by hash, so rows whose
  // keys collide share a chain.
  bool ChainKeysMatch(const Row& left_row, const Row& right_row) const {
    for (size_t i = 0; i < left_key_idx_.size(); ++i) {
      if (!KeyValueEq(left_row[left_key_idx_[i]],
                      right_row[right_key_idx_[i]])) {
        return false;
      }
    }
    return true;
  }

  // Acquires the next probe row whose chain head was resolved by the
  // window's FindBatch, setting chain_ and cur_left_ when it has (possible)
  // matches. Returns false at the end of the probe stream. A true return
  // with nothing matched just means the caller should advance again.
  bool AdvanceProbe() {
    if (fused_ != nullptr) {
      int32_t row_id = FusedAdvance();  // sets cur_head_ per surviving row
      if (row_id < 0) return false;
      if (cur_head_ >= 0) {
        chain_ = cur_head_;
        cur_left_ = GatherProbe(row_id);
      }
      return true;
    }
    const Row* probe = BatchAdvance();  // sets cur_head_
    if (probe == nullptr) return false;
    if (cur_head_ >= 0) {
      chain_ = cur_head_;
      cur_left_ = probe;
    }
    return true;
  }

  // Gathers the needed columns of fused probe row `row_id` into the probe
  // scratch row (full storage width; columns outside left_gather_ keep
  // stale values the emit path never reads).
  const Row* GatherProbe(int32_t row_id) {
    probe_scratch_.resize(static_cast<size_t>(left_width_));
    const ColumnStore& store = *fused_->store;
    for (int j : left_gather_) {
      probe_scratch_[static_cast<size_t>(j)] = store.column(j).Get(row_id);
    }
    return &probe_scratch_;
  }

  // Row-interface counterpart of Emit: writes the joined row to `out`;
  // false iff the residual rejected it.
  bool EmitRow(const Row& left_row, const Row& right_row, Row* out) {
    if (bound_residual_ == nullptr) {
      out->resize(map_.size());
      for (const OutCopy& c : out_left_) (*out)[c.dst] = left_row[c.src];
      for (const OutCopy& c : out_right_) (*out)[c.dst] = right_row[c.src];
      return true;
    }
    concat_.resize(static_cast<size_t>(left_width_) + right_row.size());
    for (int i = 0; i < left_width_; ++i) concat_[i] = left_row[i];
    for (size_t i = 0; i < right_row.size(); ++i) {
      concat_[left_width_ + i] = right_row[i];
    }
    if (!EvalPredicate(bound_residual_, concat_)) return false;
    *out = ApplyMapping(concat_, map_);
    return true;
  }

  // Extracts the int64 fast-path key of a non-null value, mirroring
  // Value::Compare's cross-type semantics: an integral double equals the
  // same int64; anything else cannot match an integer key.
  static bool IntValueKey(const Value& v, int64_t* key) {
    if (v.type() == DataType::kDouble) {
      double d = v.AsDouble();
      if (d != std::floor(d) || std::abs(d) >= 9.0e18) return false;
      *key = static_cast<int64_t>(d);
    } else if (v.type() == DataType::kString) {
      return false;
    } else {
      *key = v.AsInt64();
    }
    return true;
  }

  // Next probe row pulled through the child's batch interface; nullptr at
  // end of stream. Null-key rows never join and are skipped here; the rest
  // carry the chain head their batch's FindBatch window resolved.
  const Row* BatchAdvance() {
    while (true) {
      ++probe_idx_;
      if (probe_idx_ >= probe_.size()) {
        if (!left_->NextBatch(&probe_)) return nullptr;
        probe_idx_ = 0;
        ResolveBatchHeads();
      }
      const Row& row = probe_.row(probe_idx_);
      if (HasNullAt(row, left_key_idx_)) continue;
      cur_head_ = batch_heads_[static_cast<size_t>(probe_idx_)];
      return &row;
    }
  }

  // One probe window over a freshly pulled batch: extract each row's key
  // (null keys — and non-integer keys on the int path — resolve to "no
  // match" without touching the table), then resolve all chain heads in one
  // FindBatch pass.
  void ResolveBatchHeads() {
    const int n = probe_.size();
    batch_heads_.assign(static_cast<size_t>(n), -1);
    win_keys_.clear();
    key_rows_.clear();
    for (int i = 0; i < n; ++i) {
      const Row& row = probe_.row(i);
      if (HasNullAt(row, left_key_idx_)) continue;
      uint64_t key;
      if (int_key_) {
        int64_t ik;
        if (!IntValueKey(row[left_key_idx_[0]], &ik)) continue;
        key = static_cast<uint64_t>(ik);
      } else {
        key = HashRowAt(row, left_key_idx_);
      }
      win_keys_.push_back(key);
      key_rows_.push_back(i);
    }
    win_heads_.resize(win_keys_.size());
    table_.FindBatch(win_keys_.data(), static_cast<int>(win_keys_.size()),
                     win_heads_.data());
    for (size_t j = 0; j < key_rows_.size(); ++j) {
      batch_heads_[static_cast<size_t>(key_rows_[j])] = win_heads_[j];
    }
    NoteProbeWindow(static_cast<int>(win_keys_.size()));
  }

  // Probe-counter bookkeeping, one call per FindBatch window.
  void NoteProbeWindow(int keys) {
    if (keys == 0) return;
    ++ctx_->probe_windows;
    ctx_->probe_keys += keys;
  }

  // Next probe row id read in place from the fused scan's backing columns;
  // -1 at end of stream. Windows are filtered through the scan's compiled
  // kernels (plus row residual), then join-key null handling runs on the
  // surviving selection vector — nulls never join — and keys are extracted
  // into win_keys_ in the same typed pass (exact int64 bits on the fast
  // path, RowKey hashes on the generic path). Each window's chain heads are
  // then resolved in one FindBatch pass into win_heads_, so the per-row
  // resume only copies cur_head_. Surviving rows are probed without
  // materializing; GatherProbe copies one only when it matches. Scan
  // counters are credited per window, exactly as the scan itself would
  // credit them.
  int32_t FusedAdvance() {
    const ColumnStore& store = *fused_->store;
    const std::vector<int64_t>* pos = fused_->positions;
    const int64_t limit = pos != nullptr ? static_cast<int64_t>(pos->size())
                                         : store.num_rows();
    while (true) {
      if (win_idx_ < win_count_) {
        int i = win_idx_++;
        cur_head_ = win_heads_[i];
        return win_sel_[i];
      }
      if (fcursor_ >= limit) return -1;
      const int window = static_cast<int>(
          std::min<int64_t>(RowBatch::kDefaultCapacity, limit - fcursor_));
      ctx_->rows_scanned += window;
      if (fused_->count_spool_reads) ctx_->spool_rows_read += window;
      win_sel_.resize(static_cast<size_t>(window));
      int count = FilterWindow(store, pos, *fused_->pred, fcursor_, window,
                               win_sel_.data(), &scratch_row_);
      fcursor_ += window;
      if (int_key_) {
        const Column& kcol = store.column(left_key_idx_[0]);
        win_keys_.resize(static_cast<size_t>(count));
        const NullBitmap& nulls = kcol.nulls();
        int kept = 0;
        if (kcol.type() == DataType::kString) {
          count = 0;  // string keys never take the int path (IntValueKey)
        } else if (kcol.type() == DataType::kDouble) {
          const double* v = kcol.doubles();
          for (int i = 0; i < count; ++i) {
            int32_t r = win_sel_[i];
            if (nulls.any() && nulls.Test(r)) continue;
            double d = v[r];
            if (d != std::floor(d) || std::abs(d) >= 9.0e18) continue;
            win_sel_[kept] = r;
            win_keys_[kept] = static_cast<uint64_t>(static_cast<int64_t>(d));
            ++kept;
          }
          count = kept;
        } else if (nulls.any()) {
          const int64_t* v = kcol.ints();
          for (int i = 0; i < count; ++i) {
            int32_t r = win_sel_[i];
            if (nulls.Test(r)) continue;
            win_sel_[kept] = r;
            win_keys_[kept] = static_cast<uint64_t>(v[r]);
            ++kept;
          }
          count = kept;
        } else {
          const int64_t* v = kcol.ints();
          for (int i = 0; i < count; ++i) {
            win_keys_[i] = static_cast<uint64_t>(v[win_sel_[i]]);
          }
        }
      } else {
        for (int k : left_key_idx_) {
          const NullBitmap& nulls = store.column(k).nulls();
          if (!nulls.any()) continue;
          int kept = 0;
          for (int i = 0; i < count; ++i) {
            if (!nulls.Test(win_sel_[i])) win_sel_[kept++] = win_sel_[i];
          }
          count = kept;
        }
        // Generic path: hash the key columns straight off the backing
        // columns (same combination as HashRowAt on a gathered row).
        win_keys_.resize(static_cast<size_t>(count));
        for (int i = 0; i < count; ++i) {
          size_t seed = 0;
          for (int k : left_key_idx_) {
            HashCombine(&seed, store.column(k).Get(win_sel_[i]).Hash());
          }
          win_keys_[i] = seed;
        }
      }
      win_heads_.resize(static_cast<size_t>(count));
      table_.FindBatch(win_keys_.data(), count, win_heads_.data());
      NoteProbeWindow(count);
      fused_->stats->rows_out += count;
      stats_->rows_in += count;
      win_count_ = count;
      win_idx_ = 0;
    }
  }

  // Appends the join of (left_row, right_row) to `out`. Without a residual
  // the output columns copy straight from their source side; with one the
  // concatenated row is materialized first (scratch buffer reused).
  void Emit(const Row& left_row, const Row& right_row, RowBatch* out) {
    if (bound_residual_ == nullptr) {
      Row& dst = out->AppendSlot();
      dst.resize(map_.size());
      for (const OutCopy& c : out_left_) dst[c.dst] = left_row[c.src];
      for (const OutCopy& c : out_right_) dst[c.dst] = right_row[c.src];
      return;
    }
    concat_.resize(static_cast<size_t>(left_width_) + right_row.size());
    for (int i = 0; i < left_width_; ++i) concat_[i] = left_row[i];
    for (size_t i = 0; i < right_row.size(); ++i) {
      concat_[left_width_ + i] = right_row[i];
    }
    if (!EvalPredicate(bound_residual_, concat_)) return;
    out->AppendMapped(concat_, map_);
  }

  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  ExprPtr bound_residual_;
  std::vector<int> map_;
  struct OutCopy {
    int dst;  // output column
    int src;  // index on the source side
  };
  std::vector<OutCopy> out_left_;   // output columns copied from the left
  std::vector<OutCopy> out_right_;  // output columns copied from the right
  int left_width_ = 0;
  RowKeyMap<std::vector<Row>> build_;  // row-mode build table (reference)
  // Batch-mode probe machinery: drained build rows + the ChainTable over
  // them. int_key_ selects exact-int64 keys (per-key chains) vs. RowKey
  // hashes (chains filtered through ChainKeysMatch at emit).
  bool int_key_ = false;
  std::vector<Row> build_rows_;  // build rows owned by the batch paths
  ChainTable table_;
  int32_t chain_ = -1;     // next build-row index chained for cur_left_
  int32_t cur_head_ = -1;  // chain head resolved for the current probe row
  // Row-at-a-time probe state.
  Row current_left_;
  // Batched probe state.
  RowBatch probe_;
  int probe_idx_ = 0;
  std::vector<int32_t> batch_heads_;  // chain head per row of probe_
  std::vector<int> key_rows_;         // scratch: rows with probeable keys
  const Row* cur_left_ = nullptr;     // probe row owning `chain_`/`matches_`
  // Fused-scan probe state (filtered window over the scan's backing
  // columns; see FusedAdvance / GatherProbe).
  ScanSource* fused_ = nullptr;
  int64_t fcursor_ = 0;
  int win_count_ = 0;
  int win_idx_ = 0;
  std::vector<int32_t> win_sel_;    // surviving row ids of the window
  std::vector<uint64_t> win_keys_;  // their probe keys (both batch paths)
  std::vector<int32_t> win_heads_;  // their resolved chain heads
  std::vector<int> left_gather_;    // store columns GatherProbe must fill
  Row probe_scratch_;               // gathered probe row (fused path)
  Row scratch_row_;                 // residual-eval scratch (FilterWindow)
  Row concat_;  // reusable concat scratch row (residual path)
  const std::vector<Row>* matches_ = nullptr;  // row-mode match list
  size_t match_idx_ = 0;
};

// Nested-loop join with the right side materialized once.
class NlJoinOp : public Operator {
 public:
  NlJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        left_(BuildOperator(*node.children[0], ctx)),
        right_(BuildOperator(*node.children[1], ctx)) {}

  void OpenImpl() override {
    const Layout& left_layout = node_.children[0]->output;
    const Layout& right_layout = node_.children[1]->output;
    std::vector<ColId> concat = left_layout.cols();
    concat.insert(concat.end(), right_layout.cols().begin(),
                  right_layout.cols().end());
    Layout concat_layout(std::move(concat));
    bound_pred_ = node_.nl_pred ? BindExpr(node_.nl_pred, concat_layout)
                                : nullptr;
    map_ = MappingTo(concat_layout, node_.output);

    right_rows_.clear();
    DrainChild(right_.get(), &right_rows_);
    left_->Open();
    have_left_ = false;
    right_idx_ = 0;
  }

  bool NextImpl(Row* out) override {
    while (true) {
      if (!have_left_) {
        if (!left_->Next(&current_left_)) return false;
        have_left_ = true;
        right_idx_ = 0;
      }
      while (right_idx_ < right_rows_.size()) {
        const Row& right_row = right_rows_[right_idx_++];
        Row concat = current_left_;
        concat.insert(concat.end(), right_row.begin(), right_row.end());
        if (bound_pred_ != nullptr && !EvalPredicate(bound_pred_, concat)) {
          continue;
        }
        *out = ApplyMapping(concat, map_);
        return true;
      }
      have_left_ = false;
    }
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  ExprPtr bound_pred_;
  std::vector<int> map_;
  std::vector<Row> right_rows_;
  Row current_left_;
  bool have_left_ = false;
  size_t right_idx_ = 0;
};

// Sort-merge join: materializes and sorts both inputs on the join keys,
// then merges equal-key ranges (cross product within a range, filtered by
// the residual predicate).
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        left_(BuildOperator(*node.children[0], ctx)),
        right_(BuildOperator(*node.children[1], ctx)) {}

  void OpenImpl() override {
    const Layout& left_layout = node_.children[0]->output;
    const Layout& right_layout = node_.children[1]->output;
    left_key_idx_.clear();
    right_key_idx_.clear();
    for (const auto& [l, r] : node_.join_keys) {
      int li = left_layout.IndexOf(l);
      int ri = right_layout.IndexOf(r);
      CHECK(li >= 0 && ri >= 0) << "merge-join key missing from child";
      left_key_idx_.push_back(li);
      right_key_idx_.push_back(ri);
    }
    std::vector<ColId> concat = left_layout.cols();
    concat.insert(concat.end(), right_layout.cols().begin(),
                  right_layout.cols().end());
    Layout concat_layout(std::move(concat));
    bound_residual_ = node_.join_residual
                          ? BindExpr(node_.join_residual, concat_layout)
                          : nullptr;
    map_ = MappingTo(concat_layout, node_.output);

    auto drain_sorted = [this](Operator* op, const std::vector<int>& keys,
                               std::vector<Row>* out) {
      out->clear();
      DrainChild(op, out);
      // Null keys never join; drop them up front.
      out->erase(std::remove_if(out->begin(), out->end(),
                                [&keys](const Row& r) {
                                  return HasNullAt(r, keys);
                                }),
                 out->end());
      std::sort(out->begin(), out->end(),
                [&keys](const Row& a, const Row& b) {
                  for (int k : keys) {
                    int c = a[k].Compare(b[k]);
                    if (c != 0) return c < 0;
                  }
                  return false;
                });
    };
    drain_sorted(left_.get(), left_key_idx_, &left_rows_);
    drain_sorted(right_.get(), right_key_idx_, &right_rows_);
    li_ = ri_ = 0;
    range_li_ = range_lend_ = range_ri_ = range_rend_ = 0;
  }

  bool NextImpl(Row* out) override {
    while (true) {
      // Emit from the current equal-key rectangle.
      while (range_li_ < range_lend_) {
        if (range_ri_ >= range_rend_) {
          ++range_li_;
          range_ri_ = range_rbegin_;
          continue;
        }
        Row concat = left_rows_[range_li_];
        const Row& r = right_rows_[range_ri_++];
        concat.insert(concat.end(), r.begin(), r.end());
        if (bound_residual_ != nullptr &&
            !EvalPredicate(bound_residual_, concat)) {
          continue;
        }
        *out = ApplyMapping(concat, map_);
        return true;
      }
      // Advance to the next equal-key range.
      if (li_ >= left_rows_.size() || ri_ >= right_rows_.size()) return false;
      int c = CompareKeys(left_rows_[li_], right_rows_[ri_]);
      if (c < 0) {
        ++li_;
        continue;
      }
      if (c > 0) {
        ++ri_;
        continue;
      }
      size_t lend = li_ + 1;
      while (lend < left_rows_.size() &&
             CompareKeys(left_rows_[lend], right_rows_[ri_]) == 0) {
        ++lend;
      }
      size_t rend = ri_ + 1;
      while (rend < right_rows_.size() &&
             CompareKeys(left_rows_[li_], right_rows_[rend]) == 0) {
        ++rend;
      }
      range_li_ = li_;
      range_lend_ = lend;
      range_rbegin_ = range_ri_ = ri_;
      range_rend_ = rend;
      li_ = lend;
      ri_ = rend;
    }
  }

 private:
  int CompareKeys(const Row& l, const Row& r) const {
    for (size_t i = 0; i < left_key_idx_.size(); ++i) {
      int c = l[left_key_idx_[i]].Compare(r[right_key_idx_[i]]);
      if (c != 0) return c;
    }
    return 0;
  }

  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  ExprPtr bound_residual_;
  std::vector<int> map_;
  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;
  size_t li_ = 0, ri_ = 0;
  size_t range_li_ = 0, range_lend_ = 0;
  size_t range_rbegin_ = 0, range_ri_ = 0, range_rend_ = 0;
};

// Index nested-loop join: for every outer row, probes the inner base
// table's sorted index at the join-key value; inner local predicates and
// the residual are applied per match. Row-at-a-time only (chosen for
// selective plans); batch mode uses the default adapter.
class IndexNlJoinOp : public Operator {
 public:
  IndexNlJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        outer_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    const Layout& outer_layout = node_.children[0]->output;
    CHECK(node_.join_keys.size() == 1);
    outer_key_idx_ = outer_layout.IndexOf(node_.join_keys[0].first);
    CHECK(outer_key_idx_ >= 0) << "outer join key missing";
    index_ = node_.table->GetIndex(node_.index_range.column_idx);
    CHECK(index_ != nullptr) << "index missing on " << node_.table->name();
    // Pin the index for this operator's lifetime: a lazy rebuild (or Clear)
    // under us would invalidate the SortedIndex pointer; the pin turns that
    // into a loud DCHECK instead of a dangling read.
    index_pin_ = SortedIndex::Pin(index_);

    Layout inner_layout(node_.input_cols);
    bound_inner_filter_ =
        node_.filter ? BindExpr(node_.filter, inner_layout) : nullptr;
    std::vector<ColId> concat = outer_layout.cols();
    concat.insert(concat.end(), node_.input_cols.begin(),
                  node_.input_cols.end());
    Layout concat_layout(std::move(concat));
    bound_residual_ = node_.join_residual
                          ? BindExpr(node_.join_residual, concat_layout)
                          : nullptr;
    map_ = MappingTo(concat_layout, node_.output);
    outer_->Open();
    match_idx_ = 0;
    matches_.clear();
  }

  bool NextImpl(Row* out) override {
    while (true) {
      while (match_idx_ < matches_.size()) {
        node_.table->GetRow(matches_[match_idx_++], &inner_scratch_);
        const Row& inner = inner_scratch_;
        ++ctx_->rows_scanned;
        if (bound_inner_filter_ != nullptr &&
            !EvalPredicate(bound_inner_filter_, inner)) {
          continue;
        }
        Row concat = current_outer_;
        concat.insert(concat.end(), inner.begin(), inner.end());
        if (bound_residual_ != nullptr &&
            !EvalPredicate(bound_residual_, concat)) {
          continue;
        }
        *out = ApplyMapping(concat, map_);
        return true;
      }
      if (!outer_->Next(&current_outer_)) return false;
      const Value& key = current_outer_[outer_key_idx_];
      matches_.clear();
      match_idx_ = 0;
      if (key.is_null()) continue;  // nulls never join
      matches_ = index_->RangeLookup(&key, true, &key, true);
    }
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> outer_;
  int outer_key_idx_ = -1;
  const SortedIndex* index_ = nullptr;
  SortedIndex::Pin index_pin_;
  ExprPtr bound_inner_filter_;
  ExprPtr bound_residual_;
  std::vector<int> map_;
  Row current_outer_;
  Row inner_scratch_;  // gathered inner row (columnar storage)
  std::vector<int64_t> matches_;
  size_t match_idx_ = 0;
};

// ----------------------------------------------------------- aggregation ---

class HashAggOp : public Operator {
 public:
  HashAggOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    // Scan fusion: accumulate straight off the child scan's backing columns
    // (batch mode only). Group keys and aggregate arguments then bind
    // against a narrow layout holding only the columns the aggregation
    // reads; FusedAccumulate gathers exactly those per surviving row, so
    // unused columns of a wide table are never touched.
    ScanSource* fused =
        ctx_->mode == ExecMode::kBatch ? child_->AsScanSource() : nullptr;
    if (fused != nullptr) fused->stats->fused = true;
    Layout narrow_layout;
    narrow_map_.clear();
    if (fused != nullptr) {
      std::set<ColId> needed(node_.group_cols.begin(), node_.group_cols.end());
      for (const AggregateItem& a : node_.aggs) CollectColumns(a.arg, &needed);
      std::vector<ColId> cols;
      for (ColId c : needed) {
        int idx = fused->storage.IndexOf(c);
        CHECK(idx >= 0) << "agg input column missing from scan storage";
        cols.push_back(c);
        narrow_map_.push_back(idx);
      }
      narrow_layout = Layout(std::move(cols));
    }
    const Layout& child_layout =
        fused != nullptr ? narrow_layout : node_.children[0]->output;
    group_idx_.clear();
    for (ColId c : node_.group_cols) {
      int idx = child_layout.IndexOf(c);
      CHECK(idx >= 0) << "group column missing";
      group_idx_.push_back(idx);
    }
    bound_args_.clear();
    arg_idx_.clear();
    for (const AggregateItem& a : node_.aggs) {
      bound_args_.push_back(a.arg ? BindExpr(a.arg, child_layout) : nullptr);
      // Plain column arguments (the common case) are read straight from the
      // row, skipping the EvalExpr dispatch and its by-value return.
      const ExprPtr& b = bound_args_.back();
      arg_idx_.push_back(b != nullptr && b->kind == ExprKind::kBoundColumn
                             ? b->bound_index
                             : -1);
    }
    // Result layout: group cols then agg outputs.
    std::vector<ColId> natural = node_.group_cols;
    for (const AggregateItem& a : node_.aggs) natural.push_back(a.output);
    map_ = MappingTo(Layout(natural), node_.output);

    // Aggregate everything up front.
    RowKeyMap<std::vector<AggAccumulator>> groups;
    if (fused != nullptr) {
      FusedAccumulate(fused, &groups);
    } else if (ctx_->mode == ExecMode::kBatch) {
      RowBatch batch;
      while (child_->NextBatch(&batch)) {
        for (int i = 0; i < batch.size(); ++i) Accumulate(batch.row(i), &groups);
      }
    } else {
      Row row;
      while (child_->Next(&row)) Accumulate(row, &groups);
    }
    results_.clear();
    // Scalar aggregation (no group cols) over empty input yields one row.
    if (groups.empty() && node_.group_cols.empty()) {
      Row out_row;
      for (const AggregateItem& a : node_.aggs) {
        AggAccumulator acc(a.fn);
        out_row.push_back(acc.Final(ResultType(a)));
      }
      results_.push_back(ApplyMapping(out_row, map_));
    }
    for (auto& [key, accs] : groups) {
      Row natural_row = key.values;
      for (size_t i = 0; i < accs.size(); ++i) {
        natural_row.push_back(accs[i].Final(ResultType(node_.aggs[i])));
      }
      results_.push_back(ApplyMapping(natural_row, map_));
    }
    cursor_ = 0;
  }

  bool NextImpl(Row* out) override {
    if (cursor_ >= results_.size()) return false;
    *out = results_[cursor_++];
    return true;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full() && cursor_ < results_.size()) {
      out->AppendMove(std::move(results_[cursor_++]));
    }
    return !out->empty();
  }

 private:
  // Accumulates straight off a fused scan's backing columns: windows are
  // filtered through the scan's compiled kernels (plus row residual) and
  // each surviving row is gathered narrow — only the columns the group keys
  // and aggregate arguments read (narrow_map_) — before feeding the
  // accumulators. Scan counters are credited exactly as the scan itself
  // would credit them.
  void FusedAccumulate(ScanSource* src,
                       RowKeyMap<std::vector<AggAccumulator>>* groups) {
    const ColumnStore& store = *src->store;
    const std::vector<int64_t>* pos = src->positions;
    const int64_t limit = pos != nullptr ? static_cast<int64_t>(pos->size())
                                         : store.num_rows();
    std::vector<int32_t> sel;
    Row scratch;
    Row narrow(narrow_map_.size());
    for (int64_t start = 0; start < limit;) {
      int window = static_cast<int>(
          std::min<int64_t>(RowBatch::kDefaultCapacity, limit - start));
      ctx_->rows_scanned += window;
      if (src->count_spool_reads) ctx_->spool_rows_read += window;
      sel.resize(static_cast<size_t>(window));
      int count = FilterWindow(store, pos, *src->pred, start, window,
                               sel.data(), &scratch);
      src->stats->rows_out += count;
      stats_->rows_in += count;
      for (int i = 0; i < count; ++i) {
        int32_t r = sel[i];
        for (size_t j = 0; j < narrow_map_.size(); ++j) {
          store.column(narrow_map_[j]).GetInto(r, &narrow[j]);
        }
        Accumulate(narrow, groups);
      }
      start += window;
    }
  }

  // Group lookup probes with a RowKeyRef (no key extraction); the key row
  // is only materialized for new groups.
  void Accumulate(const Row& row, RowKeyMap<std::vector<AggAccumulator>>* groups) {
    RowKeyRef ref{&row, &group_idx_, HashRowAt(row, group_idx_)};
    auto it = groups->find(ref);
    if (it == groups->end()) {
      RowKey key(ApplyMapping(row, group_idx_));
      it = groups->try_emplace(std::move(key)).first;
      it->second.reserve(node_.aggs.size());
      for (const AggregateItem& a : node_.aggs) {
        it->second.emplace_back(a.fn);
      }
    }
    for (size_t i = 0; i < node_.aggs.size(); ++i) {
      if (arg_idx_[i] >= 0) {
        it->second[i].Update(row[arg_idx_[i]]);
        continue;
      }
      Value v = bound_args_[i] ? EvalExpr(bound_args_[i], row)
                               : Value::Int64(1);  // COUNT(*)
      it->second[i].Update(v);
    }
  }

  static DataType ResultType(const AggregateItem& a) {
    return AggResultType(a.fn,
                         a.arg ? a.arg->type : DataType::kInt64);
  }

  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  std::vector<int> group_idx_;
  std::vector<ExprPtr> bound_args_;
  std::vector<int> arg_idx_;  // column index per agg arg, -1 = general expr
  std::vector<int> map_;
  std::vector<int> narrow_map_;  // store columns gathered per row (fused)
  std::vector<Row> results_;
  size_t cursor_ = 0;
};

// -------------------------------------------------------- project / sort ---

class ProjectOp : public Operator {
 public:
  ProjectOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    const Layout& child_layout = node_.children[0]->output;
    bound_.clear();
    std::vector<ColId> natural;
    for (const ProjectItem& p : node_.projections) {
      bound_.push_back(BindExpr(p.expr, child_layout));
      natural.push_back(p.output);
    }
    map_ = MappingTo(Layout(natural), node_.output);
    // Compose projection + output mapping so the batched path writes each
    // output column directly (no intermediate natural row).
    composed_.clear();
    for (int idx : map_) composed_.push_back(bound_[idx]);
  }

  bool NextImpl(Row* out) override {
    Row row;
    if (!child_->Next(&row)) return false;
    Row natural;
    natural.reserve(bound_.size());
    for (const ExprPtr& e : bound_) natural.push_back(EvalExpr(e, row));
    *out = ApplyMapping(natural, map_);
    return true;
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (!child_->NextBatch(&input_)) return false;
    for (int i = 0; i < input_.size(); ++i) {
      const Row& src = input_.row(i);
      Row& dst = out->AppendSlot();
      dst.resize(composed_.size());
      for (size_t j = 0; j < composed_.size(); ++j) {
        dst[j] = EvalExpr(composed_[j], src);
      }
    }
    return !out->empty();
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  std::vector<ExprPtr> bound_;
  std::vector<int> map_;
  std::vector<ExprPtr> composed_;
  RowBatch input_;
};

class SortOp : public Operator {
 public:
  SortOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    const Layout& child_layout = node_.children[0]->output;
    key_idx_.clear();
    for (const SortKey& k : node_.sort_keys) {
      int idx = child_layout.IndexOf(k.col);
      CHECK(idx >= 0) << "sort key missing";
      key_idx_.push_back(idx);
    }
    map_ = MappingTo(child_layout, node_.output);
    rows_.clear();
    DrainChild(child_.get(), &rows_);
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       for (size_t i = 0; i < key_idx_.size(); ++i) {
                         int c = a[key_idx_[i]].Compare(b[key_idx_[i]]);
                         if (c != 0) {
                           return node_.sort_keys[i].descending ? c > 0
                                                                : c < 0;
                         }
                       }
                       return false;
                     });
    if (node_.limit >= 0 &&
        rows_.size() > static_cast<size_t>(node_.limit)) {
      rows_.resize(static_cast<size_t>(node_.limit));
    }
    cursor_ = 0;
  }

  bool NextImpl(Row* out) override {
    if (cursor_ >= rows_.size()) return false;
    *out = ApplyMapping(rows_[cursor_++], map_);
    return true;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full() && cursor_ < rows_.size()) {
      out->AppendMapped(rows_[cursor_++], map_);
    }
    return !out->empty();
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  std::vector<int> key_idx_;
  std::vector<int> map_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

}  // namespace

// ------------------------------------------------------- base machinery ---

OperatorStats* ExecContext::RegisterOp(const char* label) {
  auto stats = std::make_unique<OperatorStats>();
  stats->label = label;
  stats->phase = phase;
  stats->depth = static_cast<int>(build_stack_.size());
  stats->parent = build_stack_.empty() ? nullptr : build_stack_.back();
  OperatorStats* raw = stats.get();
  op_stats_.push_back(std::move(stats));
  return raw;
}

Operator::Operator(ExecContext* ctx) : ctx_(ctx) {
  // BuildOperator pushed this node's stats before constructing it (and
  // before its children are built inside the derived constructor).
  CHECK(!ctx->build_stack_.empty());
  stats_ = ctx->build_stack_.back();
}

void Operator::Open() {
  if (!ctx_->time_operators) {
    OpenImpl();
    return;
  }
  int64_t t0 = NowNanos();
  OpenImpl();
  stats_->open_ns += NowNanos() - t0;
}

bool Operator::Next(Row* out) {
  bool ok;
  if (ctx_->time_operators) {
    int64_t t0 = NowNanos();
    ok = NextImpl(out);
    stats_->next_ns += NowNanos() - t0;
  } else {
    ok = NextImpl(out);
  }
  if (ok) {
    ++stats_->rows_out;
    if (stats_->parent != nullptr) ++stats_->parent->rows_in;
  }
  return ok;
}

bool Operator::NextBatch(RowBatch* out) {
  out->clear();
  bool ok;
  if (ctx_->time_operators) {
    int64_t t0 = NowNanos();
    ok = NextBatchImpl(out);
    stats_->next_ns += NowNanos() - t0;
  } else {
    ok = NextBatchImpl(out);
  }
  if (ok) {
    ++stats_->batches;
    stats_->rows_out += out->size();
    if (stats_->parent != nullptr) stats_->parent->rows_in += out->size();
  }
  return ok;
}

bool Operator::NextBatchImpl(RowBatch* out) {
  Row row;
  while (!out->full()) {
    if (!NextImpl(&row)) break;
    out->AppendMove(std::move(row));
    row = Row();
  }
  return !out->empty();
}

void Operator::DrainChild(Operator* child, std::vector<Row>* out) {
  child->Open();
  if (ctx_->mode == ExecMode::kBatch) {
    RowBatch batch;
    while (child->NextBatch(&batch)) batch.MoveTo(out);
  } else {
    Row row;
    while (child->Next(&row)) {
      out->push_back(std::move(row));
      row = Row();
    }
  }
}

std::unique_ptr<Operator> BuildOperator(const PhysicalNode& node,
                                        ExecContext* ctx) {
  OperatorStats* stats = ctx->RegisterOp(PhysOpKindName(node.kind));
  ctx->build_stack_.push_back(stats);
  std::unique_ptr<Operator> op;
  switch (node.kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kIndexScan:
      op = std::make_unique<TableScanOp>(node, ctx);
      break;
    case PhysOpKind::kSpoolScan:
      op = std::make_unique<SpoolScanOp>(node, ctx);
      break;
    case PhysOpKind::kFilter:
      op = std::make_unique<FilterOp>(node, ctx);
      break;
    case PhysOpKind::kHashJoin:
      op = std::make_unique<HashJoinOp>(node, ctx);
      break;
    case PhysOpKind::kMergeJoin:
      op = std::make_unique<MergeJoinOp>(node, ctx);
      break;
    case PhysOpKind::kIndexNlJoin:
      op = std::make_unique<IndexNlJoinOp>(node, ctx);
      break;
    case PhysOpKind::kNlJoin:
      op = std::make_unique<NlJoinOp>(node, ctx);
      break;
    case PhysOpKind::kHashAgg:
      op = std::make_unique<HashAggOp>(node, ctx);
      break;
    case PhysOpKind::kProject:
      op = std::make_unique<ProjectOp>(node, ctx);
      break;
    case PhysOpKind::kSort:
      op = std::make_unique<SortOp>(node, ctx);
      break;
    case PhysOpKind::kBatch:
      CHECK(false) << "Batch nodes are executed by the Executor";
  }
  ctx->build_stack_.pop_back();
  return op;
}

std::vector<Row> RunToVector(const PhysicalNode& node, ExecContext* ctx) {
  std::unique_ptr<Operator> op = BuildOperator(node, ctx);
  op->Open();
  std::vector<Row> out;
  if (ctx->mode == ExecMode::kBatch) {
    RowBatch batch;
    while (op->NextBatch(&batch)) batch.MoveTo(&out);
  } else {
    Row row;
    while (op->Next(&row)) {
      out.push_back(std::move(row));
      row = Row();
    }
  }
  return out;
}

}  // namespace subshare
