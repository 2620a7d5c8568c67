// Pull-based execution operators for PhysicalNode trees.
//
// Every operator yields rows in its node's declared output Layout; internal
// layouts (e.g. the natural concatenation of join inputs) are remapped via
// precomputed index vectors at Open() time.
//
// Operators expose two pull interfaces:
//   - Next(Row*): the original row-at-a-time Volcano path, kept as the
//     reference implementation and for selective plans.
//   - NextBatch(RowBatch*): the vectorized path. Hot operators (scans,
//     filter, hash join, hash aggregation, project, sort, spool scan)
//     override it with batch-level implementations; everything else falls
//     back to a default adapter that loops Next(), so operators migrate
//     incrementally. A plan is driven in exactly one mode (ExecContext::mode)
//     from root to leaves — the two interfaces share operator state and must
//     not be interleaved on the same tree.
#ifndef SUBSHARE_PHYSICAL_OPERATORS_H_
#define SUBSHARE_PHYSICAL_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "physical/physical_plan.h"
#include "physical/row_batch.h"
#include "storage/work_table.h"

namespace subshare {

// How a plan tree is pulled.
enum class ExecMode {
  kRowAtATime,  // Next(Row*) from root to leaves
  kBatch,       // NextBatch(RowBatch*) from root to leaves
};

// Per-operator-instance execution counters, registered with the ExecContext
// at build time (pre-order, so registration order prints as a plan tree).
// Times are inclusive of children (wall time spent inside Open/Next calls of
// this operator, which pull from its children).
struct OperatorStats {
  std::string label;   // operator kind, e.g. "HashJoin"
  std::string phase;   // which plan this operator belongs to ("cse 3", "stmt 0")
  int depth = 0;       // depth in its plan tree (for indented dumps)
  OperatorStats* parent = nullptr;
  bool fused = false;  // scan consumed in place by its parent (batch mode)
  int64_t rows_in = 0;    // rows pulled from children
  int64_t rows_out = 0;   // rows produced
  int64_t batches = 0;    // batches produced (batch mode only)
  int64_t open_ns = 0;    // inclusive wall ns spent in Open()
  int64_t next_ns = 0;    // inclusive wall ns spent in Next()/NextBatch()
};

// Shared execution state: work tables for spooled CSE results, the pull
// mode, and counters.
struct ExecContext {
  WorkTableManager* work_tables = nullptr;
  ExecMode mode = ExecMode::kBatch;
  // When false, per-operator wall-clock timing is skipped (row-count
  // counters stay on). Benchmarks comparing the two pull modes disable it
  // so the row-at-a-time path is not penalized by per-row clock reads.
  bool time_operators = true;

  int64_t rows_scanned = 0;      // base-table + work-table rows read
  int64_t rows_spooled = 0;      // rows written into work tables
  int64_t spool_rows_read = 0;   // rows read back out of work tables
  int64_t probe_windows = 0;     // hash-join probe windows (FindBatch calls)
  int64_t probe_keys = 0;        // probe keys resolved through those windows

  // Label applied to operators registered from now on (set by the executor
  // before building each CSE / statement plan).
  std::string phase;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  OperatorStats* RegisterOp(const char* label);
  const std::vector<std::unique_ptr<OperatorStats>>& op_stats() const {
    return op_stats_;
  }

  // Build-time bookkeeping used by BuildOperator (pre-order stats stack).
  std::vector<OperatorStats*> build_stack_;
  std::vector<std::unique_ptr<OperatorStats>> op_stats_;
};

class CompiledPredicate;

// In-place access to an opened scan's backing columnar storage, used for
// scan fusion in batch mode: consumers that only read their input
// (hash-join probe, hash aggregation) filter windows of the backing columns
// through the scan's compiled predicate and gather only what they need —
// instead of pulling fully materialized row copies through NextBatch.
// Valid only after the scan's Open(); the backing store must stay immutable
// for the consumer's lifetime (base tables and fully-materialized work
// tables qualify; work tables are always built before their consumers run).
struct ScanSource {
  const ColumnStore* store = nullptr;               // backing columns
  const std::vector<int64_t>* positions = nullptr;  // index-scan rows, else dense
  const CompiledPredicate* pred = nullptr;  // scan filter kernels + residual
  Layout storage;        // layout of the backing columns (store order)
  bool count_spool_reads = false;  // credit ExecContext::spool_rows_read
  OperatorStats* stats = nullptr;  // the scan's stats (fused consumers credit it)
};

class Operator {
 public:
  explicit Operator(ExecContext* ctx);
  virtual ~Operator() = default;

  // Prepares the operator (binds expressions, materializes build sides).
  void Open();
  // Produces the next row (in the node's output layout); false at end.
  bool Next(Row* out);
  // Clears `out` and fills it with up to out->capacity() rows. Returns
  // false iff the operator is exhausted and no rows were produced; a true
  // return implies out->size() >= 1.
  bool NextBatch(RowBatch* out);
  // Non-null iff this operator is an opened scan over stable storage that a
  // batch-mode parent may consume in place (see ScanSource).
  virtual ScanSource* AsScanSource() { return nullptr; }

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextImpl(Row* out) = 0;
  // Default adapter: loops NextImpl until the batch is full.
  virtual bool NextBatchImpl(RowBatch* out);

  // Drains `child` to completion honoring ctx_->mode (used by blocking
  // operators that materialize an input in OpenImpl).
  void DrainChild(Operator* child, std::vector<Row>* out);

  ExecContext* ctx_;
  OperatorStats* stats_ = nullptr;
};

// Instantiates the operator implementing `node` (recursively).
std::unique_ptr<Operator> BuildOperator(const PhysicalNode& node,
                                        ExecContext* ctx);

// Runs `node` to completion (honoring ctx->mode) and returns all rows.
std::vector<Row> RunToVector(const PhysicalNode& node, ExecContext* ctx);

}  // namespace subshare

#endif  // SUBSHARE_PHYSICAL_OPERATORS_H_
