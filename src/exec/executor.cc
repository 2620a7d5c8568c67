#include "exec/executor.h"

#include <memory>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace subshare {

std::string ExecutionMetrics::ExplainMetrics() const {
  std::string out = StrFormat(
      "%-38s %12s %12s %8s %10s %10s\n", "operator", "rows_in", "rows_out",
      "batches", "open_ms", "next_ms");
  std::string phase;
  for (const OperatorMetrics& m : operators) {
    if (m.phase != phase) {
      phase = m.phase;
      out += "[" + phase + "]\n";
    }
    std::string label(static_cast<size_t>(2 * m.depth), ' ');
    label += m.op;
    out += StrFormat("  %-36s %12lld %12lld %8lld %10.3f %10.3f\n",
                     label.c_str(), static_cast<long long>(m.rows_in),
                     static_cast<long long>(m.rows_out),
                     static_cast<long long>(m.batches), m.open_ns / 1e6,
                     m.next_ns / 1e6);
  }
  out += StrFormat(
      "  scanned=%lld spooled=%lld spool_read=%lld elapsed=%.3fms\n",
      static_cast<long long>(rows_scanned),
      static_cast<long long>(rows_spooled),
      static_cast<long long>(spool_rows_read), elapsed_seconds * 1e3);
  out += StrFormat(
      "  probe_windows=%lld probe_keys=%lld\n",
      static_cast<long long>(probe_windows),
      static_cast<long long>(probe_keys));
  return out;
}

std::vector<StatementResult> ExecutePlan(const ExecutablePlan& plan,
                                         ExecutionMetrics* metrics) {
  return ExecutePlan(plan, ExecOptions(), metrics);
}

std::vector<StatementResult> ExecutePlan(const ExecutablePlan& plan,
                                         const ExecOptions& options,
                                         ExecutionMetrics* metrics) {
  WallTimer timer;
  WorkTableManager work_tables;
  ExecContext ctx;
  ctx.work_tables = &work_tables;
  ctx.mode = options.mode;
  ctx.time_operators = options.time_operators && metrics != nullptr;

  // Materialize each chosen CSE once (paper: the spool operator writes the
  // result into an internal work table). The batched path hands whole
  // RowBatches to the work table instead of appending row by row.
  //
  // With a result cache attached, a keyed spool whose cached artifact is
  // still valid is installed straight from the cache (only the C_R reads
  // remain — the §5.2 recycled costing); freshly evaluated keyed spools are
  // admitted with benefit = the initial cost (C_E + C_W) a future hit saves.
  // The check is deliberately independent of `cse.recycled`: a plan-cache
  // hit replays a plan costed cold, but its spool may be cached by now.
  int64_t spools_recycled = 0;
  int64_t spools_admitted = 0;
  int64_t spool_bytes = 0;
  int64_t spool_bytes_row_model = 0;
  for (const ExecutablePlan::CsePlan& cse : plan.cse_plans) {
    ctx.phase = StrFormat("cse %d", cse.cse_id);
    WorkTable* wt = work_tables.Create(cse.cse_id, cse.spool_schema);
    if (options.result_cache != nullptr && !cse.cache_key.empty()) {
      cache::ResultCache::Pin entry =
          options.result_cache->Lookup(cse.cache_key, /*count_stats=*/true);
      if (entry != nullptr) {
        // Zero-copy install: consumers scan the cached columns directly.
        // The aliasing shared_ptr pins the whole entry, so a concurrent
        // eviction or version bump cannot free the spool mid-scan.
        wt->InstallShared(std::shared_ptr<const ColumnStore>(
            entry, &entry->data));
        ++spools_recycled;
        spool_bytes += wt->columns().ByteSize();
        spool_bytes_row_model += RowModelBytes(wt->columns());
        continue;
      }
    }
    std::unique_ptr<Operator> op = BuildOperator(*cse.plan, &ctx);
    op->Open();
    if (ctx.mode == ExecMode::kBatch) {
      RowBatch batch;
      while (op->NextBatch(&batch)) {
        ctx.rows_spooled += batch.size();
        wt->AppendBatch(batch.data(), batch.size());
      }
    } else {
      Row row;
      while (op->Next(&row)) {
        ++ctx.rows_spooled;
        wt->AppendRow(row);
      }
    }
    spool_bytes += wt->columns().ByteSize();
    spool_bytes_row_model += RowModelBytes(wt->columns());
    if (options.result_cache != nullptr && options.admit_results &&
        !cse.cache_key.empty()) {
      if (options.result_cache->Admit(cse.cache_key, cse.dep_tables,
                                      cse.spool_schema, wt->columns(),
                                      cse.initial_cost)) {
        ++spools_admitted;
      }
    }
  }

  CHECK(plan.root != nullptr);
  CHECK(plan.root->kind == PhysOpKind::kBatch);
  std::vector<StatementResult> results;
  results.reserve(plan.root->children.size());
  for (size_t i = 0; i < plan.root->children.size(); ++i) {
    ctx.phase = StrFormat("stmt %d", static_cast<int>(i));
    StatementResult r;
    r.rows = RunToVector(*plan.root->children[i], &ctx);
    results.push_back(std::move(r));
  }

  if (metrics != nullptr) {
    metrics->rows_scanned = ctx.rows_scanned;
    metrics->rows_spooled = ctx.rows_spooled;
    metrics->spool_rows_read = ctx.spool_rows_read;
    metrics->spools_recycled = spools_recycled;
    metrics->spools_admitted = spools_admitted;
    metrics->spool_bytes = spool_bytes;
    metrics->spool_bytes_row_model = spool_bytes_row_model;
    metrics->probe_windows = ctx.probe_windows;
    metrics->probe_keys = ctx.probe_keys;
    metrics->elapsed_seconds = timer.ElapsedSeconds();
    metrics->operators.clear();
    metrics->operators.reserve(ctx.op_stats().size());
    for (const auto& s : ctx.op_stats()) {
      std::string op = s->label;
      if (s->fused) op += " (fused)";
      metrics->operators.push_back({s->phase, std::move(op), s->depth,
                                    s->rows_in, s->rows_out, s->batches,
                                    s->open_ns, s->next_ns});
    }
  }
  return results;
}

}  // namespace subshare
