#ifndef BULLFROG_QUERY_SCAN_H_
#define BULLFROG_QUERY_SCAN_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "mvcc/version.h"
#include "query/expr.h"
#include "storage/table.h"

namespace bullfrog {

/// How a scan was (or would be) executed — surfaced for tests, EXPLAIN-style
/// diagnostics and the paper's discussion of predicate-driven laziness.
struct ScanPlan {
  bool used_index = false;
  std::string index_name;
  /// Equality key used for the index probe, when used_index.
  Tuple probe_key;
  /// Residual predicate applied row-by-row (bound); may be null.
  ExprPtr residual;
};

/// Plans a filtered scan of `table` for predicate `pred` (over the table's
/// own schema, unbound). Picks the most selective index fully covered by
/// the predicate's top-level equality conjuncts, falling back to a full
/// scan. `pred` may be null (scan everything).
Result<ScanPlan> PlanScan(const Table& table, const ExprPtr& pred);

/// Executes a filtered scan: invokes fn(rid, row) for each matching row,
/// stopping early if fn returns false. Returns the plan used.
Result<ScanPlan> ScanWhere(
    const Table& table, const ExprPtr& pred,
    const std::function<bool(RowId, const Tuple&)>& fn);

/// Convenience: collects matching rows.
Result<std::vector<std::pair<RowId, Tuple>>> CollectWhere(const Table& table,
                                                          const ExprPtr& pred);

/// Snapshot variants: rows are resolved against `view` instead of the
/// latest version. Index probes still run against the latest index state,
/// so the *full* bound predicate is re-applied to each resolved row (a
/// probed rid's snapshot version may no longer match the probe key).
/// Caveat: a delete (or a key-changing update) drops the row's old index
/// entries when it is installed, not when it commits, so an index-probed
/// snapshot read misses such a row even while that write is pending;
/// heap scans (no usable index) are exact. See DESIGN.md.
Result<ScanPlan> ScanWhereAt(
    const Table& table, const ExprPtr& pred, const mvcc::ReadView& view,
    const std::function<bool(RowId, const Tuple&)>& fn);

Result<std::vector<std::pair<RowId, Tuple>>> CollectWhereAt(
    const Table& table, const ExprPtr& pred, const mvcc::ReadView& view);

}  // namespace bullfrog

#endif  // BULLFROG_QUERY_SCAN_H_
