#ifndef BULLFROG_MIGRATION_CONFIG_H_
#define BULLFROG_MIGRATION_CONFIG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "storage/tuple.h"

namespace bullfrog {

/// Migration strategies evaluated in §4.
enum class MigrationStrategy : uint8_t {
  kLazy,      ///< BullFrog: immediate logical switch, lazy physical move.
  kEager,     ///< Block affected tables, move everything, then serve.
  kMultiStep, ///< Background shadow copy + dual writes; switch when caught up.
};

/// How duplicate migrations are detected (§3.7).
enum class DuplicateDetection : uint8_t {
  /// Pre-check via BullFrog's bitmap/hashmap lock+migrate state (Alg. 2/3).
  kTracker,
  /// INSERT ... ON CONFLICT DO NOTHING at insert time into the new schema;
  /// requires deterministic unique keys on the output tables. Conflicting
  /// workers duplicate transform work, which one insert then discards.
  kOnConflictClause,
};

/// Tunables for the lazy strategy.
struct LazyConfig {
  /// Rows per bitmap granule (1 = tuple granularity; >1 = the page
  /// granularity mode of Fig 11).
  uint64_t granularity = 1;

  DuplicateDetection duplicate_detection = DuplicateDetection::kTracker;

  /// Algorithm 1 line 10: whether a worker whose SKIP list is non-empty
  /// waits for the owning workers (sleeping between re-checks) or spins
  /// through the loop immediately. The no-wait variant is the §4.4.2
  /// verification experiment.
  bool wait_on_skip = true;
  int64_t skip_recheck_us = 100;
  /// Upper bound on total SKIP waiting before giving up with kTimedOut.
  int64_t skip_timeout_ms = 20000;

  /// Maximum retries when a migration transaction dies to wait-die.
  int retry_limit = 64;

  /// Fig 9 ablation: when false, no tracker is consulted or maintained;
  /// only valid when the workload itself guarantees exactly-once access.
  bool maintain_tracker = true;

  /// Background migration (§2.2).
  int background_threads = 2;
  int64_t background_start_delay_ms = 2000;
  /// Units (granules/groups) per background chunk. A chunk commits once,
  /// or every StatementMigrator::kRowsPerMigrationTxn source rows while a
  /// request is waiting on the statement.
  uint64_t background_batch = 64;
  /// Sleep between background batches (pacing, so background work does not
  /// starve foreground transactions).
  int64_t background_pause_us = 200;

  /// Invoked for every row a migration inserts into an output table that
  /// declares a FOREIGN KEY (table name, row). The controller wires this to
  /// its FOREIGN KEY checker, producing the §4.5 effect: constraints
  /// declared on the new schema force extra reads (and possibly extra
  /// migrations) per migrated row. Null = no constraint checking during
  /// migration.
  std::function<Status(const std::string&, const Tuple&)> constraint_hook;
};

/// Counters exported by a statement migrator (monotonic, relaxed).
struct MigrationStats {
  std::atomic<uint64_t> units_migrated{0};
  // Breakdown of units_migrated by who pulled the granule through:
  //   lazy       = a client statement's pre-execution migration pass
  //                (wait_for_skipped path),
  //   background = the background migrator's chunked sweep,
  //   forced     = the §3.7 ON CONFLICT path (ForceMigrated after a
  //                blind write claimed the unit without reading sources).
  // Invariant: lazy + background + forced == units_migrated; the obs
  // layer exports these and tests reconcile them with Progress().
  std::atomic<uint64_t> units_lazy{0};
  std::atomic<uint64_t> units_background{0};
  std::atomic<uint64_t> units_forced{0};
  std::atomic<uint64_t> rows_migrated{0};
  std::atomic<uint64_t> rows_emitted{0};
  std::atomic<uint64_t> skip_encounters{0};
  std::atomic<uint64_t> skip_wait_loops{0};
  std::atomic<uint64_t> txn_retries{0};
  std::atomic<uint64_t> txn_aborts{0};
  std::atomic<uint64_t> duplicate_inserts_discarded{0};
  std::atomic<uint64_t> already_migrated_hits{0};
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_CONFIG_H_
