#include "migration/eager.h"

#include <unordered_set>

#include "migration/statement_migrator.h"

namespace bullfrog {

Status RunEagerMigration(Catalog* catalog, TransactionManager* txns,
                         const MigrationPlan& plan, uint64_t batch_rows) {
  // Reuse the statement migrators in sweep mode: with the tables gated
  // there is no contention, so the tracker is pure bookkeeping, the sweep
  // visits every unit exactly once and, with no request waiting, each
  // chunk commits as one transaction.
  LazyConfig config;
  config.granularity = 64;  // Bulk-friendly granule size.
  config.background_batch = batch_rows;
  for (const MigrationStatement& stmt : plan.statements) {
    BF_ASSIGN_OR_RETURN(
        std::unique_ptr<StatementMigrator> migrator,
        MakeStatementMigrator(catalog, txns, stmt, config));
    bool done = false;
    while (!done) {
      BF_RETURN_NOT_OK(
          migrator->MigrateBackgroundChunk(batch_rows, &done).status());
    }
  }
  return Status::OK();
}

}  // namespace bullfrog
