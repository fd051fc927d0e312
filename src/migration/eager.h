#ifndef BULLFROG_MIGRATION_EAGER_H_
#define BULLFROG_MIGRATION_EAGER_H_

#include "catalog/catalog.h"
#include "common/status.h"
#include "migration/spec.h"
#include "txn/txn_manager.h"

namespace bullfrog {

/// The eager baseline of §4: "the system immediately physically moves all
/// data stored under the old schema into tables in the new schema prior to
/// becoming available to client requests over the new schema."
///
/// Expects the plan's output tables to already exist and its input tables
/// to be retired (frozen). Runs synchronously in the calling thread; the
/// MigrationController holds exclusive gates on the output tables while
/// this executes, which is what queues concurrent client requests (the
/// downtime the paper measures).
///
/// Each internal transaction migrates one sweep chunk: up to `batch_rows`
/// units (granules or groups) of one statement.
Status RunEagerMigration(Catalog* catalog, TransactionManager* txns,
                         const MigrationPlan& plan, uint64_t batch_rows = 4096);

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_EAGER_H_
