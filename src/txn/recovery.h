#ifndef BULLFROG_TXN_RECOVERY_H_
#define BULLFROG_TXN_RECOVERY_H_

#include <string>
#include <unordered_map>

#include "common/status.h"
#include "storage/tuple.h"
#include "txn/wal.h"

namespace bullfrog {

/// Implemented by migration trackers (bitmap and hashmap) so recovery can
/// re-mark units that were migrated by committed transactions.
class TrackerRecoveryTarget {
 public:
  virtual ~TrackerRecoveryTarget() = default;

  /// Re-applies a committed migration mark: the unit identified by
  /// `unit_key` is set to migrated ([0 1] in a bitmap / `migrated` in a
  /// hashmap). For bitmaps the key is a single-cell tuple holding the
  /// granule index; for hashmaps it is the group key.
  virtual void MarkMigratedFromLog(const Tuple& unit_key) = 0;
};

/// §3.5: "BullFrog's status tracking data structures are stored in
/// volatile memory. Upon a crash, they must be reinitialized. While the
/// REDO log is scanned during recovery, for each tuple (or group) that is
/// found in a committed migration transaction, the corresponding status is
/// set to [0 1] in the bitmap or migrated in the hashmap."
///
/// The original prototype notes this was not yet implemented; this
/// function implements it. It reads the log's committed-marks list
/// (RedoLog::MarksFor), not the row images, so it works whatever the log
/// still retains. Marks of transactions without a commit record never
/// enter that list (they were in flight at the crash), matching
/// write-ahead semantics.
///
/// `targets` maps tracker id (as passed to LogMigrationMark) to the
/// tracker to rebuild. Marks of other trackers are ignored (their
/// migrations may already be complete and dropped).
void RecoverTrackerState(
    const RedoLog& log,
    const std::unordered_map<std::string, TrackerRecoveryTarget*>& targets);

}  // namespace bullfrog

#endif  // BULLFROG_TXN_RECOVERY_H_
