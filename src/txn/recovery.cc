#include "txn/recovery.h"

#include <vector>

namespace bullfrog {

void RecoverTrackerState(
    const RedoLog& log,
    const std::unordered_map<std::string, TrackerRecoveryTarget*>& targets) {
  for (const auto& [tracker_id, target] : targets) {
    for (const Tuple& key : log.MarksFor(tracker_id)) {
      target->MarkMigratedFromLog(key);
    }
  }
}

}  // namespace bullfrog
