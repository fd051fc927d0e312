#include "migration/hash_tracker.h"

namespace bullfrog {

HashTracker::HashTracker(std::string id, size_t partitions)
    : id_(std::move(id)), partitions_(partitions) {}

AcquireResult HashTracker::TryAcquire(const Tuple& key) {
  Partition& p = PartitionFor(key);
  std::lock_guard lock(p.mu);
  auto [it, inserted] = p.map.emplace(key, GroupState::kInProgress);
  if (inserted) return AcquireResult::kAcquired;  // Alg. 3 line 13.
  switch (it->second) {
    case GroupState::kInProgress:
      return AcquireResult::kInProgress;  // Lines 5-6.
    case GroupState::kAborted:
      it->second = GroupState::kInProgress;  // Lines 7-9.
      return AcquireResult::kAcquired;
    case GroupState::kMigrated:
      return AcquireResult::kAlreadyMigrated;
  }
  return AcquireResult::kAlreadyMigrated;
}

void HashTracker::MarkMigrated(const Tuple& key) {
  Partition& p = PartitionFor(key);
  std::lock_guard lock(p.mu);
  auto it = p.map.find(key);
  if (it == p.map.end() || it->second == GroupState::kMigrated) return;
  it->second = GroupState::kMigrated;
  migrated_count_.fetch_add(1, std::memory_order_acq_rel);
}

void HashTracker::ResetAborted(const Tuple& key) {
  Partition& p = PartitionFor(key);
  std::lock_guard lock(p.mu);
  auto it = p.map.find(key);
  if (it == p.map.end() || it->second != GroupState::kInProgress) return;
  it->second = GroupState::kAborted;
}

void HashTracker::ForceMigrated(const Tuple& key) {
  Partition& p = PartitionFor(key);
  std::lock_guard lock(p.mu);
  auto [it, inserted] = p.map.emplace(key, GroupState::kMigrated);
  if (inserted) {
    migrated_count_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  if (it->second != GroupState::kMigrated) {
    it->second = GroupState::kMigrated;
    migrated_count_.fetch_add(1, std::memory_order_acq_rel);
  }
}

bool HashTracker::IsMigrated(const Tuple& key) const {
  const Partition& p = PartitionFor(key);
  std::lock_guard lock(p.mu);
  auto it = p.map.find(key);
  return it != p.map.end() && it->second == GroupState::kMigrated;
}

std::optional<GroupState> HashTracker::GetState(const Tuple& key) const {
  const Partition& p = PartitionFor(key);
  std::lock_guard lock(p.mu);
  auto it = p.map.find(key);
  if (it == p.map.end()) return std::nullopt;
  return it->second;
}

void HashTracker::MarkMigratedFromLog(const Tuple& unit_key) {
  ForceMigrated(unit_key);
}

}  // namespace bullfrog
