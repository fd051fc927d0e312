#ifndef BULLFROG_REPLICATION_WAL_DIR_H_
#define BULLFROG_REPLICATION_WAL_DIR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "bullfrog/database.h"
#include "common/status.h"
#include "txn/log_file.h"

namespace bullfrog::replication {

/// Checkpoint-aware durability directory. Before this layer the daemon's
/// recovery story was a single ever-growing log file replayed from record
/// zero; WalDir bounds restart time by pairing rotated WAL segments with
/// checkpoints and replaying only the suffix past the newest checkpoint.
///
/// Layout (all offsets are absolute redo-log LSNs, the same numbers
/// RedoLog::size() and REPLICATE use):
///   wal-<base>.log   records starting at LSN <base>
///   ckpt-<offset>.bf checkpoint covering every record below <offset>
///
/// Recovery starts the in-memory RedoLog at the newest checkpoint's
/// offset (0 for a fresh directory) and appends the replayed suffix at
/// its own LSNs, so no translation is needed anywhere. Segments normally
/// rotate at a checkpoint so none straddles it, but recovery still skips
/// the already-covered prefix of a straddling segment for robustness.
///
/// Usage (bullfrog_serverd --data-dir):
///   WalDir wal;
///   BF_RETURN_NOT_OK(wal.Open(dir));
///   BF_RETURN_NOT_OK(wal.Recover(&db));      // load ckpt + replay suffix
///   BF_RETURN_NOT_OK(wal.StartLogging(&db)); // attach the segment sink
///   ... serve; periodically or via ADMIN "checkpoint": ...
///   BF_RETURN_NOT_OK(wal.Checkpoint(&db));   // write ckpt, rotate, GC
class WalDir {
 public:
  WalDir() = default;
  ~WalDir();

  WalDir(const WalDir&) = delete;
  WalDir& operator=(const WalDir&) = delete;

  /// Binds to `dir`, creating it if missing.
  Status Open(const std::string& dir);

  /// Restores the newest checkpoint (if any) into `db` — which must be
  /// empty — then replays every segment record past it through a
  /// LogApplier, repopulating the tables and appending to the in-memory
  /// redo log at the records' own LSNs. With `lease_ms` > 0 the
  /// recovered base is leased for that long (RedoLog::Lease), so a
  /// replica can resume its cursor across this restart.
  ///
  /// If the replayed suffix leaves a lazy migration incomplete, call
  /// db->controller().RecoverFromRedoLog() afterwards when this node is a
  /// primary: replay submits with replicated_replay set, and a primary
  /// must own its migration again (trackers, background threads).
  Status Recover(Database* db, int64_t lease_ms = 0);

  /// Attaches a sink writing committed batches to a fresh segment.
  Status StartLogging(Database* db);

  /// Captures a checkpoint (kBusy only in the cases CaptureCheckpoint
  /// lists: a non-lazy, script-less or keyless-output migration in
  /// flight, or one completing mid-capture), writes it as
  /// ckpt-<offset>.bf, rotates to a new segment, and garbage-collects
  /// segments and checkpoints the new checkpoint supersedes.
  Status Checkpoint(Database* db);

 private:
  Status RotateSegment(Database* db);

  std::string dir_;
  std::shared_ptr<LogFileWriter> writer_;
};

}  // namespace bullfrog::replication

#endif  // BULLFROG_REPLICATION_WAL_DIR_H_
