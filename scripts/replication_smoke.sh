#!/usr/bin/env bash
# End-to-end smoke test for the replication subsystem: starts a primary
# bullfrog_serverd on an ephemeral loopback port, bootstraps a replica
# daemon from it (--replica-of), loads data and drives a lazy migration
# on the primary while the replica tails the log, then requires
#   1. the replica rejects writes with the read-only error,
#   2. the replica's ADMIN dump converges to the primary's (byte equal),
#   3. the primary's redo log retains nothing below the replica's
#      bootstrap offset (ADMIN offset retained_from),
#   4. both daemons' ADMIN metrics scrapes expose replication health
#      (apply lag gauge, read-through counter, migration unit counters),
#   5. both daemons exit 0 on SIGTERM.
# A second leg then checks checkpoint-corruption recovery on a durable
# (--data-dir) daemon: write, checkpoint, write more, stop, plant a
# garbage "newest" checkpoint, restart — all rows must survive and the
# daemon must log that it skipped the corrupt checkpoint.
# A third leg runs a durable primary with BF_WAL_FSYNC=1, streams
# single-row INSERTs through the group-commit WAL, kill -9s the primary
# mid-load, restarts it, verifies no acked insert was lost, then
# bootstraps a replica off the recovered primary and requires the dumps
# to converge (the LSN-keyed tail stream resumes cleanly post-crash).
# A fourth leg checkpoints mid-migration and bootstraps a replica from
# the in-flight migration.
# Run from the repo root with the build directory as $1 (default:
# build). Intended for the sanitizer CI legs: any leak or race aborts a
# daemon with a non-zero exit and fails the script.
set -euo pipefail

BUILD_DIR="${1:-build}"
source "$(dirname "$0")/smoke_lib.sh"

start_daemon "$(mktemp /tmp/bullfrog_primary.XXXXXX.log)" --port=0 --workers=8
PRIMARY_PID=$DAEMON_PID
PADDR=$DAEMON_ADDR
echo "primary up at $PADDR (pid $PRIMARY_PID)"

# Seed schema + rows before the replica bootstraps (checkpoint path),
# and leave more to arrive afterwards (tail path).
shell_run "$PADDR" <<'SQL'
CREATE TABLE accounts (id INT PRIMARY KEY, balance INT);
INSERT INTO accounts VALUES (1, 100), (2, 200), (3, 300), (4, 400);
SQL
# Nothing is written between here and the bootstrap, so this is the
# offset the replica's checkpoint covers.
log_bounds "$PADDR"
BOOT_OFFSET=$OFFSET

start_daemon "$(mktemp /tmp/bullfrog_replica.XXXXXX.log)" --port=0 \
  --workers=8 --replica-of="$PADDR"
REPLICA_PID=$DAEMON_PID
RADDR=$DAEMON_ADDR
echo "replica up at $RADDR (pid $REPLICA_PID)"

# Post-bootstrap writes ship over the tail stream.
shell_run "$PADDR" <<'SQL'
INSERT INTO accounts VALUES (5, 500), (6, 600);
UPDATE accounts SET balance = 150 WHERE id = 1;
DELETE FROM accounts WHERE id = 4;
SQL

# Writes against the replica must be rejected with the read-only error.
REJECT=$(run_sql "$RADDR" "INSERT INTO accounts VALUES (99, 9);")
if ! grep -q "read-only replica" <<<"$REJECT"; then
  echo "replica accepted a write (or wrong error): $REJECT"
  exit 1
fi
echo "replica write rejection OK"

# Live lazy migration on the primary while the replica tails it.
shell_run "$PADDR" <<'SQL'
.migrate
CREATE TABLE accounts_v2 PRIMARY KEY (id) AS
  SELECT id, balance, balance * 2 AS doubled FROM accounts;
DROP TABLE accounts;
.go
SQL

# Reads through the replica during the migration must already see the
# new schema (forwarded reads migrate the touched rows on the primary).
# Retry while the MIGRATE record is still in flight on the tail stream.
mid_read_ok() {
  run_sql "$RADDR" "SELECT doubled FROM accounts_v2 WHERE id = 1;" | grep -q "300"
}
poll 100 mid_read_ok ||
  { echo "replica mid-migration read never saw the new schema"; exit 1; }
echo "replica mid-migration read OK"

# Wait out the primary's background migrator, then for the replica to
# drain the tail (behind=0 at the final offset).
poll 300 progress_complete "$PADDR" ||
  { echo "migration never completed on primary"; exit 1; }
poll 300 replica_caught_up "$RADDR" || { echo "replica never caught up"; exit 1; }
run_sql "$RADDR" ".admin replication"

# Retention: the replica's lease pins the primary's log at or past the
# bootstrap offset, so the seed rows below it are no longer held.
log_bounds "$PADDR"
if [[ $BOOT_OFFSET -eq 0 || $RETAINED_FROM -lt $BOOT_OFFSET ]]; then
  echo "primary retains records below the replica's bootstrap offset:" \
    "bootstrap=$BOOT_OFFSET retained_from=$RETAINED_FROM offset=$OFFSET"
  exit 1
fi
echo "redo-log retention OK (bootstrap=$BOOT_OFFSET" \
  "retained_from=$RETAINED_FROM offset=$OFFSET)"

# Byte-identical logical state on both sides.
dumps_match "$PADDR" "$RADDR" || { echo "primary/replica dumps diverged"; exit 1; }
grep -q "accounts_v2" "$DUMP_A" ||
  { echo "dump missing migrated table"; exit 1; }
echo "primary/replica dumps converged"

# ADMIN metrics: the primary scrape carries migration unit counters, the
# replica scrape carries its apply-lag gauge (0 once caught up) and the
# read-through counter bumped by the mid-migration forwarded read above.
PMETRICS=$(run_sql "$PADDR" ".metrics")
grep -qF 'bullfrog_migration_units_migrated{mode="lazy"}' <<<"$PMETRICS" ||
  { echo "primary metrics missing migration unit counters"; echo "$PMETRICS"; exit 1; }
RMETRICS=$(run_sql "$RADDR" ".metrics")
grep -qE '^bullfrog_replica_apply_lag_records 0$' <<<"$RMETRICS" ||
  { echo "replica metrics missing apply-lag gauge at 0"; echo "$RMETRICS"; exit 1; }
grep -qE '^bullfrog_replica_read_through_total ' <<<"$RMETRICS" ||
  { echo "replica metrics missing read-through counter"; echo "$RMETRICS"; exit 1; }
# The forwarded mid-migration read should have bumped it; on a heavily
# loaded (sanitizer) run the migration can complete before the replica's
# first read, so a zero is reported but not fatal.
grep -qE '^bullfrog_replica_read_through_total [1-9]' <<<"$RMETRICS" ||
  echo "note: no read-through round-trips (migration finished early)"
echo "metrics scrapes OK"

stop_daemon "$REPLICA_PID" replica
stop_daemon "$PRIMARY_PID" primary

# ---- Checkpoint-corruption recovery leg (durable daemon) ----
DATA_DIR=$(mktemp -d /tmp/bullfrog_data.XXXXXX)
DLOG=$(mktemp /tmp/bullfrog_durable.XXXXXX.log)
start_daemon "$DLOG" --port=0 --workers=4 --data-dir="$DATA_DIR"
echo "durable primary up at $DAEMON_ADDR (data dir $DATA_DIR)"

# Rows on both sides of a checkpoint, so recovery needs checkpoint + WAL.
shell_run "$DAEMON_ADDR" <<'SQL'
CREATE TABLE ledger (id INT PRIMARY KEY, v INT);
INSERT INTO ledger VALUES (1, 10), (2, 20), (3, 30);
.admin checkpoint
INSERT INTO ledger VALUES (4, 40), (5, 50), (6, 60);
SQL
stop_daemon "$DAEMON_PID" "durable daemon"

# A torn/garbage "newest" checkpoint: recovery must skip it, fall back
# to the older (valid) one, and still replay the WAL suffix.
echo "this is not a checkpoint" >"$DATA_DIR/ckpt-999999999.bf"

start_daemon "$DLOG" --port=0 --workers=4 --data-dir="$DATA_DIR"
COUNT=$(run_sql "$DAEMON_ADDR" "SELECT COUNT(*) AS n FROM ledger;")
grep -qw 6 <<<"$COUNT" ||
  { echo "rows lost after corrupt-checkpoint recovery: $COUNT"; exit 1; }
grep -q "recovery skipping corrupt checkpoint" "$DLOG" ||
  { echo "daemon did not report skipping the corrupt checkpoint"; exit 1; }
echo "checkpoint-corruption recovery OK"
stop_daemon "$DAEMON_PID" "durable daemon"
rm -rf "$DATA_DIR"

# ---- Durable kill -9 mid-load + replica-of-recovered-primary leg ----
CRASH_DIR=$(mktemp -d /tmp/bullfrog_crash_data.XXXXXX)
CLOG=$(mktemp /tmp/bullfrog_crash.XXXXXX.log)
BF_WAL_FSYNC=1 start_daemon "$CLOG" --port=0 --workers=8 --data-dir="$CRASH_DIR"
echo "crash-leg primary up at $DAEMON_ADDR (data dir $CRASH_DIR)"
run_sql "$DAEMON_ADDR" "CREATE TABLE crashy (id INT PRIMARY KEY, v INT);" >/dev/null
crash_mid_load "$DAEMON_ADDR" "$DAEMON_PID"

BF_WAL_FSYNC=1 start_daemon "$CLOG" --port=0 --workers=8 --data-dir="$CRASH_DIR"
CRASH_PID=$DAEMON_PID
CADDR=$DAEMON_ADDR
check_recovered "$CADDR"

# A replica bootstrapped off the recovered primary must converge: the
# LSN-keyed tail stream starts from the recovered log cleanly.
start_daemon "$(mktemp /tmp/bullfrog_crash_replica.XXXXXX.log)" --port=0 \
  --workers=8 --replica-of="$CADDR"
CREPL_PID=$DAEMON_PID
poll 300 replica_caught_up "$DAEMON_ADDR" ||
  { echo "post-crash replica never caught up"; exit 1; }
dumps_match "$CADDR" "$DAEMON_ADDR" ||
  { echo "post-crash primary/replica dumps diverged"; exit 1; }
echo "post-crash replica convergence OK"
stop_daemon "$CREPL_PID" "crash-leg replica"
stop_daemon "$CRASH_PID" "crash-leg primary"
rm -rf "$CRASH_DIR"
echo "durable kill -9 + replica recovery OK (acked=$ACKED recovered=$RECOVERED)"
echo "replication smoke OK"

# ---- Mid-migration checkpoint leg ----
# `.admin checkpoint` must succeed — hard assertion, no retry loop —
# while a lazy migration is still in flight, and a replica bootstrapped
# from that mid-migration checkpoint must converge once the migration
# completes on the primary. The capture reads at its own pinned
# snapshot, so client traffic need not pause for it.
MVCC_DIR=$(mktemp -d /tmp/bullfrog_mvcc_data.XXXXXX)
start_daemon "$(mktemp /tmp/bullfrog_mvcc.XXXXXX.log)" --port=0 --workers=8 \
  --data-dir="$MVCC_DIR"
MVCC_PID=$DAEMON_PID
MADDR=$DAEMON_ADDR
echo "mvcc-leg primary up at $MADDR (data dir $MVCC_DIR)"

shell_run "$MADDR" <<'SQL' >/dev/null
CREATE TABLE inv (id INT PRIMARY KEY, qty INT);
INSERT INTO inv VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
INSERT INTO inv VALUES (6, 60), (7, 70), (8, 80), (9, 90), (10, 100);
SQL

# Submit the migration and checkpoint inside the background-start delay
# window, so the migration is provably still active at capture time.
# Then pull a granule lazily and checkpoint again across real marks.
MIDCKPT=$(shell_run "$MADDR" <<'SQL'
.migrate
CREATE TABLE inv2 PRIMARY KEY (id) AS SELECT id, qty FROM inv;
DROP TABLE inv;
.go
.admin checkpoint
SELECT qty FROM inv2 WHERE id = 3;
.admin checkpoint
SQL
)
CKPTS=$(grep -c "checkpoint ok" <<<"$MIDCKPT" || true)
if [[ $CKPTS -ne 2 ]]; then
  echo "mid-migration checkpoint did not succeed (got $CKPTS/2 oks):"
  echo "$MIDCKPT"
  exit 1
fi
progress_complete "$MADDR" &&
  echo "note: migration completed before the checkpoint landed"
echo "quiesce-free mid-migration checkpoints OK"

# Bootstrap a replica while the migration is (likely still) in flight:
# the wire checkpoint succeeds mid-migration too.
start_daemon "$(mktemp /tmp/bullfrog_mvcc_replica.XXXXXX.log)" --port=0 \
  --workers=8 --replica-of="$MADDR"
MREPL_PID=$DAEMON_PID
MRADDR=$DAEMON_ADDR

# Wait for the primary's migration to complete, then for the replica.
poll 300 progress_complete "$MADDR" ||
  { echo "mvcc-leg migration never completed"; exit 1; }
poll 300 replica_caught_up "$MRADDR" ||
  { echo "mvcc-leg replica never caught up"; exit 1; }
dumps_match "$MADDR" "$MRADDR" ||
  { echo "mvcc-leg primary/replica dumps diverged"; exit 1; }
grep -q "inv2" "$DUMP_A" ||
  { echo "mvcc-leg dump missing migrated table"; exit 1; }
echo "mid-migration checkpoint bootstrap convergence OK"
stop_daemon "$MREPL_PID" "mvcc-leg replica"
stop_daemon "$MVCC_PID" "mvcc-leg primary"
rm -rf "$MVCC_DIR"
echo "quiesce-free checkpoint leg OK"
