#!/usr/bin/env bash
# End-to-end smoke test for the migration train: a durable primary runs
# a chained train of 3 lazy migrations (t0 -> t1 -> t2 -> t3, each hop
# submitted before its predecessor drains) over live client traffic,
# and the script requires
#   1. the first hop switches immediately, the two overlapping hops come
#      back as "migration queued (... position N ...)" — not busy,
#   2. ADMIN report mid-train shows the train (entries/active/queued)
#      and the metrics scrape carries the bullfrog_migrations_active /
#      bullfrog_migrations_queued gauges,
#   3. an explicit mid-train ADMIN checkpoint succeeds, and a replica
#      started mid-train bootstraps from a checkpoint that embeds the
#      in-flight train and restores it,
#   4. the whole chain converges: t3 holds every row on primary and
#      replica, the dumps match byte for byte,
#   5. a mid-train checkpoint followed by kill -9 + restart recovers
#      from it, resumes the train from the WAL, and still converges,
#   6. every daemon exits 0 on SIGTERM (the sanitizer legs turn leaks
#      and races into non-zero exits).
# The checkpoint capture reads at its own pinned snapshot, so client
# traffic keeps flowing through every leg, checkpoints included.
# Run from the repo root with the build directory as $1 (default: build).
set -euo pipefail

BUILD_DIR="${1:-build}"
source "$(dirname "$0")/smoke_lib.sh"
DATA_DIR="$(mktemp -d /tmp/bullfrog_train_data.XXXXXX)"

start_daemon "$(mktemp /tmp/bullfrog_train_primary.XXXXXX.log)" --port=0 \
  --workers=8 --data-dir="$DATA_DIR"
PRIMARY_PID=$DAEMON_PID
PADDR=$DAEMON_ADDR
echo "primary up at $PADDR (pid $PRIMARY_PID, data $DATA_DIR)"

ROWS=64
load_t0() { # ADDR
  {
    echo "CREATE TABLE t0 (id INT PRIMARY KEY, v INT);"
    for i in $(seq 0 $((ROWS - 1))); do
      echo "INSERT INTO t0 VALUES ($i, $((i * 10)));"
    done
  } | shell_run "$1" >/dev/null
}
load_t0 "$PADDR"
run_sql "$PADDR" "CREATE TABLE traffic (id INT PRIMARY KEY, note TEXT);" >/dev/null

# Live traffic for the whole run: writes to a side table plus reads that
# chase the head of the chain (lazy read-through on whichever hop is in
# flight). Read errors are expected while a hop's output table does not
# exist yet; write failures are not.
(
  i=0
  while true; do
    i=$((i + 1))
    OUT=$(run_sql "$PADDR" "INSERT INTO traffic VALUES ($i, 'tick');") ||
      exit 0  # Primary gone (shutdown/kill legs) — stop quietly.
    grep -q "error" <<<"$OUT" && { echo "traffic write failed: $OUT" >&2; exit 1; }
    for t in t1 t2 t3; do
      run_sql "$PADDR" "SELECT v FROM $t WHERE id = $((i % ROWS));" >/dev/null || exit 0
    done
    sleep 0.05
  done
) &
TRAFFIC_PID=$!
track_pid "$TRAFFIC_PID"

# The train: hop 1 switches now, hops 2 and 3 must queue (their input
# tables do not even exist yet — compilation is deferred to auto-start).
submit_hop() { # addr src dst
  shell_run "$1" <<SQL
.migrate
CREATE TABLE $3 PRIMARY KEY (id) AS SELECT id, v FROM $2;
DROP TABLE $2;
.go
SQL
}
H1=$(submit_hop "$PADDR" t0 t1)
grep -q "migration live" <<<"$H1" || { echo "hop 1 did not switch: $H1"; exit 1; }
H2=$(submit_hop "$PADDR" t1 t2)
grep -q "migration queued" <<<"$H2" || { echo "hop 2 did not queue: $H2"; exit 1; }
grep -q "position 1" <<<"$H2" || { echo "hop 2 missing queue position: $H2"; exit 1; }
H3=$(submit_hop "$PADDR" t2 t3)
grep -q "migration queued" <<<"$H3" || { echo "hop 3 did not queue: $H3"; exit 1; }
echo "train submitted: 1 live + 2 queued"

# Mid-train observability: the ADMIN report lists the train, the metrics
# scrape exposes the occupancy gauges.
REPORT=$(run_sql "$PADDR" ".report")
grep -q "migration train" <<<"$REPORT" ||
  { echo "admin report missing train section: $REPORT"; exit 1; }
grep -Eq "queued=[12]" <<<"$REPORT" ||
  { echo "admin report missing queued entries: $REPORT"; exit 1; }
METRICS=$(run_sql "$PADDR" ".metrics")
grep -qE '^bullfrog_migrations_active [0-9]' <<<"$METRICS" ||
  { echo "metrics missing bullfrog_migrations_active"; exit 1; }
grep -qE '^bullfrog_migrations_queued [0-9]' <<<"$METRICS" ||
  { echo "metrics missing bullfrog_migrations_queued"; exit 1; }
echo "mid-train report + gauges OK"

# Mid-train checkpoint: the capture embeds the in-flight train.
CKPT=$(run_sql "$PADDR" ".admin checkpoint")
grep -q "checkpoint ok" <<<"$CKPT" ||
  { echo "mid-train checkpoint failed: $CKPT"; exit 1; }
echo "mid-train checkpoint OK (train embedded)"

# Replica bootstrap mid-train: the checkpoint ships the in-flight train
# and the replica converges while it drains.
start_daemon "$(mktemp /tmp/bullfrog_train_replica.XXXXXX.log)" --port=0 \
  --workers=4 --replica-of="$PADDR"
REPLICA_PID=$DAEMON_PID
RADDR=$DAEMON_ADDR
echo "replica up at $RADDR (pid $REPLICA_PID)"

# Convergence: the chain drains hop by hop until t3 holds every row.
poll 600 progress_complete "$PADDR" ||
  { echo "train never converged on primary"; exit 1; }
N=$(run_sql "$PADDR" "SELECT COUNT(*) AS n FROM t3;")
grep -q "^$ROWS$" <<<"$N" || { echo "t3 row count wrong: $N"; exit 1; }
echo "train converged: t3 has $ROWS rows"

# Stop traffic before comparing dumps (the side table keeps growing).
kill "$TRAFFIC_PID" 2>/dev/null || true
wait "$TRAFFIC_PID" 2>/dev/null || true
forget_pid "$TRAFFIC_PID"

# Replica catches up and matches byte for byte. behind=0 alone is not
# enough — right after the bootstrap the replica may not have tailed yet
# and trivially reports 0 — so poll the dumps directly.
poll 600 dumps_match "$PADDR" "$RADDR" >/dev/null || {
  dumps_match "$PADDR" "$RADDR" || true
  echo "primary/replica dumps diverged"
  exit 1
}
grep -q "t3" "$DUMP_A" ||
  { echo "dump missing migrated table t3"; exit 1; }
echo "replica converged with the train"

stop_daemon "$REPLICA_PID" replica
stop_daemon "$PRIMARY_PID" primary
echo "clean shutdowns OK"

# ---- Mid-train checkpoint + kill -9 recovery leg ----
DATA2="$(mktemp -d /tmp/bullfrog_train_data2.XXXXXX)"
PLOG2="$(mktemp /tmp/bullfrog_train_crash.XXXXXX.log)"
start_daemon "$PLOG2" --port=0 --workers=8 --data-dir="$DATA2"
load_t0 "$DAEMON_ADDR"
submit_hop "$DAEMON_ADDR" t0 t1 | grep -q "migration live" || { echo "crash leg hop 1 failed"; exit 1; }
submit_hop "$DAEMON_ADDR" t1 t2 | grep -q "migration queued" || { echo "crash leg hop 2 failed"; exit 1; }
submit_hop "$DAEMON_ADDR" t2 t3 | grep -q "migration queued" || { echo "crash leg hop 3 failed"; exit 1; }
CKPT=$(run_sql "$DAEMON_ADDR" ".admin checkpoint")
grep -q "checkpoint ok" <<<"$CKPT" ||
  { echo "crash-leg mid-train checkpoint failed: $CKPT"; exit 1; }
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
forget_pid "$DAEMON_PID"
echo "killed primary mid-train after checkpoint; restarting"

start_daemon "$PLOG2" --port=0 --workers=8 --data-dir="$DATA2"
poll 600 progress_complete "$DAEMON_ADDR" ||
  { echo "recovered train never converged"; exit 1; }
N=$(run_sql "$DAEMON_ADDR" "SELECT COUNT(*) AS n FROM t3;")
grep -q "^$ROWS$" <<<"$N" || { echo "recovered t3 count wrong: $N"; exit 1; }
echo "checkpoint restore resumed the train and converged"
stop_daemon "$DAEMON_PID" "crash-leg daemon"
rm -rf "$DATA2" "$DATA_DIR"
echo "migration train smoke OK"
