#!/usr/bin/env bash
# End-to-end smoke test for the shared-nothing sharded daemon
# (bullfrog_serverd --shards=N): boots 4 shards, routes DML through the
# wire protocol, drives a cross-shard lazy migration and scrapes ADMIN
# "shards" plus the tracing surfaces (ADMIN slowlog / timeseries, via
# BF_TRACE_SAMPLE=1) mid-drain (per-shard progress must aggregate and
# converge to 1.0), requires a clean SIGTERM exit, then runs a durable leg
# (BF_WAL_FSYNC=1, --data-dir): kill -9 mid-load, restart, and every
# shard's WAL segment must recover — acked <= recovered <= acked+1.
# Run from the repo root with the build directory as $1 (default:
# build). Intended for the sanitizer CI legs.
set -euo pipefail

BUILD_DIR="${1:-build}"
source "$(dirname "$0")/smoke_lib.sh"
SHARDS=4
LOG="$(mktemp /tmp/bullfrog_shardd.XXXXXX.log)"

# Trace every statement server-side (the shell sends unflagged frames)
# so the mid-migration slowlog/timeseries scrapes below have data.
BF_TRACE_SAMPLE=1 BF_TIMESERIES_MS=50 \
  start_daemon "$LOG" --port=0 --workers=8 --shards=$SHARDS
SERVER_PID=$DAEMON_PID
ADDR=$DAEMON_ADDR
grep -q "^shards=$SHARDS$" "$LOG" ||
  { echo "daemon did not report shards=$SHARDS"; exit 1; }
echo "sharded serverd up at $ADDR ($SHARDS shards, pid $SERVER_PID)"

# Routed DML: the rows must split across shards and come back merged.
run_sql "$ADDR" "CREATE TABLE kv (id INT PRIMARY KEY, val INT);" >/dev/null
for i in $(seq 0 199); do echo "INSERT INTO kv VALUES ($i, $((i * 10)));"; done |
  shell_run "$ADDR" >/dev/null

AGG=$(run_sql "$ADDR" "SELECT COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a FROM kv;")
grep -q "200" <<<"$AGG" || { echo "bad cross-shard COUNT: $AGG"; exit 1; }
grep -q "199000" <<<"$AGG" || { echo "bad cross-shard SUM: $AGG"; exit 1; }
grep -q "995" <<<"$AGG" || { echo "bad cross-shard AVG: $AGG"; exit 1; }
POINT=$(run_sql "$ADDR" "SELECT val FROM kv WHERE id = 42;")
grep -q "420" <<<"$POINT" || { echo "bad routed point read: $POINT"; exit 1; }
echo "router OK (split insert, point read, merged aggregates)"

# ADMIN "shards" before any migration: idle coordinator, one line per shard.
SHARDS_IDLE=$(run_sql "$ADDR" ".admin shards")
grep -q "state=idle" <<<"$SHARDS_IDLE" ||
  { echo "ADMIN shards missing idle state: $SHARDS_IDLE"; exit 1; }
[[ $(grep -c "shard [0-9]:" <<<"$SHARDS_IDLE") -eq $SHARDS ]] ||
  { echo "ADMIN shards missing per-shard lines: $SHARDS_IDLE"; exit 1; }

# Cross-shard lazy migration via the MIGRATE opcode, scraped mid-drain.
printf '.migrate\nCREATE TABLE kv2 PRIMARY KEY (id) AS SELECT id, val, val + val AS dbl FROM kv;\nDROP TABLE kv;\n.go\n.quit\n' |
  shell_run "$ADDR" | grep -q "migration live" ||
  { echo "MIGRATE submit failed"; exit 1; }

MID=$(run_sql "$ADDR" ".admin shards")
grep -Eq "state=(draining|complete)" <<<"$MID" ||
  { echo "ADMIN shards not draining after MIGRATE: $MID"; exit 1; }
echo "mid-migration ADMIN shards scrape:"
echo "$MID" | grep -E "coordinated|shard [0-9]:" || true

# Lazy reads against the new schema work while the shards drain.
MIG_READ=$(run_sql "$ADDR" "SELECT dbl FROM kv2 WHERE id = 42;")
grep -q "840" <<<"$MIG_READ" || { echo "bad mid-migration read: $MIG_READ"; exit 1; }
# Touch more cold keys (one per shard, roughly): each first-touch read
# pulls its granule and lands a migrate_pull-attributed trace.
for id in 7 99 150 183; do
  run_sql "$ADDR" "SELECT dbl FROM kv2 WHERE id = $id;" >/dev/null
done

# Mid-migration tracing scrapes: every statement above was traced
# (BF_TRACE_SAMPLE=1), so the slowlog must show span breakdowns — the
# migrated reads carry migrate_pull attribution — and the timeseries
# ring must already hold snapshots (top-level sampler: the aggregate
# migration_progress / units_migrated counters span all shards).
SLOWLOG=$(run_sql "$ADDR" ".slowlog")
require_all "mid-migration ADMIN slowlog" "$SLOWLOG" \
  "total=" "id=0x" "migrate_pull"
echo "mid-migration ADMIN slowlog OK ($(grep -c 'id=0x' <<<"$SLOWLOG") entries)"

TIMESERIES=$(run_sql "$ADDR" ".timeseries")
require_all "mid-migration ADMIN timeseries" "$TIMESERIES" \
  "# timeseries interval_ms=" "t_ms" "migration_progress"
TS_ROWS=$(grep -cE '^[0-9]+' <<<"$TIMESERIES" || true)
if [[ $TS_ROWS -lt 1 ]]; then
  echo "mid-migration ADMIN timeseries has no data rows:"
  echo "$TIMESERIES"
  exit 1
fi
echo "mid-migration ADMIN timeseries OK ($TS_ROWS rows)"

# The coordinator must converge: progress 1.0 and every shard complete.
coordinator_complete() {
  REPORT=$(run_sql "$ADDR" ".admin shards")
  grep -q "state=complete" <<<"$REPORT"
}
poll 200 coordinator_complete ||
  { echo "coordinated migration never converged: $REPORT"; exit 1; }
[[ $(grep -c "complete=1" <<<"$REPORT") -eq $SHARDS ]] ||
  { echo "not all shards report complete: $REPORT"; exit 1; }
grep -q "progress=1" <<<"$REPORT" ||
  { echo "aggregate progress != 1: $REPORT"; exit 1; }
# Per-shard units must sum to the reported total.
TOTAL=$(sed -n 's/.*units_total=\([0-9]*\).*/\1/p' <<<"$REPORT")
SUM=$(grep -oE "units=[0-9]+" <<<"$REPORT" | cut -d= -f2 |
  awk '{s += $1} END {print s + 0}')
[[ -n $TOTAL && "$TOTAL" -eq "$SUM" ]] ||
  { echo "per-shard units ($SUM) != units_total ($TOTAL): $REPORT"; exit 1; }
[[ $TOTAL -gt 0 ]] || { echo "migration migrated zero units"; exit 1; }
echo "coordinated migration converged (units_total=$TOTAL across $SHARDS shards)"

# Merged ADMIN metrics: the scrape must carry every shard's section.
METRICS=$(run_sql "$ADDR" ".metrics")
for i in $(seq 0 $((SHARDS - 1))); do
  grep -q "# shard $i" <<<"$METRICS" ||
    { echo "ADMIN metrics missing shard $i section"; exit 1; }
done
grep -q "bullfrog_server_requests_total" <<<"$METRICS" ||
  { echo "ADMIN metrics missing server families"; exit 1; }
echo "merged ADMIN metrics OK"

stop_daemon "$SERVER_PID" "sharded serverd"

# ---- Durable kill -9 leg: per-shard WAL segments (BF_WAL_FSYNC=1) ----
DATA_DIR=$(mktemp -d /tmp/bullfrog_shard_data.XXXXXX)
DLOG=$(mktemp /tmp/bullfrog_shard_durable.XXXXXX.log)
BF_WAL_FSYNC=1 start_daemon "$DLOG" --port=0 --workers=8 --shards=$SHARDS \
  --data-dir="$DATA_DIR"
echo "durable sharded serverd up at $DAEMON_ADDR (data dir $DATA_DIR)"
run_sql "$DAEMON_ADDR" "CREATE TABLE crashy (id INT PRIMARY KEY, v INT);" >/dev/null

# Every acked insert is durable on some shard's WAL; pull the plug
# mid-stream.
crash_mid_load "$DAEMON_ADDR" "$DAEMON_PID"

# Every shard must have its own WAL segment directory, plus the shard
# count identity file.
[[ -f $DATA_DIR/shards.meta ]] || { echo "missing shards.meta"; exit 1; }
for i in $(seq 0 $((SHARDS - 1))); do
  [[ -d $DATA_DIR/shard-$i ]] || { echo "missing shard-$i WAL dir"; exit 1; }
done

# Restarting with a different shard count must be refused (resharding
# would silently re-home keys).
if BF_WAL_FSYNC=1 "$SERVERD" --port=0 --shards=2 --data-dir="$DATA_DIR" \
  >/dev/null 2>&1; then
  echo "reshard open unexpectedly succeeded"; exit 1
fi

BF_WAL_FSYNC=1 start_daemon "$DLOG" --port=0 --workers=8 --shards=$SHARDS \
  --data-dir="$DATA_DIR"
check_recovered "$DAEMON_ADDR"
stop_daemon "$DAEMON_PID" "durable sharded serverd"
rm -rf "$DATA_DIR"
echo "sharded durable kill -9 recovery OK (acked=$ACKED recovered=$RECOVERED)"
echo "shard smoke OK"
