#!/usr/bin/env bash
# End-to-end smoke test for the network service layer: starts a real
# bullfrog_serverd on an ephemeral loopback port, runs the full
# server_e2e_test suite against it over the wire (BF_SERVER_ADDR mode:
# concurrent clients, live lazy migration via MIGRATE, ADMIN progress
# polling, error paths), checks that the redo log retains nothing with no
# replica (ADMIN offset), scrapes the request-tracing surfaces (ADMIN
# slowlog / timeseries, sampled via BF_TRACE_SAMPLE=1), then SIGTERMs
# the daemon and requires a clean exit. A second, durable-mode leg
# (BF_WAL_FSYNC=1, --data-dir) streams single-row INSERTs through the
# group-commit WAL, kill -9s the daemon mid-load, restarts it, and
# requires every acked insert to survive recovery. Run from the repo
# root with the build directory as $1 (default: build). Intended for the
# sanitizer CI legs: any leak or race aborts the daemon with a non-zero
# exit and fails the script.
set -euo pipefail

BUILD_DIR="${1:-build}"
source "$(dirname "$0")/smoke_lib.sh"
E2E="$BUILD_DIR/tests/server_e2e_test"
[[ -x $E2E ]] || { echo "missing $E2E (build first)"; exit 1; }

# Plenty of workers: the e2e suite opens many concurrent sessions.
# Trace every statement server-side (the e2e clients send unflagged,
# pre-tracing frames) so the slowlog/timeseries scrapes below have data.
BF_TRACE_SAMPLE=1 BF_TIMESERIES_MS=50 \
  start_daemon "$(mktemp /tmp/bullfrog_serverd.XXXXXX.log)" --port=0 --workers=16
SERVER_PID=$DAEMON_PID
ADDR=$DAEMON_ADDR
echo "serverd up at $ADDR (pid $SERVER_PID)"

BF_SERVER_ADDR="$ADDR" "$E2E"

# ADMIN metrics scrape: after the e2e traffic the Prometheus exposition
# must cover every layer (server opcodes, txn counts, migration units).
require_all "ADMIN metrics scrape" "$(run_sql "$ADDR" ".metrics")" \
  bullfrog_server_requests_total \
  'bullfrog_server_request_seconds_count{opcode="query"}' \
  bullfrog_txn_commits \
  'bullfrog_migration_units_migrated{mode="lazy"}' \
  bullfrog_lock_wait_seconds_count
echo "ADMIN metrics scrape OK"

# Retention: with no replica nothing pins the redo log, so after the
# workload the primary holds no records: retained_from equals offset.
log_bounds "$ADDR"
if [[ $RETAINED_FROM != "$OFFSET" ]]; then
  echo "primary without a replica retains log records:" \
    "offset=$OFFSET retained_from=$RETAINED_FROM"
  exit 1
fi
echo "redo-log retention OK (offset=$OFFSET retained_from=$RETAINED_FROM)"

# Tracing surfaces: with BF_TRACE_SAMPLE=1 every e2e statement was
# traced, so the slowlog must hold span breakdowns with trace ids, and
# the timeseries sampler must have banked counter snapshots. (The e2e
# suite drives live migrations, so the slowest entries carry real
# lock/migration stages.)
SLOWLOG=$(run_sql "$ADDR" ".slowlog")
require_all "ADMIN slowlog scrape" "$SLOWLOG" "total=" "id=0x" "ms"
if grep -qF "slowlog empty" <<<"$SLOWLOG"; then
  echo "ADMIN slowlog empty despite BF_TRACE_SAMPLE=1:"
  echo "$SLOWLOG"
  exit 1
fi
echo "ADMIN slowlog scrape OK ($(grep -c 'id=0x' <<<"$SLOWLOG") entries)"

TIMESERIES=$(run_sql "$ADDR" ".timeseries")
require_all "ADMIN timeseries scrape" "$TIMESERIES" \
  "# timeseries interval_ms=" "t_ms"
# Header + column line + at least one data row.
TS_ROWS=$(grep -cE '^[0-9]+' <<<"$TIMESERIES" || true)
if [[ $TS_ROWS -lt 1 ]]; then
  echo "ADMIN timeseries has no data rows:"
  echo "$TIMESERIES"
  exit 1
fi
echo "ADMIN timeseries scrape OK ($TS_ROWS rows)"

stop_daemon "$SERVER_PID" serverd

# ---- Durable-mode kill -9 mid-load leg (BF_WAL_FSYNC=1) ----
# The group-commit contract under crash: every INSERT the client saw
# acked was fsynced before the ack, so a kill -9 in the middle of the
# load must never lose an acked row after restart.
DATA_DIR=$(mktemp -d /tmp/bullfrog_smoke_data.XXXXXX)
DLOG=$(mktemp /tmp/bullfrog_durable_smoke.XXXXXX.log)
BF_WAL_FSYNC=1 start_daemon "$DLOG" --port=0 --workers=8 --data-dir="$DATA_DIR"
echo "durable serverd up at $DAEMON_ADDR (data dir $DATA_DIR)"
run_sql "$DAEMON_ADDR" "CREATE TABLE crashy (id INT PRIMARY KEY, v INT);" >/dev/null
crash_mid_load "$DAEMON_ADDR" "$DAEMON_PID"

BF_WAL_FSYNC=1 start_daemon "$DLOG" --port=0 --workers=8 --data-dir="$DATA_DIR"
check_recovered "$DAEMON_ADDR"
stop_daemon "$DAEMON_PID" "durable serverd"
rm -rf "$DATA_DIR"
echo "durable kill -9 recovery OK (acked=$ACKED recovered=$RECOVERED)"
echo "server smoke OK"
