# Helpers shared by the smoke scripts in this directory. Source it from
# a script running under `set -euo pipefail` after setting BUILD_DIR:
#
#   BUILD_DIR="${1:-build}"
#   source "$(dirname "$0")/smoke_lib.sh"
#
# It defines SERVERD and SHELL_BIN (and fails fast when they are not
# built), and installs an EXIT trap: every process passed to track_pid
# (start_daemon does this) is killed with -9, and on a failing exit the
# log of every daemon start_daemon started is printed. Scratch files go
# to $SMOKE_TMP, removed on exit.

SERVERD="$BUILD_DIR/src/server/bullfrog_serverd"
SHELL_BIN="$BUILD_DIR/examples/bullfrog_shell"
[[ -x $SERVERD ]] || { echo "missing $SERVERD (build first)"; exit 1; }
[[ -x $SHELL_BIN ]] || { echo "missing $SHELL_BIN (build first)"; exit 1; }

SMOKE_PIDS=()
SMOKE_LOGS=()
SMOKE_TMP=$(mktemp -d /tmp/bullfrog_smoke.XXXXXX)

smoke_exit() {
  local status=$?
  local pid log
  for pid in "${SMOKE_PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  if [[ $status -ne 0 ]]; then
    for log in "${SMOKE_LOGS[@]}"; do echo "--- $log ---"; cat "$log"; done
  fi
  rm -rf "$SMOKE_TMP"
}
trap smoke_exit EXIT

track_pid() { SMOKE_PIDS+=("$1"); }

forget_pid() { # PID — it exited; never kill -9 a recycled pid
  local pid kept=()
  for pid in "${SMOKE_PIDS[@]}"; do [[ $pid == "$1" ]] || kept+=("$pid"); done
  SMOKE_PIDS=("${kept[@]}")
}

# Parses "bullfrog_serverd listening on HOST:PORT" (printed once ready).
wait_addr() { # LOG PID -> prints HOST:PORT
  local addr=""
  for _ in $(seq 1 150); do
    addr=$(sed -n 's/^bullfrog_serverd listening on \(.*\)$/\1/p' "$1")
    [[ -n $addr ]] && { echo "$addr"; return 0; }
    kill -0 "$2" 2>/dev/null || { echo "serverd died on startup" >&2; return 1; }
    sleep 0.1
  done
  echo "serverd never reported its port" >&2
  return 1
}

# Starts bullfrog_serverd in the background with its output in LOG, and
# waits until it listens. Sets DAEMON_PID and DAEMON_ADDR. Environment
# prefixes (BF_WAL_FSYNC=1 start_daemon ...) reach the daemon.
start_daemon() { # LOG serverd-args...
  local log=$1
  shift
  SMOKE_LOGS+=("$log")
  "$SERVERD" "$@" >"$log" 2>&1 &
  DAEMON_PID=$!
  track_pid "$DAEMON_PID"
  DAEMON_ADDR=$(wait_addr "$log" "$DAEMON_PID")
}

# SIGTERM must drain and exit 0 (the sanitizer builds turn leaks and
# races into a non-zero exit).
stop_daemon() { # PID NAME
  kill -TERM "$1"
  local status=0
  wait "$1" || status=$?
  forget_pid "$1"
  [[ $status -eq 0 ]] || { echo "$2 exited non-zero ($status)"; exit "$status"; }
}

# One-shot shell session: feeds stdin commands, strips the prompt noise
# (banner line and "bullfrog> "/"migrate> " prefixes) so callers can
# grep/diff the payload.
shell_run() { # ADDR
  "$SHELL_BIN" --connect "$1" 2>&1 |
    sed -e '1d' -e 's/^bullfrog> //' -e 's/^migrate> //'
}

run_sql() { # ADDR "statements or dot-commands"
  shell_run "$1" <<<"$2"
}

# Retries CMD every 0.1 s until it succeeds; fails after TRIES attempts.
poll() { # TRIES CMD...
  local tries=$1
  shift
  for _ in $(seq 1 "$tries"); do
    "$@" && return 0
    sleep 0.1
  done
  return 1
}

progress_complete() { run_sql "$1" ".progress" | grep -q "(complete)"; }
replica_caught_up() { run_sql "$1" ".admin replication" | grep -q "behind=0"; }

# Reads ADMIN offset ("offset=<end LSN> retained_from=<base LSN>") and
# sets OFFSET and RETAINED_FROM: the redo log holds [RETAINED_FROM,
# OFFSET) in memory.
log_bounds() { # ADDR
  local line
  line=$(run_sql "$1" ".admin offset")
  OFFSET=$(sed -nE 's/^offset=([0-9]+) retained_from=[0-9]+.*/\1/p' <<<"$line")
  RETAINED_FROM=$(sed -nE 's/^offset=[0-9]+ retained_from=([0-9]+).*/\1/p' <<<"$line")
  if [[ -z $OFFSET || -z $RETAINED_FROM ]]; then
    echo "unparseable ADMIN offset line: $line"
    return 1
  fi
}

# Byte-compares the ADMIN dumps of two daemons (diff printed on mismatch).
# The first daemon's dump stays in $DUMP_A for the caller to inspect.
DUMP_A="$SMOKE_TMP/dump_a.txt"
dumps_match() { # ADDR_A ADDR_B
  run_sql "$1" ".admin dump" >"$DUMP_A"
  run_sql "$2" ".admin dump" >"$SMOKE_TMP/dump_b.txt"
  diff -u "$DUMP_A" "$SMOKE_TMP/dump_b.txt"
}

# The durable kill -9 mid-load check (group commit under crash): streams
# single-row INSERTs into table `crashy` at ADDR, kill -9s daemon PID
# once at least 200 are acked, and sets ACKED. With BF_WAL_FSYNC=1 every
# "(1 affected)" the shell printed was fsynced before the ack.
crash_mid_load() { # ADDR PID
  local acks="$SMOKE_TMP/acks.txt"
  ( for i in $(seq 1 2000); do echo "INSERT INTO crashy VALUES ($i, $i);"; done ) |
    stdbuf -oL "$SHELL_BIN" --connect "$1" >"$acks" 2>&1 &
  local loader=$!
  local acked
  for _ in $(seq 1 600); do
    acked=$(grep -c "(1 affected)" "$acks" || true)
    [[ $acked -ge 200 ]] && break
    kill -0 "$loader" 2>/dev/null || break
    sleep 0.05
  done
  kill -9 "$2"
  wait "$2" 2>/dev/null || true
  forget_pid "$2"
  wait "$loader" 2>/dev/null || true
  ACKED=$(grep -c "(1 affected)" "$acks" || true)
  echo "acked before kill -9: $ACKED inserts"
  [[ $ACKED -gt 0 ]] || { echo "no insert was acked before the kill"; exit 1; }
  [[ $ACKED -lt 2000 ]] || echo "note: loader finished before the kill landed"
}

# After the restart: every acked insert survived, and at most one more
# (the sequential loader has one insert in flight when the plug is
# pulled; more would be phantom commits the client never issued). Sets
# RECOVERED.
check_recovered() { # ADDR
  RECOVERED=$(run_sql "$1" "SELECT COUNT(*) AS n FROM crashy;" |
    grep -oE '[0-9]+' | sort -n | tail -1)
  echo "recovered after restart: ${RECOVERED:-0} rows"
  if [[ -z ${RECOVERED:-} || $RECOVERED -lt $ACKED ]]; then
    echo "durable recovery lost acked commits (acked=$ACKED recovered=${RECOVERED:-0})"
    exit 1
  fi
  if [[ $RECOVERED -gt $((ACKED + 1)) ]]; then
    echo "durable recovery has extra rows (acked=$ACKED recovered=$RECOVERED)"
    exit 1
  fi
}

# Fails unless TEXT contains every WANT as a fixed string; prints TEXT
# on a miss.
require_all() { # WHAT TEXT WANT...
  local what=$1 text=$2 want
  shift 2
  for want in "$@"; do
    grep -qF -- "$want" <<<"$text" ||
      { echo "$what missing '$want':"; echo "$text"; exit 1; }
  done
}
