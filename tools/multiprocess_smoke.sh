#!/usr/bin/env bash
# Runs README's multi-process deployment as separate processes: one
# `casched_net agent`, three `casched_net server` daemons and a
# `casched_net client` replaying live-loopback at --scale 10. Every daemon
# sits on its blocking run() loop, so this checks those loops end to end
# (the loopback demos pump runOnce() inside one process instead). The agent
# takes a free port (--port 0) rather than README's 9000. Each process runs
# under a hard `timeout`; the client must exit 0 with no failed task, and
# every background process is stopped on the way out.
#
#   tools/multiprocess_smoke.sh [build-dir] [log-dir]
#
# Defaults: build, bench_out. Logs: mp_agent.log, mp_server<i>.log,
# mp_client.log in the log directory.
set -euo pipefail

BUILD_DIR="${1:-build}"
LOG_DIR="${2:-bench_out}"
NET="$BUILD_DIR/casched_net"
mkdir -p "$LOG_DIR"

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

# wait_for <log> <pattern> <count>: up to 10 s for <pattern> to appear
# <count> times in <log>.
wait_for() {
  for _ in $(seq 100); do
    if [ "$(grep -c "$2" "$1" 2>/dev/null || true)" -ge "$3" ]; then return 0; fi
    sleep 0.1
  done
  echo "error: '$2' did not appear $3 time(s) in $1" >&2
  cat "$1" >&2
  return 1
}

timeout 180 "$NET" agent --port 0 --heuristic msf --ft --heartbeat-timeout 90 \
  --log-level info > "$LOG_DIR/mp_agent.log" 2>&1 &
pids+=($!)
wait_for "$LOG_DIR/mp_agent.log" "listening on" 1
port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG_DIR/mp_agent.log")"

speeds=(1.0 0.7 1.4)
for i in 0 1 2; do
  timeout 180 "$NET" server --agent-port "$port" --name "grid-$i" --speed "${speeds[$i]}" \
    > "$LOG_DIR/mp_server$i.log" 2>&1 &
  pids+=($!)
done
wait_for "$LOG_DIR/mp_agent.log" "registered server" 3

timeout 150 "$NET" client --agent-port "$port" --scenario live-loopback --scale 10 \
  | tee "$LOG_DIR/mp_client.log"
grep -q " 0 failed" "$LOG_DIR/mp_client.log"
