#!/bin/sh
# servesmoke: end-to-end exercise of the hottilesd daemon through real
# processes and a real port. Starts the daemon on an ephemeral port, runs
# planload's smoke round trip (upload → plan → fetch-by-hash → validate →
# /metrics scrape) with a known request ID and greps that same ID out of
# the access log, then sends SIGTERM and requires a clean drained exit.
# A second daemon gets SIGTERM the moment it reports its address and must
# drain just as cleanly: the signal handler is installed before serving.
# Run from the repo root via `make servesmoke` (builds the binaries first).
set -eu

HOTTILESD=${HOTTILESD:-./bin/hottilesd}
PLANLOAD=${PLANLOAD:-./bin/planload}

log=$(mktemp)
store=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$log" "$store"
}
trap cleanup EXIT INT TERM

# start_daemon boots a daemon logging to $log and sets daemon_pid and addr
# once the JSON hottilesd.listen line with its bound address appears.
start_daemon() {
    : >"$log"
    "$HOTTILESD" -addr 127.0.0.1:0 -store-dir "$store" 2>"$log" &
    daemon_pid=$!
    addr=""
    for _ in $(seq 1 1000); do
        addr=$(sed -n '/hottilesd.listen/s/.*"addr":"\([^"]*\)".*/\1/p' "$log" | head -1)
        [ -n "$addr" ] && return 0
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "servesmoke: daemon died during startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.01
    done
    echo "servesmoke: daemon never reported its address:" >&2
    cat "$log" >&2
    exit 1
}

# stop_daemon sends SIGTERM and requires a drained exit 0, logged as
# structured lines.
stop_daemon() {
    kill -TERM "$daemon_pid"
    rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    if [ "$rc" -ne 0 ]; then
        echo "servesmoke: daemon exited $rc on SIGTERM:" >&2
        cat "$log" >&2
        exit 1
    fi
    grep -q "hottilesd.drain.done" "$log" || {
        echo "servesmoke: daemon did not report a drained shutdown:" >&2
        cat "$log" >&2
        exit 1
    }
}

start_daemon
echo "servesmoke: daemon on $addr"

# One validated round trip carrying a known request ID: planload asserts
# the header echo and the /debug/requests entry itself.
REQID="servesmoke-$$"
"$PLANLOAD" -addr "$addr" -smoke -request-id "$REQID"

# The same ID must tag the daemon's access-log line (DESIGN.md §18).
grep -q "\"req\":\"$REQID\"" "$log" || {
    echo "servesmoke: request ID $REQID not in the daemon access log:" >&2
    cat "$log" >&2
    exit 1
}
echo "servesmoke: request ID $REQID correlated across header, log, /debug/requests"

# A small concurrent burst through the real HTTP stack.
"$PLANLOAD" -addr "$addr" -clients 8 -requests 32 -matrices 4 -sizes 256,512

# Clean shutdown: SIGTERM must drain and exit 0.
stop_daemon

# A SIGTERM right after readiness must drain too, not kill the process.
start_daemon
stop_daemon
echo "servesmoke: SIGTERM at startup drained"
echo "servesmoke: OK"
