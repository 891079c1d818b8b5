#!/bin/sh
# socket_smoke.sh — a real verifyd serving a Unix socket to the
# verify_tool thin client.
#
#   scripts/socket_smoke.sh path/to/verifyd path/to/verify_tool file.c
#
# Starts `verifyd --socket=SOCK file.c`, runs `verify_tool --connect=SOCK`
# (which must exit 0 and print the daemon's revision_done or unchanged
# event), then sends the daemon SIGTERM, after which it must exit 0 with a
# final shutdown event and remove its socket file.
set -u

VERIFYD=${1:?usage: socket_smoke.sh <verifyd> <verify_tool> <file.c>}
TOOL=${2:?usage: socket_smoke.sh <verifyd> <verify_tool> <file.c>}
SRC=${3:?usage: socket_smoke.sh <verifyd> <verify_tool> <file.c>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/rcc_socket_smoke.XXXXXX") || exit 1
DPID=
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
  echo "socket_smoke: FAIL: $1" >&2
  [ -f "$WORK/daemon.out" ] && head -c 2000 "$WORK/daemon.out" >&2
  exit 1
}

SOCK="$WORK/d.sock"
"$VERIFYD" --socket="$SOCK" "$SRC" > "$WORK/daemon.out" 2>&1 &
DPID=$!

# The socket is bound after the cold-start revision.
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -gt 300 ] && fail "verifyd did not open $SOCK"
  kill -0 "$DPID" 2>/dev/null || fail "verifyd exited early"
  sleep 0.1
done

OUT=$("$TOOL" --connect="$SOCK") || fail "verify_tool --connect exited $?"
echo "$OUT" | grep -Eq '"event": "(revision_done|unchanged)"' ||
  fail "no revision_done/unchanged event in: $OUT"

kill -TERM "$DPID"
wait "$DPID"
RC=$?
DPID=
[ "$RC" -eq 0 ] || fail "verifyd exited $RC after SIGTERM"
grep -q '"event": "shutdown"' "$WORK/daemon.out" || fail "no shutdown event"
[ ! -e "$SOCK" ] || fail "socket file left behind"
echo "socket_smoke: ok"
