#!/bin/sh
# Tier-1 check: configure, build, and run the full test suite, then a
# sanitized configuration and one traced end-to-end verification.
# (See ROADMAP.md; CI and pre-merge both run exactly this script.)
set -e
cd "$(dirname "$0")/.."

# 1. Tier-1: RelWithDebInfo build + full ctest suite.
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j)

# 2. Traced end-to-end verification: the observability acceptance path.
#    Must produce a loadable Chrome trace and a profile report.
./build/examples/verify_tool --trace=build/demo_trace.json --profile \
    examples/demo.c
test -s build/demo_trace.json

# 3. Persistent-cache round trip: a cold run populates the cache directory,
#    a second process must be served entirely from it (zero re-verified
#    functions; every hit replayed through the proof checker). A third,
#    --no-recheck process must still replay every hit: the flag skips only
#    the recheck of the run's own searches, never the check of cache input.
rm -rf build/check_cache
./build/examples/verify_tool --cache-dir=build/check_cache \
    examples/demo.c > /dev/null
out=$(./build/examples/verify_tool --cache-dir=build/check_cache \
    --format=json examples/demo.c)
echo "$out" | grep -q '"cache_misses": 0'
echo "$out" | grep -q '"replay_failures": 0'
echo "$out" | grep -q '"all_verified": true'
if echo "$out" | grep -q '"cache_hits": 0'; then
  echo "check.sh: warm cache run reported zero hits"; exit 1
fi
out=$(./build/examples/verify_tool --no-recheck --cache-dir=build/check_cache \
    --format=json examples/demo.c)
echo "$out" | grep -q '"cache_misses": 0'
echo "$out" | grep -q '"replay_failures": 0'
hits=$(echo "$out" | sed -n 's/.*"cache_hits": \([0-9]*\).*/\1/p')
replayed=$(echo "$out" | sed -n 's/.*"replayed_hits": \([0-9]*\).*/\1/p')
[ -n "$hits" ] && [ "$hits" = "$replayed" ] || {
  echo "check.sh: --no-recheck served $hits hits but replayed $replayed"
  exit 1; }

# 4. Figure-7 gates. The regenerated BENCH_figure7.json must be
#    byte-identical to the committed one: it carries no timings, so any
#    difference is a changed row count, metric or derivation (each row's
#    `derivation_fnv` digests every recorded proof step), and the committed
#    rows are the figure-7 refactor oracle (regenerate and commit it when a
#    change is meant to move them). Rule-dispatch gate: over the full
#    figure-7 corpus, (nearly) every multi-rule lookup must be served by
#    the discrimination index. A rule registered with a too-coarse RuleKey
#    degrades dispatch back to a full scan; this catches that regression at
#    merge time. The whitelist budget (currently 0 observed) allows a
#    couple of stragglers so an intentional wildcard rule added with cause
#    does not hard-block CI.
rm -rf build/check_dispatch && mkdir -p build/check_dispatch
(cd build/check_dispatch && ../bench/figure7_table > /dev/null)
cmp BENCH_figure7.json build/check_dispatch/BENCH_figure7.json || {
  echo "check.sh: BENCH_figure7.json differs from the regenerated artifact"
  exit 1; }
python3 - build/check_dispatch/BENCH_figure7.json <<'PYEOF'
import json, sys
j = json.load(open(sys.argv[1]))
m = j["metrics"]
fallbacks = m["engine.rule.scan_fallbacks"]
budget = 2
if fallbacks > budget:
    sys.exit(f"check.sh: engine.rule.scan_fallbacks = {fallbacks} "
             f"exceeds whitelist budget {budget} — a rule's RuleKey is "
             f"too coarse (see DESIGN.md, 'Rule dispatch & memoized "
             f"subsumption')")
if m["engine.rule.index_hits"] == 0:
    sys.exit("check.sh: discrimination index served zero lookups")
# Portfolio ablation gate: the bit-vector backend must discharge every
# word-level side condition the bitmap row needs lemmas for when the
# portfolio is off (DESIGN.md, "Solver portfolio").
bm = next(r for r in j["rows"] if r["name"] == "Bitmap word")
if bm["side_cond_manual"] != 0 or bm["side_cond_manual_off"] == 0:
    sys.exit(f"check.sh: bitmap portfolio ablation regressed: "
             f"manual(on)={bm['side_cond_manual']} "
             f"manual(off)={bm['side_cond_manual_off']}")
PYEOF

# 5. Portfolio gate (DESIGN.md, "Solver portfolio"): --portfolio=on and
#    --portfolio=off differ only in the bit-vector backend, so on demo.c,
#    whose goals the default engine proves, their deterministic traces must
#    be byte-identical. The bitmap ablation (bit-vector backend clears the
#    manual count) is gated on the figure-7 artifact in step 4's python
#    block above.
rm -rf build/check_portfolio && mkdir -p build/check_portfolio
./build/examples/verify_tool --deterministic-trace --portfolio=on --jobs=4 \
    --trace=build/check_portfolio/on.json examples/demo.c > /dev/null
./build/examples/verify_tool --deterministic-trace --portfolio=off --jobs=1 \
    --trace=build/check_portfolio/off.json examples/demo.c > /dev/null
cmp build/check_portfolio/on.json build/check_portfolio/off.json || {
  echo "check.sh: on trace differs from off on proved-by-default goals"; exit 1; }

# 6. Daemon smoke: start verifyd --stdio on a copy of the demo, wait for
#    the cold-start revision, edit one function in place, force a check,
#    and assert exactly that one function was re-verified (the daemon's
#    warm-L1 acceptance path), then shut down cleanly.
rm -rf build/check_daemon && mkdir -p build/check_daemon
cp examples/demo.c build/check_daemon/watched.c
fifo=build/check_daemon/in; mkfifo "$fifo"
dout=build/check_daemon/out
./build/examples/verifyd --stdio build/check_daemon/watched.c \
    < "$fifo" > "$dout" &
dpid=$!
exec 9> "$fifo"
for _ in $(seq 1 100); do
  grep -q '"event": "revision_done", "rev": 1' "$dout" 2>/dev/null && break
  sleep 0.1
done
grep -q '"event": "revision_done", "rev": 1' "$dout"
grep -q '"all_verified": true' "$dout"
# Same-length in-place edit of max_sz only (later lines keep their
# locations, so only one function's content hash changes).
sed -i 's/a < b ? b : a/b < a ? a : b/' build/check_daemon/watched.c
echo check >&9
for _ in $(seq 1 100); do
  grep -q '"event": "revision_done", "rev": 2' "$dout" 2>/dev/null && break
  sleep 0.1
done
grep '"event": "revision_done", "rev": 2' "$dout" | grep -q '"reverified": 1'
echo shutdown >&9
exec 9>&-
wait $dpid
grep -q '"event": "shutdown"' "$dout"

# 7. LSP smoke: a scripted editor session against a real rcc-lsp process
#    over stdio Content-Length framing (initialize -> didOpen with a
#    failing function -> located publishDiagnostics -> fixed didSave ->
#    empty clear -> shutdown/exit, plus exit-before-shutdown exiting 1).
scripts/lsp_smoke.sh ./build/examples/rcc-lsp

# 8. Shared-cache identity: separate processes share verification work
#    through one --cache-dir (DESIGN.md, "Sharing one --cache-dir across
#    processes"). Two cold verify_tool processes (--jobs=1 and --jobs=4)
#    run at once on one empty directory, then a third, warm process reads
#    it. All three stable-json outputs must be byte-identical — results
#    served from the shared store equal a local run — and the warm run must
#    be served entirely from the directory, every entry replayed.
rm -rf build/check_shared && mkdir -p build/check_shared
sdir=build/check_shared/cache
./build/examples/verify_tool --jobs=1 --cache-dir=$sdir --deterministic-trace \
    --format=stable-json examples/demo.c > build/check_shared/cold_j1.json &
p1=$!
./build/examples/verify_tool --jobs=4 --cache-dir=$sdir --deterministic-trace \
    --format=stable-json examples/demo.c > build/check_shared/cold_j4.json &
p4=$!
wait $p1 || { echo "check.sh: cold --jobs=1 run failed"; exit 1; }
wait $p4 || { echo "check.sh: cold --jobs=4 run failed"; exit 1; }
out=$(./build/examples/verify_tool --jobs=4 --cache-dir=$sdir \
    --deterministic-trace --format=json examples/demo.c)
echo "$out" | grep -q '"cache_misses": 0' || {
  echo "check.sh: warm shared-cache run re-verified functions"; exit 1; }
echo "$out" | grep -q '"replay_failures": 0' || {
  echo "check.sh: warm shared-cache run had replay failures"; exit 1; }
./build/examples/verify_tool --jobs=4 --cache-dir=$sdir --deterministic-trace \
    --format=stable-json examples/demo.c > build/check_shared/warm.json
cmp build/check_shared/cold_j1.json build/check_shared/cold_j4.json || {
  echo "check.sh: concurrent cold runs disagree"; exit 1; }
cmp build/check_shared/cold_j1.json build/check_shared/warm.json || {
  echo "check.sh: warm shared-cache run differs from the cold runs"; exit 1; }

# 9. ASan/UBSan configuration (trace subsystem, parallel driver, the
#    result store's deserializer, the daemon, and the LSP framing layer are
#    the main customers: data races on buffers, lifetime of cached
#    pointers, attacker-controlled cache and frame bytes, revision/session
#    lifetimes). The store, daemon, and LSP tests (test_store, test_daemon,
#    test_lsp) run as part of the sanitized suite below.
#    Skippable for quick local runs: CHECK_SKIP_SANITIZERS=1 scripts/check.sh
if [ -z "$CHECK_SKIP_SANITIZERS" ]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --build build-asan -j"$(nproc)"
  (cd build-asan && ctest --output-on-failure -j)
  ./build-asan/examples/verify_tool --trace=build-asan/demo_trace.json \
      --profile examples/demo.c > /dev/null
  # The sanitized LSP smoke drives the whole daemon/LSP stack end to end.
  scripts/lsp_smoke.sh ./build-asan/examples/rcc-lsp

  # 10. TSan configuration for the threaded code: the parallel driver
  #     (per-job solver copies, shared session state, result-store tiers)
  #     and the ThreadPool it runs on, plus the pure solvers those jobs run
  #     concurrently, each with its own normalization memo
  #     (Portfolio.CopiedSolverProvesIndependently proves on four threads),
  #     the store probes and replays jobs run against shared tiers, and
  #     capture-avoiding substitution from several threads
  #     (Term.CapturingSubstitutionsAgreeAcrossThreads).
  #     TSan also reports any pool thread still running at exit.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
  cmake --build build-tsan -j"$(nproc)" --target test_parallel test_support \
      test_bitvector test_linear_overflow test_pure_solver test_portfolio \
      test_store test_pure_term
  ./build-tsan/tests/test_parallel
  ./build-tsan/tests/test_support
  ./build-tsan/tests/test_bitvector
  ./build-tsan/tests/test_linear_overflow
  ./build-tsan/tests/test_pure_solver
  ./build-tsan/tests/test_portfolio
  ./build-tsan/tests/test_store
  ./build-tsan/tests/test_pure_term
fi

echo "check.sh: all green"
