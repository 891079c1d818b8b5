#!/usr/bin/env python3
"""Self-test of the verifier benchmark: python3 perfbench/selftest.py

Runs every workload at a tiny size through perfbench/run.py and checks the
benchmark's own contract: every metric of BENCHMARK.json printed with its
unit, known answers met, the traced rows adding up to the op wall, an
injected wrong verdict detected, and inputs that depend on the seed alone.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seconds", "1", "--mono-functions", "60"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
PROVENANCE_KEYS = {"git_rev", "build_type", "nproc", "seed", "ops",
                   "cache_tier", "traced", "op_tail", "inputs_digest",
                   "verdicts_digest", "reference_kernel_us", "raw"}
RAW_TIMES = {"fns_per_s", "op_p50_ms", "op_tail_ms", "setup_s"}

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           *TINY, *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {r.returncode}")
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            prov, res = run(w, 7, trace)
            tag = f"{w} trace={trace}"
            check(set(res) == RESULT_KEYS, f"{tag}: result has exactly "
                  f"{sorted(RESULT_KEYS)}")
            check(PROVENANCE_KEYS <= set(prov), f"{tag}: provenance record")
            check(prov["traced"] == bool(trace) and prov["seed"] == 7,
                  f"{tag}: provenance matches the run")
            got = res["metrics"]
            for m in wanted:
                check(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                      f"{tag}: {m['name']} printed in {m['unit']}")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{tag}: every operation met its known answers")
            check(prov.get("reference_kernel_us", 0) > 0,
                  f"{tag}: the reference kernel was timed")
            if trace == 0:
                check(got["ok_op_frac"]["value"] == 1.0,
                      f"{tag}: failed_op_frac is 0")
                check(set(prov["raw"]) == RAW_TIMES,
                      f"{tag}: the times as measured are in the provenance")
            else:
                v = {k: x["value"] for k, x in got.items()}
                rows = (v["frontend.compile_us"] + v["refinedc.session_us"]
                        + v["refinedc.build_env_us"]
                        + v["driver.verify_functions_us"]
                        + v["unattributed_us"])
                check(abs(rows - v["trace.op_wall_us"])
                      <= 1e-6 * v["trace.op_wall_us"],
                      f"{tag}: rows + unattributed_us = traced op wall")
                check("trace.overhead_frac" in v,
                      f"{tag}: trace.overhead_frac reported")
                check(v["store.put_us"] > 0 and v["store.entry_bytes"] > 0,
                      f"{tag}: the store probe wrote disk-tier entries")

        _, bad = run(w, 7, 0, "--inject-wrong-verdict")
        check(bad["failed"] > 0 and not bad["correct"]
              and bad["metrics"]["ok_op_frac"]["value"] < 1.0,
              f"{w}: an injected wrong verdict raises failed_op_frac")

        a, _ = run(w, 7, 0)
        b, _ = run(w, 7, 0)
        c, _ = run(w, 8, 0)
        check(a["inputs_digest"] == b["inputs_digest"]
              and a["verdicts_digest"] == b["verdicts_digest"],
              f"{w}: the same seed gives identical inputs and verdicts")
        check(a["inputs_digest"] != c["inputs_digest"],
              f"{w}: a different seed gives different inputs")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
