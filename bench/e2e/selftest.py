#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (about three minutes).

    python3 bench/e2e/selftest.py

1. Smoke: one short untraced and one short traced run per workload. Each
   must exit 0, print the four result keys, report every metric BENCHMARK.json
   declares for its mode with the declared unit and a well-formed name, and
   fail no operation.
2. The checks bite: a run against an expected.json with one simulated T_p
   changed must report failed operations and exit non-zero.

Exit code 0 when every assertion holds, 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{w['name']} trace={trace}"
            code, res = run(w["name"], trace)
            if code != 0 or res is None:
                problems.append(f"{where}: exit {code}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            problems += [f"{where}: bad name {n!r}" for n in got
                         if not NAME_RE.match(n)]
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']}/{res['attempted']} failed")
            print(f"ok {where}: {res['attempted']} ops checked", flush=True)

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected["inject-packed-coarse"]["ops"]["cannon n=1024 p=16"]["t_parallel"] += 1
    wrong = ROOT / ".bench_build" / "expected-wrong.json"
    wrong.write_text(json.dumps(expected), encoding="utf-8")
    code, res = run("inject-packed-coarse", 0, "--expected", str(wrong))
    if code == 0 or res is None or res["failed"] == 0 or res["correct"]:
        problems.append(f"wrong expected.json was not caught (exit {code})")
    else:
        print(f"ok checks bite: {res['failed']}/{res['attempted']} failed, "
              f"exit {code}")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
