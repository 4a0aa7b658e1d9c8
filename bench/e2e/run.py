#!/usr/bin/env python3
"""Run one workload of the hpmm end-to-end benchmark and print its metrics.

    python3 bench/e2e/run.py --workload fig1-sim-p2e18 --seed 1 --seconds 15 --trace 0

Builds hpmm from this checkout (library, then the bench/e2e harness against
the installed package) under .bench_build/, runs the harness for one workload
in its own process, checks the simulated outcomes against expected.json, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; setup_s is the median of five cold set-ups, each in a fresh
harness process started before the measuring one. --trace 1 reports the
per-layer metrics and writes the run's spans as Chrome trace JSON plus a
self-time table under .bench_build/traces/. One process runs at a time.

Extra options: --out FILE appends the full result (set-up and pass samples,
build info) as one JSON line, for bench/e2e/compare.py;
--expected FILE checks against another expected file; --update-expected
records this run's simulated outcomes into expected.json.

Exit codes: 0 correct, 1 a check failed, 2 the benchmark could not run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
HARNESS_TIMEOUT_S = 160  # all hpmm_e2e processes of one run together
SETUPS = 5  # cold set-ups per untraced run; setup_s is their median


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def sh(cmd, log):
    with open(log, "a", encoding="utf-8") as f:
        f.write("$ " + " ".join(map(str, cmd)) + "\n")
        f.flush()
        done = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text(encoding="utf-8", errors="replace")[-4000:]
        die(f"build step failed: {' '.join(map(str, cmd))}\n{tail}")


def build():
    """Builds and installs the library, then the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no hpmm sources at {ROOT}: run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    log.write_text("", encoding="utf-8")
    jobs = str(min(4, os.cpu_count() or 1))
    lib, prefix, drv = BUILD / "hpmm", BUILD / "prefix", BUILD / "e2e"
    if not (lib / "CMakeCache.txt").exists():
        sh(["cmake", "-S", ROOT, "-B", lib, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
            "-DHPMM_BUILD_TESTS=OFF", "-DHPMM_BUILD_BENCH=OFF",
            "-DHPMM_BUILD_EXAMPLES=OFF", f"-DCMAKE_INSTALL_PREFIX={prefix}"], log)
    sh(["cmake", "--build", lib, "-j", jobs], log)
    sh(["cmake", "--install", lib], log)
    if not (drv / "CMakeCache.txt").exists():
        sh(["cmake", "-S", HERE, "-B", drv, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
            f"-DCMAKE_PREFIX_PATH={prefix}"], log)
    sh(["cmake", "--build", drv, "-j", jobs], log)
    return drv / "hpmm_e2e"


def run_harness(cmd, deadline):
    """Runs hpmm_e2e to completion; returns its JSON result line."""
    left = deadline - time.monotonic()
    if left <= 0:
        die(f"hpmm_e2e runs exceeded {HARNESS_TIMEOUT_S} s")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        die(f"hpmm_e2e runs exceeded {HARNESS_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        die(f"hpmm_e2e exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def check_expected(result, expected):
    """Counts runs whose simulated outcome differs from expected.json."""
    failed, reasons = 0, []
    want = expected.get(result["workload"], {})
    seen = result["virtual"]
    for label, exp in want.get("ops", {}).items():
        got = seen.get(label)
        if got is None:
            failed += 1
            reasons.append(f"{label}: no clean run observed")
            continue
        for key in ("t_parallel", "messages", "words"):
            if got[key] != exp[key]:
                failed += got["runs"]
                reasons.append(f"{label}: {key} {got[key]} != expected {exp[key]}")
                break
    hashes = want.get("report_fnv1a64", {})
    seed = str(result["seed"])
    if seed in hashes and hashes[seed] != result.get("serve_report_fnv1a64"):
        failed += result["attempted"]
        reasons.append("serve report hash differs from expected.json")
    return failed, reasons


def update_expected(path, result):
    doc = load_json(path) if Path(path).exists() else {}
    entry = doc.setdefault(result["workload"], {})
    entry["ops"] = {k: {f: v[f] for f in ("t_parallel", "messages", "words")}
                    for k, v in sorted(result["virtual"].items())}
    if "serve_report_fnv1a64" in result:
        entry.setdefault("report_fnv1a64", {})[str(result["seed"])] = \
            result["serve_report_fnv1a64"]
    if not entry["ops"]:
        del entry["ops"]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def build_info():
    info = {"build_type": BUILD_TYPE, "nproc": os.cpu_count(),
            "machine": platform.machine()}
    try:
        info["compiler"] = subprocess.run(
            ["c++", "--version"], capture_output=True, text=True,
            check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        info["compiler"] = None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        info["git_sha"] = sha.stdout.strip() or None
    except OSError:
        info["git_sha"] = None
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    ap.add_argument("--update-expected", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    harness = build()
    common = [harness, f"--workload={args.workload}", f"--seed={args.seed}"]
    deadline = time.monotonic() + HARNESS_TIMEOUT_S
    # Cold set-ups first, each in a fresh process; untraced runs only.
    setups = [] if args.trace else [
        run_harness(common + ["--setup-only=1"], deadline)
        for _ in range(SETUPS)]
    cmd = common + [f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        prefix = traces / f"{args.workload}-s{args.seed}"
        cmd.append(f"--trace-out={prefix}")
    result = run_harness(cmd, deadline)

    if args.update_expected:
        update_expected(args.expected, result)
    failed, reasons = check_expected(result, load_json(args.expected))
    failed += result["failed"]
    reasons = result["reasons"] + reasons
    attempted = result["attempted"]
    for s in setups:
        attempted += s["attempted"]
        failed += s["failed"]
        reasons += s["reasons"]
    setup_samples = [s["metrics"]["setup_s"]["value"] for s in setups]
    if setups:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s"}

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"metric {m['name']} [{m['unit']}] missing from the hpmm_e2e output")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(result["metrics"]) - set(metrics)
    if extra:
        die(f"metrics missing from BENCHMARK.json: {sorted(extra)}")

    for r in reasons:
        print(f"check failed: {r}", file=sys.stderr)
    if args.trace:
        print(f"spans: {prefix}.trace.json, self times: {prefix}.layers.txt",
              file=sys.stderr)
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    if args.out:
        detail = dict(line, workload=args.workload, seed=args.seed,
                      trace=args.trace, seconds=args.seconds,
                      setup_samples_s=setup_samples,
                      pass_wall_samples_s=result["pass_wall_s"],
                      reasons=reasons, build=build_info())
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(detail) + "\n")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
