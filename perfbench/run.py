#!/usr/bin/env python3
"""Builds the qo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
reuse that build. The benchmark binary runs with every QO_* variable removed
from its environment, so it measures the program's default settings.
--seed defaults to DEFAULT_SEED; HELD_OUT_SEED is kept for re-checking a
claim on data not used while writing the change.

Besides the binary's own checks, this script keeps the output digests and
work counters of every run under .bench_build/perfbench-state, keyed by a
hash of the sources (src/ and perfbench/), the workload and the seed, and
compares runs of the same sources at the same seed, timed or traced: a
different digest is a failed check (exit 1), a different work counter is
reported as drift. The last line of stdout is the result object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
STATE = BUILD_ROOT / "perfbench-state"
BINARY = BUILD / "qo_perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
WORKLOADS = ("daily_loop", "serve_compile", "serve_rank")
DEFAULT_SEED = 2022
HELD_OUT_SEED = 7


def fail(message, code=1):
    print(message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    with open(log, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        fail("command failed: %s\n%s" % (" ".join(map(str, cmd)),
                                          "\n".join(tail)))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no qo sources at %s; run from a full checkout" % (ROOT / "src"), 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD / "configure.log", BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "-j", jobs],
               BUILD / "build.log", BUILD_TIMEOUT_S)


def parse_kv_line(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def source_hash():
    """Hash of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_with_earlier(workload, seed, lines):
    """Checks digests and work counters against earlier runs of the same
    sources at this seed."""
    digests = {}
    text = parse_kv_line(lines, "digest:") or ""
    for part in text.split():
        key, _, value = part.partition("=")
        digests[key] = value
    counters = json.loads(parse_kv_line(lines, "counters:") or "{}")

    STATE.mkdir(parents=True, exist_ok=True)
    path = STATE / ("%s-%s-%d.json" % (source_hash(), workload, seed))
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    notes, problems = [], []
    for key, value in digests.items():
        before = earlier.get("digests", {}).get(key)
        if before is not None and before != value:
            problems.append("CHECK FAILED: digest %s=%s differs from an earlier "
                            "run at seed %d (%s)" % (key, value, seed, before))
    for name, value in counters.items():
        before = earlier.get("counters", {}).get(name)
        if before is not None and before != value:
            notes.append("counter drift: %s = %s, earlier run at seed %d had %s"
                         % (name, value, seed, before))
    for name in earlier.get("counters", {}):
        if name not in counters:
            notes.append("counter missing: %s (recorded by an earlier run)"
                         % name)
    merged = {"digests": dict(earlier.get("digests", {}), **digests),
              "counters": dict(earlier.get("counters", {}), **counters)}
    path.write_text(json.dumps(merged, indent=1, sort_keys=True))
    return notes, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="workload seed (default %d; %d is held out for re-checking a "
        "claim)" % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()

    env = {k: v for k, v in os.environ.items() if not k.startswith("QO_")}
    stripped = sorted(k for k in os.environ if k.startswith("QO_"))
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        fail("benchmark exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else
                                      "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        print("\n".join(lines[:-1]))
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(wanted)))

    notes, problems = compare_with_earlier(args.workload, args.seed, lines)
    print("\n".join(lines[:-1]))
    if stripped:
        print("removed from the benchmark's environment: " + " ".join(stripped))
    for line in notes + problems:
        print(line)
    if problems:
        sys.exit(1)
    print(lines[-1])


if __name__ == "__main__":
    main()
