#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--record runs.jsonl]
    python3 perfbench/run.py --self-test [--seed <n>]
    python3 perfbench/run.py --size-sweep [--seed <n>]

Run from the repository root. The first call configures and builds
perfbench/ (a standalone CMake project over ../src) into $CARGO_TARGET_DIR
or .bench_build/; later calls only rebuild what changed. The measuring
program prints human-readable lines and, last, one JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set (spans go to <build>/traces/). --record
appends {"workload", "seed", "trace", "result"} as one line to a file,
the input format of perfbench/compare.py. The exit code is the measuring
program's: non-zero when the correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (log: {log_path})")
    return build_root, build_dir / "arbbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSONL file")
    parser.add_argument("--self-test", action="store_true",
                        help="check seeding and that the gates refuse perturbed outputs")
    parser.add_argument("--size-sweep", action="store_true",
                        help="print route cost and method against query size")
    args = parser.parse_args()
    mode = "--self-test" if args.self_test else "--size-sweep" if args.size_sweep else None
    if not mode and not args.workload:
        parser.error("--workload is required")

    build_root, binary = build()
    if mode:
        sys.exit(subprocess.run([str(binary), mode, "--seed", str(args.seed)]).returncode)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_root / "traces"
        trace_dir.mkdir(exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"measuring program exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    metrics = {}
    for metric in expected_metrics(args.trace):
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")
        metrics[metric["name"]] = got
    result["metrics"] = metrics
    if args.record:
        with open(args.record, "a") as out:
            out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
