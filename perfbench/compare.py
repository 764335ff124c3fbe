#!/usr/bin/env python3
"""Summarize or compare sets of benchmark runs.

    python3 perfbench/compare.py RUNS.jsonl              # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl    # verdicts, NEW vs BASE

A set of runs is a JSONL file written by `perfbench/run.py --record FILE`,
one run per line. For each workload and metric the tool prints the median,
the interquartile range (IQR, from statistics.quantiles(values, n=4)) and
a verdict under the bounds in BENCHMARK.json:

  one set   steady      IQR/median <= bound/3
            ok          IQR/median <= bound
            NOISY       IQR/median >  bound (setup_s: never NOISY, see below)
  two sets  WORSE       NEW's median is worse than BASE's by more than the bound
            better      better by more than BASE's own IQR, and NEW wins at least
                        nine in ten of the runs paired by seed
            unresolved  BASE's spread exceeds the bound and the sets overlap
            same        otherwise

setup_s is judged by the shift of its median only, as the benchmark's
acceptance rule has it: a run starts the service a handful of times, and
start-up time moves with the host's state between runs more than any
other metric, so its spread within one set is shown but never refused.

Each workload also gets an op_fail_frac row per trace mode: the runs'
pooled `failed` / `attempted`. A single set shows it. Two sets compare it:

            WORSE       NEW fails more often than BASE, beyond BASE's own
                        run-to-run range and by more than FAIL_TOLERANCE of
                        BASE's fraction (any failure, when BASE had none)
            better      the mirror image
            same        otherwise

The tolerance exists because failures are counted per operation of any
kind: while some routes fail, a faster router runs more routes beside the
same publishes and raises the fraction without failing more often.

Per-layer metrics (traced runs) have no bound and get no verdict. The exit
code is 1 when a single set has a NOISY metric or NEW is WORSE anywhere.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
FAIL_TOLERANCE = max(m["bound"] for m in SPEC["end_to_end"])


def load(path):
    """({(workload, metric): {seed: value}},
        {(workload, trace): {seed: (attempted, failed)}}) over the file's runs."""
    runs, ops = defaultdict(dict), defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        result = record["result"]
        for name, metric in result["metrics"].items():
            runs[(record["workload"], name)][record["seed"]] = metric["value"]
        ops[(record["workload"], record["trace"])][record["seed"]] = (
            result["attempted"], result["failed"])
    return runs, ops


def fail_frac(by_seed):
    """Pooled failed / attempted, and the per-run fractions."""
    attempted = sum(a for a, _ in by_seed.values())
    failed = sum(f for _, f in by_seed.values())
    return failed / attempted, [f / a for a, f in by_seed.values()]


def fail_label(workload, trace):
    return workload, "op_fail_frac" + (" (traced)" if trace else "")


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def spread(median, iqr):
    return iqr / abs(median) if median else float("inf")


def worse_by(metric, base, new):
    """Relative change of NEW against BASE, positive when NEW is worse."""
    change = (new - base) / abs(base) if base else 0.0
    return change if metric["better"] == "lower" else -change


def single(sets):
    runs, ops = sets
    status = 0
    print(f"{'workload':<22}{'metric':<28}{'n':>3}{'median':>14}{'IQR':>12}"
          f"{'IQR/med':>9}{'bound':>7}  verdict")
    for (workload, name), by_seed in sorted(runs.items()):
        values = list(by_seed.values())
        median, iqr = summary(values)
        metric = END_TO_END.get(name)
        verdict, bound = "", ""
        if metric:
            bound = f"{metric['bound']:.2f}"
            s = spread(median, iqr)
            if s <= metric["bound"] / 3:
                verdict = "steady"
            elif s <= metric["bound"] or name == "setup_s":
                verdict = "ok"
            else:
                verdict, status = "NOISY", 1
        print(f"{workload:<22}{name:<28}{len(values):>3}{median:>14.6g}{iqr:>12.4g}"
              f"{spread(median, iqr):>9.3f}{bound:>7}  {verdict}")
    for (workload, trace), by_seed in sorted(ops.items()):
        pooled, per_run = fail_frac(by_seed)
        workload, name = fail_label(workload, trace)
        print(f"{workload:<22}{name:<28}{len(per_run):>3}{pooled:>14.6g}"
              f"  (runs {min(per_run):.4g} to {max(per_run):.4g})")
    return status


def verdict(metric, base, new):
    base_median, base_iqr = summary(list(base.values()))
    new_median, _ = summary(list(new.values()))
    change = worse_by(metric, base_median, new_median)
    if spread(base_median, base_iqr) > metric["bound"]:
        if all(worse_by(metric, b, n) < 0 for b in base.values() for n in new.values()):
            return "better"
        if all(worse_by(metric, b, n) > 0 for b in base.values() for n in new.values()):
            return "WORSE"
        return "unresolved"
    if change > metric["bound"]:
        return "WORSE"
    paired = [worse_by(metric, base[s], new[s]) for s in base if s in new]
    wins = sum(1 for d in paired if d < 0)
    if abs(new_median - base_median) > base_iqr and change < 0 and paired \
            and wins >= 0.9 * len(paired):
        return "better"
    return "same"


def fail_verdict(base, new):
    base_pooled, base_runs = fail_frac(base)
    new_pooled, _ = fail_frac(new)
    if new_pooled > max(base_runs) and new_pooled > base_pooled * (1 + FAIL_TOLERANCE):
        return "WORSE"
    if new_pooled < min(base_runs) and new_pooled < base_pooled * (1 - FAIL_TOLERANCE):
        return "better"
    return "same"


def compare(base_sets, new_sets):
    (base_runs, base_ops), (new_runs, new_ops) = base_sets, new_sets
    status = 0
    print(f"{'workload':<22}{'metric':<28}{'base':>14}{'new':>14}{'worse by':>10}"
          f"{'base IQR':>11}{'bound':>7}  verdict")
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, name = key
        base, new = base_runs[key], new_runs[key]
        base_median, base_iqr = summary(list(base.values()))
        new_median, _ = summary(list(new.values()))
        metric = END_TO_END.get(name)
        text, bound = "", ""
        if metric:
            bound = f"{metric['bound']:.2f}"
            text = verdict(metric, base, new)
            if text == "WORSE":
                status = 1
            change = f"{worse_by(metric, base_median, new_median):>+10.3f}"
        else:
            change = f"{(new_median - base_median) / abs(base_median) if base_median else 0.0:>+10.3f}"
        print(f"{workload:<22}{name:<28}{base_median:>14.6g}{new_median:>14.6g}{change}"
              f"{base_iqr:>11.4g}{bound:>7}  {text}")
    for key in sorted(set(base_ops) & set(new_ops)):
        base_pooled, _ = fail_frac(base_ops[key])
        new_pooled, _ = fail_frac(new_ops[key])
        text = fail_verdict(base_ops[key], new_ops[key])
        if text == "WORSE":
            status = 1
        workload, name = fail_label(*key)
        print(f"{workload:<22}{name:<28}{base_pooled:>14.6g}{new_pooled:>14.6g}"
              f"{'':>10}{'':>11}{'':>7}  {text}")
    return status


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    if len(sys.argv) == 2:
        sys.exit(single(load(sys.argv[1])))
    sys.exit(compare(load(sys.argv[1]), load(sys.argv[2])))


if __name__ == "__main__":
    main()
