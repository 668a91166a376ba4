"""Steadiness check: two sets of timed runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Runs the self-test, then two sets of ``--runs`` timed runs of every
workload for BENCHMARK.json's ``run_seconds``, each run with its own seed
(set 1 uses seeds 1..runs, set 2 the next ``runs`` seeds).  For each
end-to-end metric on each workload it reports the spread of each set,
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(values,
n=4)``, and how far the second set's median moved the bad way, both
against the metric's bound in BENCHMARK.json; both count for every
metric, ``setup_s`` included.  The two sets must also fail the same share
of operations.  Writes the figures to perfbench/results/ and exits 1 when
a figure is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(cmd, workload, seed, seconds) -> dict:
    """The result object of one timed run, with its summary line under
    the key ``summary``."""
    argv = [*cmd, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = json.loads(lines[-2].removeprefix("summary "))
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(metric, first, second) -> float:
    """Share by which the second median is worse than the first."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    subprocess.run([sys.executable, str(HERE / "selftest.py")], check=True, cwd=ROOT)

    runs = {w: [[], []] for w in workloads}
    started = time.time()
    for s in range(2):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:
                result = one_run(bench["command"], w, seed, bench["run_seconds"])
                runs[w][s].append(result)
                print(f"set {s + 1} seed {seed} {w}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} " +
                      " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)

    report, bad = {}, []
    for w in workloads:
        sets = runs[w]
        shares = [{r["failed"] / r["attempted"] for r in runs_} for runs_ in sets]
        if not all(r["correct"] for runs_ in sets for r in runs_):
            bad.append(f"{w}: a run was not correct")
        if len(set().union(*shares)) != 1:
            bad.append(f"{w}: failed shares differ: {shares}")
        report[w] = {"failed_share": sorted(set().union(*shares))}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs_] for runs_ in sets]
            row = {"bound": bound,
                   "medians": [statistics.median(v) for v in values],
                   "quartiles": [statistics.quantiles(v, n=4) for v in values],
                   "spreads": [spread(v) for v in values]}
            bad += [f"{w} {name}: spread {sp:.3f} > bound {bound}"
                    for sp in row["spreads"] if sp > bound]
            row["worse_by"] = worse_by(metric, *values)
            if row["worse_by"] > bound:
                bad.append(f"{w} {name}: second median worse by {row['worse_by']:.3f}")
            report[w][name] = row
            print(f"{w:20s} {name:12s} bound {bound:.2f} "
                  f"spreads {' '.join(f'{sp:.3f}' for sp in row['spreads'])} "
                  f"medians {' '.join(f'{m:.6g}' for m in row['medians'])} "
                  f"worse_by {row['worse_by']:+.3f}")
        # the tail is reported, not bounded: see README, "cmd_p90_s"
        tails = [[r["summary"]["cmd_p90_s"] for r in runs_ if "cmd_p90_s" in r["summary"]]
                 for runs_ in sets]
        if all(len(t) >= 4 for t in tails):
            report[w]["cmd_p90_s"] = {"medians": [statistics.median(t) for t in tails],
                                      "spreads": [spread(t) for t in tails]}
            print(f"{w:20s} cmd_p90_s    (no bound) spreads "
                  f"{' '.join(f'{spread(t):.3f}' for t in tails)} "
                  f"medians {' '.join(f'{statistics.median(t):.6g}' for t in tails)}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(
        {"runs": runs, "report": report, "problems": bad,
         "wall_s": time.time() - started}, indent=1))
    for line in bad:
        print("OUT OF BOUND:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
