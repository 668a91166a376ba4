"""Benchmark of the gtsg command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports the package from
``src/`` beside this directory and refuses to run without it.  Commands
go through ``gtsg.cli.main`` in this process, with stdout captured, and
every function cache in the package is cleared before each command, so no
command reuses another's tables.  The timed run (``--trace 0``) repeats the
workload's round of commands for about S seconds and reports the
end-to-end figures; the traced run (``--trace 1``) runs one round plain
and one round under spans and reports the per-layer figures.  The outputs
are checked against references computed apart from the program after
the timing ends.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def import_gtsg():
    """Import the package from this tree's src/, or exit 2 without it."""
    src = ROOT / "src"
    if not (src / "gtsg" / "__init__.py").is_file():
        sys.exit(f"run.py: no gtsg package under {src}; run from a gtsg source tree")
    sys.path.insert(0, str(src))
    # the program's own default enumeration cap applies, whatever the caller set
    os.environ.pop("GTSG_S0_CAP", None)
    import gtsg
    import gtsg.cli

    if Path(gtsg.__file__).resolve().parent != src / "gtsg":
        sys.exit(f"run.py: imported gtsg from {gtsg.__file__}, not from {src}")
    return gtsg


def clear_caches() -> None:
    """Empty every functools cache in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "gtsg" or name.startswith("gtsg."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_command(gtsg, argv):
    """One command through cli.main: (seconds, exit code or error name, stdout)."""
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = gtsg.cli.main(argv)
    except (Exception, SystemExit) as exc:
        status = type(exc).__name__
    return time.perf_counter() - start, status, out.getvalue()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Results:
    """Outcome of every command of a run; round 0's outputs are spilled to
    disk for the checks, later rounds keep only a digest."""

    def __init__(self, spill: Path, commands):
        self.spill = spill
        self.commands = commands
        self.digests = [None] * len(commands)
        self.statuses = [None] * len(commands)
        self.walls = []                 # (command index, seconds or inf)
        self.attempted = 0
        self.failed = 0
        self.repeats_differ = []

    def add(self, index, wall, status, out, round_no):
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        if status != 0:
            self.failed += 1
            wall = float("inf")         # a failed command misses every latency limit
        self.walls.append((index, wall))
        if round_no == 0:
            self.statuses[index] = status
            self.digests[index] = digest
            (self.spill / f"{index}.out").write_bytes(out.encode())
        elif (digest, status) != (self.digests[index], self.statuses[index]):
            self.repeats_differ.append(index)

    def output(self, index) -> str:
        return (self.spill / f"{index}.out").read_bytes().decode()


def check_results(results: Results) -> list[str]:
    """Check every command's output; a failure is allowed only where the
    command is known to hit that fault."""
    from checks import Checker

    checker = Checker()
    problems = []
    for i, cmd in enumerate(results.commands):
        status = results.statuses[i]
        label = " ".join(cmd.argv)[:120]
        if status != 0:
            if status != cmd.fault:
                problems.append(f"{label}: exit {status}")
            continue
        problems += [f"{label}: {p}" for p in checker.check(cmd, results.output(i))]
    for i in sorted(set(results.repeats_differ)):
        problems.append(f"{' '.join(results.commands[i].argv)[:120]}: a repeat gave other output")
    return problems


def timed_run(gtsg, commands, seconds, spill):
    """Repeat the round for about ``seconds``.  Throughput and CPU are the
    medians over rounds, so a slow spell of the machine moves one round,
    not the figure."""
    results = Results(spill, commands)
    round_walls, round_cpus = [], []
    start = time.perf_counter()
    while True:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for i, cmd in enumerate(commands):
            wall, status, out = run_command(gtsg, cmd.argv)
            results.add(i, wall, status, out, len(round_walls))
        round_walls.append(time.perf_counter() - t0)
        round_cpus.append(cpu_seconds() - cpu0)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(round_walls) > seconds:
            break
    done = sum(cmd.work for i, cmd in enumerate(commands) if results.statuses[i] == 0)
    walls = [w for _, w in results.walls]
    metrics = {
        "work_per_s": (statistics.median(done / w for w in round_walls), "1/s"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(round_cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"rounds": len(round_walls), "elapsed_s": elapsed, "commands": len(walls)}
    if len(walls) >= 100:
        info["cmd_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    return results, metrics, info


def setup_seconds(workload, seed) -> float:
    """Median wall of fresh processes that start the interpreter, import
    gtsg and generate the inputs, as a run does before its first command."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def traced_run(gtsg, commands, spill, workload, seed):
    """One round plain, then the same round with the layers traced.  For
    the verify sweep the traced round also runs the same command with
    ``--jobs 1``: pool workers are not traced, so the serial pass is where
    the per-point layer figures come from."""
    import spans

    plain = Results(spill / "plain", commands)
    plain.spill.mkdir()
    for i, cmd in enumerate(commands):
        wall, status, out = run_command(gtsg, cmd.argv)
        plain.add(i, wall, status, out, 0)

    tracer = spans.Tracer()
    traced = Results(spill / "traced", commands)
    traced.spill.mkdir()
    bytes_out = 0
    try:
        tracer.install(gtsg)
        for i, cmd in enumerate(commands):
            wall, status, out = run_command(gtsg, cmd.argv)
            traced.add(i, wall, status, out, 0)
            bytes_out += len(out.encode())
            if cmd.kind == "verify":
                _, s_status, s_out = run_command(gtsg, serial_argv(cmd.argv))
                if (s_status, s_out) != (status, out):
                    traced.repeats_differ.append(i)
    finally:
        tracer.uninstall()

    plain_s = sum(w for w in finite_walls(plain) if w is not None)
    traced_s = sum(w for w in finite_walls(traced) if w is not None)
    metrics = spans.layer_metrics(tracer, bytes_out, traced_s - plain_s)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "functions": tracer.to_json(),
         "walls_s": {"plain": finite_walls(plain), "traced": finite_walls(traced)}},
        indent=1))
    for i in range(len(commands)):
        if (plain.digests[i], plain.statuses[i]) != (traced.digests[i], traced.statuses[i]):
            traced.repeats_differ.append(i)
    return plain, traced, metrics


def finite_walls(results):
    """Each command's wall, None for a failed one."""
    return [None if w == float("inf") else w for _, w in results.walls]


def serial_argv(argv):
    """The same verify command run without a pool."""
    i = argv.index("--jobs")
    return [*argv[:i + 1], "1", *argv[i + 2:]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    gtsg = import_gtsg()
    commands = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    spill = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spill.mkdir(parents=True)
    try:
        if args.trace:
            plain, traced, metrics = traced_run(gtsg, commands, spill, args.workload, args.seed)
            problems = check_results(traced)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            info = {}
        else:
            results, metrics, info = timed_run(gtsg, commands, args.seconds, spill)
            metrics["setup_s"] = (setup_seconds(args.workload, args.seed), "s")
            problems = check_results(results)
            attempted, failed = results.attempted, results.failed
    finally:
        shutil.rmtree(spill, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "problems": len(problems), **info}
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
