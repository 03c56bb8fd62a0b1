"""Benchmark for mediant: one workload per run, timed end to end or traced per module.

Run from the root of a checkout (the package is taken from its src/):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (see README.md): verify, render, lookup.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs the per-module suite in
layers.py instead.  Human-readable lines come first; the last line of stdout
is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from calibrate import REF_S, HostSpeed
from checks import RenderChecker, check_verify, verify_items
from inputs import DEPTH, LONG_PER_ROUND, ROUND_SIZE, render_commands

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"  # trace spans and child stderr, inside the checkout
# One `fusc 0` process varies by ~25% here, so set-up is a median of probes
# spread over the run.
SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_ROUND = 2
LOOKUP_SETUP_PROBES = 4
OP_TIMEOUT_S = 120  # a hung operation counts as failed instead of stalling the run


class Op(NamedTuple):
    """One finished child process."""

    code: int
    stdout: str
    seconds: float
    rss_mb: float
    stderr: str


class Runner:
    """Starts one child at a time, with the checkout's src/ as its PYTHONPATH."""

    def __init__(self, root: Path):
        self.root = root
        # Inherited PYTHON* settings (unbuffered output, no bytecode cache)
        # would change what is measured, so children get none but the path.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")
        out = root / OUT_DIR
        out.mkdir(exist_ok=True)
        self.stderr_path = out / "stderr.txt"

    def run(self, argv: list[str]) -> Op:
        with open(self.stderr_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=self.root)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return Op(proc.returncode, stdout.decode(), seconds, usage.ru_maxrss / 1024, stderr)

    def mediant(self, argv: list[str]) -> Op:
        return self.run(["-m", "mediant", *argv])


def setup_probe(runner: Runner) -> float:
    """Wall time of a mediant process that does no work."""
    return runner.mediant(["fusc", "0"]).seconds


def closed_loop(runner: Runner, round_ops, seconds: float) -> dict:
    """Run whole rounds of CLI operations, one caller, until `seconds` have passed.

    round_ops: (argv, check, items) per operation; check(stdout) returns None
    when the output is right.  Operations run in order, each started after
    the previous one ended, with a host probe after each (calibrate.py).
    Throughput is the median over rounds of checked items per second of
    operation time.  The operation time is the median over the round's
    commands of each command's median, which does not jump between two
    commands' durations as a median over all of them can.
    """
    ops = []  # (command, round, start, seconds, checked items)
    setups = []  # (start, seconds)
    failed = wrong = 0
    errors, rss = [], [0.0]
    setup_probe(runner)  # writes the bytecode cache; not counted
    host = HostSpeed()

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        host.take()
        return start, result

    def probe_setup(count: int) -> None:
        setups.extend(timed(lambda: setup_probe(runner)) for _ in range(count))

    probe_setup(SETUP_PROBES_FIRST)
    begin = time.perf_counter()
    rounds = 0
    while time.perf_counter() - begin < seconds:
        for command, (argv, check, items) in enumerate(round_ops):
            start, op = timed(lambda: runner.mediant(argv))
            rss.append(op.rss_mb)
            if op.code != 0:
                failed += 1
                problem = f"{' '.join(argv)}: exit {op.code}: {op.stderr.strip()[-300:]}"
            else:
                problem = check(op.stdout)
                wrong += problem is not None
            ops.append((command, rounds, start, op.seconds, items if problem is None else 0))
            if problem and len(errors) < 5:
                errors.append(problem)
        rounds += 1
        probe_setup(SETUP_PROBES_PER_ROUND)

    per_command = [[] for _ in round_ops]
    round_s, round_items = [0.0] * rounds, [0] * rounds
    for command, r, start, op_s, items in ops:
        scaled = host.scale(start, op_s)
        per_command[command].append(scaled)
        round_s[r] += scaled
        round_items[r] += items
    return {
        "setup_s": statistics.median(host.scale(start, s) for start, s in setups),
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "items_per_s": statistics.median(i / s for i, s in zip(round_items, round_s)),
        "op_p50_ms": statistics.median(map(statistics.median, per_command)) * 1e3,
        "peak_rss_mb": max(rss),
        "notes": [_speed_note(host.median_ms(), 1e3 * statistics.median(op[3] for op in ops))],
    }


def _speed_note(probe_ms: float, raw_ms: float) -> str:
    return (f"host probe median {probe_ms:.1f} ms (reference {1e3 * REF_S:.1f} ms);"
            f" unscaled median operation {raw_ms:.4g} ms")


def run_verify(runner: Runner, seed: int, seconds: float) -> dict:
    # The input is the paper's own: one full sweep at a fixed depth.  --jobs 1
    # keeps the sweep to one process; see README.md for the --jobs 2 spread.
    argv = ["verify", "--depth", str(DEPTH), "--jobs", "1"]
    return closed_loop(
        runner, [(argv, lambda out: check_verify(out, DEPTH), verify_items(DEPTH))], seconds)


def run_render(runner: Runner, seed: int, seconds: float) -> dict:
    commands = render_commands(seed)
    checker = RenderChecker(commands)
    round_ops = [
        (argv, lambda out, name=name: checker.check(name, out), checker.items[name])
        for name, argv in commands
    ]
    return closed_loop(runner, round_ops, seconds)


def run_lookup(runner: Runner, seed: int, seconds: float) -> dict:
    worker = str(HERE / "lookup_worker.py")

    def worker_run(*args) -> dict:
        op = runner.run([worker, *args])
        if op.code != 0:
            raise RuntimeError(f"lookup worker failed: {op.stderr.strip()[-300:]}")
        return json.loads(op.stdout)

    def probe_setup() -> list[float]:
        host = HostSpeed()
        timed = []
        for _ in range(LOOKUP_SETUP_PROBES):
            start = time.perf_counter()
            timed.append((start, worker_run("--setup-only")["setup_s"]))
            host.take()
        return [host.scale(start, s) for start, s in timed]

    # Set-up probes in fresh processes, before and after the measured one.
    setups = probe_setup()
    result = worker_run("--seed", str(seed), "--seconds", str(seconds))
    result["setup_s"] = statistics.median(setups + probe_setup())
    result["notes"] = [
        f"{result['rounds']} rounds of {ROUND_SIZE} queries, {LONG_PER_ROUND} per round with a"
        f" long run; those took {100 * result['long_share']:.1f}% of the query time",
        _speed_note(result["probe_ms"], result["raw_p50_ms"])]
    return result


WORKLOADS = {"verify": run_verify, "render": run_render, "lookup": run_lookup}


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": (result["setup_s"], "s"),
        "items_per_s": (result["items_per_s"], "items/s"),
        "op_p50_ms": (result["op_p50_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mediant" / "__init__.py").is_file():
        print(f"error: no mediant package under {root / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    runner = Runner(root)
    if args.trace:
        import layers

        result = layers.run(root, runner, args.workload, args.seed)
        metrics = result.pop("metrics")
    else:
        result = WORKLOADS[args.workload](runner, args.seed, args.seconds)
        metrics = end_to_end(result)

    for error in result["errors"]:
        print(f"error: {error}")
    for note in result.get("notes", []):
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  wrong {result['wrong']}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
