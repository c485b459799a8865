#!/usr/bin/env python3
"""Benchmark of polycech from outside the package.

    python3 bench/run.py --workload scan|transfer|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]     # every workload, summary table

A run sets up its workload, then runs whole rounds of the same operations
until the next round would end after ``--seconds``, and checks every
answer against the oracles in oracles.py. Its last line of standard
output is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics untraced (--trace 0) or the per-layer metrics of the
traced run (--trace 1). Times are reported at the reference speed of
speed.py. Per-operation rows, the run's environment and the summary,
raw wall times included, go to bench/results/. The exit code is 1 when
an answer is wrong and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedLog

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("scan", "transfer", "cli")
SETUP_SAMPLES = 5  # set-ups per untraced run; setup_s is their median
SETUP_KERNELS = 3  # speed kernel passes on each side of a set-up
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {"ops_per_s": "op/s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

perf = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def result_stem(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{workload}-seed{seed}-trace{trace}"


# --- set-up -------------------------------------------------------------------

def setup_in_process(workload: str, seed: int, trace: bool, speed: SpeedLog):
    """Import the package, make the inputs and warm the contexts.

    Returns (raw seconds, seconds at the reference speed, ops, tracer).
    """
    before = speed.sample(SETUP_KERNELS)
    start = perf()
    sys.path.insert(0, str(SRC))
    import polycech as pc
    if SRC.resolve() not in Path(pc.__file__).resolve().parents:
        raise SystemExit(f"polycech was imported from {pc.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    build = workloads.build_scan if workload == "scan" else workloads.build_transfer
    ops = build(seed, pc)
    raw = perf() - start
    speed.sample(SETUP_KERNELS)
    return raw, raw * speed.factor(before), ops, tracer


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of the workload in a fresh interpreter, raw and at the reference speed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S)
    raw, scaled = out.stdout.split()[-2:]
    return float(raw), float(scaled)


def cli_launcher(env: dict, tracer, scratch: Path):
    """Run one command in a fresh interpreter; traced runs use cli_child.py."""
    if tracer is None:
        def launch(argv):
            done = subprocess.run([sys.executable, "-m", "polycech.cli", *argv], cwd=ROOT,
                                  env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            return done.returncode, done.stdout
        return launch

    trace_out = scratch / "trace.json"

    def launch_traced(argv):
        start = perf()
        done = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), str(trace_out), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = perf() - start
        dump = json.loads(trace_out.read_text())
        trace_out.unlink()
        tracer.merge(dump)
        tracer.add_layer("cli.interpreter", 1, wall - dump["main_s"])
        return done.returncode, done.stdout
    return launch_traced


def setup_cli(seed: int, trace: bool, scratch: Path, speed: SpeedLog):
    """Write the documents, then start one cold interpreter that imports the CLI.

    Returns (raw set-up seconds, the same at the reference speed, ops, tracer),
    medians over the set-ups.
    """
    env = child_env()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    launch = cli_launcher(env, tracer, scratch)
    raw, scaled = [], []
    for _ in range(1 if trace else SETUP_SAMPLES):
        before = speed.sample(SETUP_KERNELS)
        start = perf()
        ops = workloads.build_cli(seed, scratch, ROOT, launch)
        subprocess.run([sys.executable, "-c", "import polycech.cli"], cwd=ROOT, env=env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        raw.append(perf() - start)
        speed.sample(SETUP_KERNELS)
        scaled.append(raw[-1] * speed.factor(before))
    return statistics.median(raw), statistics.median(scaled), ops, tracer


# --- timed phase ----------------------------------------------------------------

class Rounds:
    """Outcome of the timed phase: per-operation rows, answers and failures."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []  # (round, op, seconds, ok)
        self.round_s: list[float] = []
        self.factor: list[float] = []  # per round: wall time -> reference speed
        self.answers: dict[str, object] = {}  # op id -> answer of the first round
        self.unstable: dict[str, str] = {}  # op id -> answer that differed later
        self.errors: dict[str, str] = {}


def run_rounds(ops, seconds: float, tracer, root_spans: bool, speed: SpeedLog) -> Rounds:
    """Whole rounds until the next would end after ``seconds``; the speed
    kernel runs between operations and is left out of every time."""
    out = Rounds()
    first = speed.sample()
    start = perf()
    while True:
        round_start, sampled = perf(), speed.sampling_s
        for op in ops:
            if speed.due():
                speed.sample()
            if tracer is not None:
                tracer.set_scope()
                frame = tracer.begin("bench.op") if root_spans else None
            t0 = perf()
            try:
                raw = op.call()
                ok = True
            except Exception:  # an operation that raises is counted as failed
                ok = False
                out.errors.setdefault(op.id, traceback.format_exc(limit=3))
            dt = perf() - t0
            if tracer is not None and frame is not None:
                tracer.end(frame)
            out.rows.append((len(out.round_s), op, dt, ok))
            if ok:
                answer = op.plain(raw)
                first_answer = out.answers.setdefault(op.id, answer)
                if first_answer != answer:
                    out.unstable.setdefault(op.id, repr(answer)[:200])
        last = speed.sample()
        out.round_s.append(perf() - round_start - (speed.sampling_s - sampled))
        out.factor.append(speed.factor(first, last))
        first = last
        elapsed = perf() - start
        if elapsed + elapsed / len(out.round_s) > seconds:
            return out


def check_answers(ops, rounds: Rounds) -> dict[str, str]:
    wrong = {}
    for op in ops:
        if op.id in rounds.unstable:
            wrong[op.id] = f"answer changed between rounds: {rounds.unstable[op.id]}"
        elif op.id in rounds.answers:
            reason = op.check(rounds.answers[op.id])
            if reason:
                wrong[op.id] = reason
    return wrong


def timings(rounds: Rounds, ops_per_round: int, scale: bool) -> tuple[float, float]:
    """ops_per_s over the timed phase and the median operation time,
    at the reference speed when ``scale``."""
    factor = rounds.factor if scale else [1.0] * len(rounds.factor)
    busy = sum(s * f for s, f in zip(rounds.round_s, factor))
    times = [dt * factor[rnd] for rnd, _, dt, ok in rounds.rows if ok] or [0.0]
    return ops_per_round * len(rounds.round_s) / busy, statistics.median(times)


# --- one workload ----------------------------------------------------------------

def per_round_layers(tracer, setup_snapshot: dict, n_rounds: int, factor: float) -> dict:
    """Per-layer metrics of one set-up plus one round of operations, times at
    the reference speed."""
    from tracer import layer_metrics
    totals = {}
    for name, (calls, self_s) in tracer.totals.items():
        c0, s0 = setup_snapshot["totals"].get(name, (0, 0.0))
        totals[name] = (c0 + (calls - c0) / n_rounds,
                        (s0 + (self_s - s0) / n_rounds) * factor)
    counts = {name: setup_snapshot["counts"].get(name, 0)
              + (n - setup_snapshot["counts"].get(name, 0)) / n_rounds
              for name, n in tracer.counts.items()}
    return layer_metrics(totals, counts, tracer.absent)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # one CPU for this process and its children, so that the speed kernel
    # runs where the measured code runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"scratch-{os.getpid()}"
    speed = SpeedLog()
    try:
        if workload == "cli":
            setup_raw, setup_s, ops, tracer = setup_cli(seed, trace, scratch, speed)
            who = resource.RUSAGE_CHILDREN
        else:
            samples = [] if trace else [probe_setup(workload, seed)
                                        for _ in range(SETUP_SAMPLES - 1)]
            raw, scaled, ops, tracer = setup_in_process(workload, seed, trace, speed)
            samples.append((raw, scaled))
            setup_raw = statistics.median(r for r, _ in samples)
            setup_s = statistics.median(s for _, s in samples)
            who = resource.RUSAGE_SELF
        if len({op.id for op in ops}) != len(ops):
            raise AssertionError("operation ids of the workload are not unique")
        snapshot = tracer.snapshot() if tracer is not None else None
        rounds = run_rounds(ops, seconds, tracer, workload != "cli", speed)
        peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wrong = check_answers(ops, rounds)
    ops_per_s, op_s_p50 = timings(rounds, len(ops), scale=True)
    raw_ops_per_s, raw_op_s_p50 = timings(rounds, len(ops), scale=False)
    end_to_end = {"ops_per_s": ops_per_s, "op_s_p50": op_s_p50, "setup_s": setup_s,
                  "peak_rss_mib": peak_rss_mib}
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "rounds": len(rounds.round_s),
        "ops_per_round": len(ops), "round_s": rounds.round_s, "round_factor": rounds.factor,
        "speed_samples": speed.samples,
        "attempted": len(rounds.rows),
        "failed": sum(1 for row in rounds.rows if not row[3]),
        "end_to_end": end_to_end,
        "raw": {"ops_per_s": raw_ops_per_s, "op_s_p50": raw_op_s_p50, "setup_s": setup_raw},
        "wrong": wrong, "errors": rounds.errors,
    }
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    if tracer is not None:
        factor = speed.factor(0)
        metrics = per_round_layers(tracer, snapshot, len(rounds.round_s), factor)
        summary.update(trace_summary(tracer, snapshot, rounds))
        write_spans(tracer, result_stem(workload, seed, 1))
    summary["metrics"] = metrics

    stem = result_stem(workload, seed, int(trace))
    with open(f"{stem}-ops.csv", "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["workload", "round", "op", "polytope", "ring", "seconds", "ok"])
        for rnd, op, dt, ok in rounds.rows:
            out.writerow([workload, rnd, op.id, op.polytope, op.ring, f"{dt:.6f}",
                          int(ok and op.id not in wrong)])
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return {"correct": not wrong, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics,
            "_wrong": wrong, "_errors": rounds.errors}


def trace_summary(tracer, setup_snapshot: dict, rounds: Rounds) -> dict:
    """Raw self-time breakdown of the timed phase and how it adds up to the
    operation wall time."""
    op_wall = sum(dt for _, _, dt, _ in rounds.rows)
    layers = {name: self_s - setup_snapshot["totals"].get(name, (0, 0.0))[1]
              for name, (_, self_s) in tracer.totals.items()}
    attributed = sum(s for name, s in layers.items() if name != "bench.op")
    return {
        "self_s_total": layers,
        "op_wall_s": op_wall,
        # share of operation wall time inside named layers (cli: children plus start-up)
        "coverage": attributed / op_wall if op_wall else 0.0,
        # all self times, the per-operation remainder included, over operation wall time
        "closure": sum(layers.values()) / op_wall if op_wall else 0.0,
        "absent": tracer.absent,
    }


def write_spans(tracer, stem: Path) -> None:
    with open(f"{stem}-spans.csv", "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "name", "start", "end"])
        out.writerows(tracer.spans)


# --- every workload ----------------------------------------------------------------

def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced; prints metrics, counts and overhead."""
    status = 0
    for workload in WORKLOADS:
        summaries = []
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                status = 1
                print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                break
            summaries.append(json.loads(result_stem(workload, seed, trace)
                                        .with_suffix(".json").read_text()))
        if len(summaries) < 2:
            continue
        plain, traced = summaries
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"wrong answers {len(plain['wrong'])}")
        for name, value in plain["end_to_end"].items():
            print(f"  {name:<14} {value:12.6g} {END_TO_END_UNITS[name]}")
        slowdown = plain["end_to_end"]["ops_per_s"] / traced["end_to_end"]["ops_per_s"]
        print(f"  traced run: {slowdown:.3f}x the untraced time per operation, "
              f"coverage {traced['coverage']:.3f}, closure {traced['closure']:.3f}")
        layers = sorted(traced["self_s_total"].items(), key=lambda kv: -kv[1])
        total = sum(s for _, s in layers) or 1.0
        for name, self_s in layers[:8]:
            print(f"    {name:<36} {100 * self_s / total:5.1f}% of self time")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "polycech" / "__init__.py").is_file():
        print(f"bench: the polycech sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        raw, scaled, _, _ = setup_in_process(args.workload, args.seed, False, SpeedLog())
        print(raw, scaled)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wrong, errors = result.pop("_wrong"), result.pop("_errors")
    for op_id, reason in sorted(wrong.items()):
        print(f"WRONG {op_id}: {reason}", file=sys.stderr)
    for op_id, tb in sorted(errors.items()):
        print(f"FAILED {op_id}:\n{tb}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
