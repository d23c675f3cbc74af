"""Benchmark for the rankbench CLI.

Run from the root of a rankbench checkout:

    python3 perfbench/run.py --workload coeff-unbounded --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Inputs come from the benchmark's own seeded generator (workloads.py); each
output is checked against a numpy reference (reference.py) and must be
byte-identical to the first invocation of the run. With ``--trace 0`` every
invocation is a fresh ``rankbench`` child process, timed from spawn to exit,
with CPU time and peak memory read from its own rusage; the end-to-end
metrics are medians, with times put on a reference speed scale by the
calibration loops timed around each child (see REFERENCE_CALIBRATION_S).
With ``--trace 1`` the children run tracing.py, which
calls ``rankbench.cli.main`` in-process, alternately traced and plain, and
the per-layer metrics are medians over the traced children. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MANIFEST = workloads.MANIFEST
SETUP_REPEATS = 9
MIN_SAMPLES = 3
MIN_TRACE_PAIRS = 2
# Nominal seconds of launcher.calibrate(). End-to-end times are reported on
# the scale where that loop takes this long: each child's raw seconds times
# REFERENCE_CALIBRATION_S over the mean seconds of the CALIBRATIONS loops
# timed right before and the CALIBRATIONS loops right after it.
REFERENCE_CALIBRATION_S = 0.1
CALIBRATIONS = 2
CLI_ENTRY = "import sys; from rankbench.cli import main; sys.exit(main())"


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("RANKBENCH_LOG", None)
    return env


class Child(NamedTuple):
    rc: int
    wall: float
    cpu: float
    maxrss_mb: float
    calibration: list[float]


def on_reference_scale(raw: float, child: Child) -> float:
    return raw * REFERENCE_CALIBRATION_S / statistics.mean(child.calibration)


class Launcher:
    """Runs children one at a time through launcher.py and returns, per
    child, its exit code, wall s, cpu s and peak RSS MB from its own rusage,
    and the seconds of each calibration loop timed around it."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, cmd: list[str], cwd: Path, calibrate: int = 0) -> Child:
        request = {"cmd": cmd, "cwd": str(cwd), "calibrate": calibrate}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("launcher exited early")
        return Child(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def check_checkout(env: dict[str, str]) -> None:
    """Fail unless rankbench imports from this checkout's src directory."""
    if not (SRC / "rankbench" / "cli.py").is_file():
        raise SetupError(f"no rankbench sources under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import rankbench.cli; print(rankbench.cli.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"rankbench.cli does not import from {SRC}: {probe.stderr.strip()}")


def measure_setup(launcher: Launcher) -> float:
    children = []
    for _ in range(SETUP_REPEATS):
        child = launcher.run([sys.executable, "-c", "import rankbench.cli"], ROOT, CALIBRATIONS)
        if child.rc != 0:
            raise SetupError("import rankbench.cli failed")
        children.append(child)
    print_samples("setup", children)
    return statistics.median(on_reference_scale(c.wall, c) for c in children)


def print_samples(what: str, children: list[Child]) -> None:
    print(f"{what}: raw samples")
    print(f"  raw wall: {' '.join(f'{c.wall:.4f}' for c in children)}")
    print(f"  raw cpu: {' '.join(f'{c.cpu:.4f}' for c in children)}")
    print(f"  calibration loop: {' '.join(f'{t:.4f}' for c in children for t in c.calibration)}")


@dataclass
class Checker:
    """Counts an invocation as failed on a non-zero exit, a reference
    mismatch, or output bytes that differ from the run's first invocation."""

    workdir: Path
    inputs: workloads.Inputs
    expected: dict
    first_digest: str | None = None
    first_errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def outputs(self) -> dict[str, bytes]:
        return {
            p.name: p.read_bytes()
            for p in sorted(self.workdir.iterdir())
            if p.is_file() and p.name not in self.inputs.files and not p.name.startswith("trace-")
        }

    def clear(self) -> None:
        for name in self.outputs():
            (self.workdir / name).unlink()

    def record(self, rc: int) -> dict[str, bytes]:
        outputs = self.outputs()
        digest = hashlib.sha256(b"".join(n.encode() + b"\0" + d for n, d in outputs.items())).hexdigest()
        self.attempted += 1
        if self.first_digest is None:
            self.first_digest = digest
            self.first_errors = reference.check(self.inputs.argv[0], self.expected, outputs)
            for error in self.first_errors[:10]:
                print(f"check: {error}", file=sys.stderr)
        ok = rc == 0 and digest == self.first_digest and not self.first_errors
        if rc == 0 and digest != self.first_digest:
            print("check: output bytes differ from the first invocation", file=sys.stderr)
        self.failed += not ok
        return outputs


def keep_going(start: float, seconds: float, minimum: int, durations: list[float]) -> bool:
    """Another sample fits if it is needed or ends within the time budget."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def run_e2e(checker: Checker, launcher: Launcher, seconds: float, setup_s: float) -> dict:
    cmd = [sys.executable, "-c", CLI_ENTRY, *checker.inputs.argv]
    checker.clear()
    checker.record(launcher.run(cmd, checker.workdir).rc)  # untimed warm-up
    children, durations = [], []
    start = time.perf_counter()
    while keep_going(start, seconds, MIN_SAMPLES, durations):
        began = time.perf_counter()
        checker.clear()
        child = launcher.run(cmd, checker.workdir, CALIBRATIONS)
        checker.record(child.rc)
        children.append(child)
        durations.append(time.perf_counter() - began)
    print(f"samples: {len(children)} CLI invocations measured in {time.perf_counter() - start:.1f} s")
    print_samples("CLI", children)
    return {
        "setup_s": setup_s,
        "wall_ref_s": statistics.median(on_reference_scale(c.wall, c) for c in children),
        "cpu_ref_s": statistics.median(on_reference_scale(c.cpu, c) for c in children),
        "peak_rss_mb": statistics.median(c.maxrss_mb for c in children),
    }


def traced_child(checker: Checker, launcher: Launcher, mode: str, invocation: int) -> dict | None:
    out = checker.workdir / f"trace-{invocation}.json"
    cmd = [sys.executable, str(HERE / "tracing.py"), "--mode", mode, "--out", str(out),
           "--invocation", str(invocation), "--", *checker.inputs.argv]
    checker.clear()
    rc = launcher.run(cmd, checker.workdir).rc
    result = json.loads(out.read_text(encoding="utf-8")) if rc == 0 and out.is_file() else None
    outputs = checker.record(result["rc"] if result else 1)
    if result is not None:
        out.unlink()
        result["output_bytes"] = sum(map(len, outputs.values()))
    return result


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced child, named as in manifest.json."""
    summary = tracing.summarize(result["spans"])
    self_s, calls = summary["self_s"], summary["calls"]
    _, start, end, _, _ = result["spans"][0]
    special = {"cli.main_s": end - start, "cli.self_s": self_s["cli.main"], "cli.output_bytes": result["output_bytes"]}
    metrics = {"_self": self_s}
    for name in MANIFEST["per_layer"]:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name.removesuffix(".calls"), 0)
        elif name.endswith("maxrss_mb"):
            metrics[name] = result["maxrss_mb"].get(name, 0.0)
        elif name.endswith("_s"):
            metrics[name] = self_s.get(name.removesuffix("_s"), 0.0)
        else:
            metrics[name] = result["counters"].get(name, 0)
    return metrics


def run_trace(checker: Checker, launcher: Launcher, seconds: float) -> dict:
    checker.clear()
    checker.record(launcher.run([sys.executable, "-c", CLI_ENTRY, *checker.inputs.argv], checker.workdir).rc)
    want = reference.counts(checker.inputs, checker.expected)
    traced, plain, durations = [], [], []
    start = time.perf_counter()
    while keep_going(start, seconds, MIN_TRACE_PAIRS, durations):
        began = time.perf_counter()
        for mode, sink in (("traced", traced), ("plain", plain)):
            result = traced_child(checker, launcher, mode, checker.attempted)
            if result is None or result["rc"] != 0:
                continue
            if mode == "plain":
                sink.append(result["main_s"])
                continue
            wrong = {k: (result["counters"].get(k, 0), v) for k, v in want.items()
                     if result["counters"].get(k, 0) != v}
            if wrong:
                print(f"check: traced counts differ from the reference (got, want): {wrong}", file=sys.stderr)
                checker.failed += 1
            else:
                sink.append(result)
        durations.append(time.perf_counter() - began)
    if not traced or not plain:
        return {}
    per_run = [layer_metrics(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in MANIFEST["per_layer"]}
    metrics["trace.overhead_s"] = statistics.median(r["main_s"] for r in traced) - statistics.median(plain)
    print(f"samples: {len(traced)} traced and {len(plain)} plain in-process runs, "
          f"{traced[0]['bindings']} bindings wrapped")
    print("layer self time (median over traced runs):")
    names = sorted(per_run[0]["_self"], key=lambda n: -statistics.median(m["_self"].get(n, 0.0) for m in per_run))
    for name in names:
        print(f"  {name:40s} {statistics.median(m['_self'].get(name, 0.0) for m in per_run):9.4f} s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, setup_s: float | None,
                 launcher: Launcher) -> dict:
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.generate(workload, seed, smoke)
        inputs.write(workdir)
        checker = Checker(workdir, inputs, reference.expected(inputs))
        print(f"workload {workload} seed {seed}: rankbench {' '.join(inputs.argv)}")
        for name, digest in inputs.sha256().items():
            print(f"  input {name} sha256 {digest}")
        if trace:
            metrics = run_trace(checker, launcher, seconds)
        else:
            metrics = run_e2e(checker, launcher, seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kind = "per_layer" if trace else "end_to_end"
    units = {name: spec["unit"] for name, spec in MANIFEST[kind].items()}
    correct = checker.failed == 0 and bool(metrics)
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  error_rate = {checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed} failed of {checker.attempted} attempted)")
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed if metrics else max(checker.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    names = list(MANIFEST["workloads"])
    parser = argparse.ArgumentParser(description="rankbench CLI benchmark")
    parser.add_argument("--workload", choices=[*names, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="use the small smoke-size inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = child_env()
    launcher = Launcher(env)
    try:
        check_checkout(env)
        setup_s = None if args.trace else measure_setup(launcher)
        for workload in names if args.workload == "all" else [args.workload]:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke, setup_s, launcher)
            print(json.dumps(result), flush=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
