"""Seeded input generator for the rankbench benchmark.

Uses only numpy and never imports rankbench, so a change to the program
(including ``rankbench.synthgen``) cannot change the workloads. The same
workload, seed and size always give byte-identical files.

A grid is held as a value cube of shape (datasets, metrics, seeds,
algorithms) plus a status cube of the same shape (0 = ok, 1 = oom,
2 = timeout, 3 = error; failed cells hold NaN). Names are zero-padded so
that their lexicographic order is their index order, which is the order
the program sorts tests, algorithms and seeds in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MANIFEST = json.loads((Path(__file__).parent / "manifest.json").read_text(encoding="utf-8"))
GEN = MANIFEST["generator"]
STATUSES = ("ok", *GEN["fail_statuses"])


@dataclass(frozen=True)
class MetricDef:
    name: str
    higher: bool
    bounds: tuple[float, float] | None


@dataclass(frozen=True)
class Grid:
    """One generated result table."""

    values: np.ndarray  # (datasets, metrics, seeds, algorithms), NaN where failed
    status: np.ndarray  # same shape, int8 index into STATUSES
    metrics: tuple[MetricDef, ...]

    @property
    def failed(self) -> np.ndarray:
        return self.status != 0

    def names(self) -> tuple[list[str], list[str], list[str]]:
        d, _, _, a = self.values.shape
        return (
            [f"a{i:03d}" for i in range(a)],
            [f"d{i:03d}" for i in range(d)],
            [m.name for m in self.metrics],
        )


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload needs: files, argv and the arrays."""

    workload: str
    seed: int
    grids: dict[str, Grid]  # label -> grid; "default" always present
    files: dict[str, bytes]  # file name -> content
    argv: list[str]

    def sha256(self) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest() for name, data in self.files.items()}

    def write(self, directory: Path) -> None:
        for name, data in self.files.items():
            (directory / name).write_bytes(data)


def _metric_defs(spec: list) -> tuple[MetricDef, ...]:
    return tuple(
        MetricDef(name, direction == "higher", tuple(float(b) for b in bounds) if bounds else None)
        for name, direction, bounds in spec
    )


def _scores(rng: np.random.Generator, metrics, d: int, s: int, a: int, quality: np.ndarray,
            fail_prob: float) -> tuple[np.ndarray, np.ndarray]:
    """Latent quality + per-(dataset, metric) effect + per-seed noise, mapped per metric."""
    m = len(metrics)
    effect = rng.normal(0.0, 0.5, size=(d, m, 1, a))
    noise = rng.normal(0.0, 0.7, size=(d, m, s, a))
    z = quality[None, None, None, :] + effect + noise
    snap = rng.random(size=z.shape) < GEN["tie_prob"]
    values = np.empty_like(z)
    for j, metric in enumerate(metrics):
        zj = z[:, j] if metric.higher else -z[:, j]
        if metric.bounds is None:
            v = 50.0 + 10.0 * zj
            step = GEN["unbounded_grid_step"]
            v = np.where(snap[:, j], np.round(v / step) * step, v)
        else:
            # Strictly inside the bounds: an OK score never equals the
            # worst endpoint that failed cells are resolved to.
            lo, hi = metric.bounds
            p = 1.0 / (1.0 + np.exp(-zj))
            p = np.clip(p, 0.001, 0.999)
            step = GEN["bounded_grid_step"]
            p = np.where(snap[:, j], np.clip(np.round(p / step) * step, step, 1.0 - step), p)
            v = lo + (hi - lo) * p
        values[:, j] = v
    fails = rng.random(size=z.shape) < fail_prob
    status = np.where(fails, rng.integers(1, len(STATUSES), size=z.shape), 0).astype(np.int8)
    values[fails] = np.nan
    return values, status


def make_grids(workload: str, seed: int, smoke: bool = False) -> dict[str, Grid]:
    spec = MANIFEST["workloads"][workload]
    shape = spec["smoke" if smoke else "shape"]
    a, d, s = shape["algorithms"], shape["datasets"], shape["seeds"]
    metrics = _metric_defs(spec["metrics"])
    rng = np.random.default_rng([seed, spec["index"]])
    quality = np.linspace(1.5, -1.5, a)[rng.permutation(a)]
    grids = {}
    values, status = _scores(rng, metrics, d, s, a, quality, GEN["fail_prob"])
    grids["default"] = Grid(values, status, metrics)
    if "tuned" in spec["grids"].values():
        improved = rng.choice(a, size=min(GEN["tuned_improved_algorithms"], a), replace=False)
        tuned_quality = quality.copy()
        tuned_quality[improved] += GEN["tuned_shift"]
        values, status = _scores(rng, metrics, d, s, a, tuned_quality, GEN["tuned_fail_prob"])
        grids["tuned"] = Grid(values, status, metrics)
    return grids


def _rows(grid: Grid):
    algorithms, datasets, metrics = grid.names()
    d, m, s, a = grid.values.shape
    for di in range(d):
        for mi in range(m):
            for si in range(s):
                for ai in range(a):
                    st = int(grid.status[di, mi, si, ai])
                    value = None if st else float(grid.values[di, mi, si, ai])
                    yield algorithms[ai], datasets[di], metrics[mi], si, value, STATUSES[st]


def grid_csv(grid: Grid) -> bytes:
    lines = ["algorithm,dataset,metric,seed,value,status"]
    lines.extend(
        f"{alg},{ds},{met},{seed},{'' if value is None else repr(value)},{status}"
        for alg, ds, met, seed, value, status in _rows(grid)
    )
    return ("\n".join(lines) + "\n").encode()


def grid_json(grid: Grid) -> bytes:
    keys = ("algorithm", "dataset", "metric", "seed", "value", "status")
    return json.dumps([dict(zip(keys, row)) for row in _rows(grid)]).encode()


def registry_text(metrics: tuple[MetricDef, ...]) -> bytes:
    lines = []
    for m in metrics:
        lines.append(f"metric.{m.name}.direction = {'higher' if m.higher else 'lower'}")
        if m.bounds is not None:
            lines.append(f"metric.{m.name}.bounds = {m.bounds[0]!r},{m.bounds[1]!r}")
    return ("\n".join(lines) + "\n").encode()


def generate(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Build the inputs of one workload run from its seed."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    spec = MANIFEST["workloads"][workload]
    grids = make_grids(workload, seed, smoke)
    files = {"registry.txt": registry_text(grids["default"].metrics)}
    for name, label in spec["grids"].items():
        files[name] = grid_json(grids[label]) if name.endswith(".json") else grid_csv(grids[label])
    argv = [arg.replace("{seed}", str(seed)) for arg in spec["argv"]]
    return Inputs(workload, seed, grids, files, argv)
