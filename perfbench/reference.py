"""Correctness reference for the benchmark, in plain numpy.

Expected values are computed straight from the generated arrays of
``workloads.Grid``, never from rankbench code. Failed cells form one
bottom tie group in every (test, seed) row, which is what the program's
failure sentinels produce on these inputs (the generator keeps every OK
bounded score strictly inside its bounds and uses ``--tie-epsilon 0``).

``check`` compares the files a CLI invocation wrote against the expected
values and returns a list of mismatches; an empty list means correct.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from workloads import Grid, Inputs

TOL = 1e-9
COEFFICIENTS = ("w", "w_tied", "w_wasserstein")


def _close(got, want) -> bool:
    return abs(float(got) - float(want)) <= TOL * max(1.0, abs(float(want)))


def _tests(grid: Grid) -> list[tuple[str, str]]:
    _, datasets, metrics = grid.names()
    return [(d, m) for d in datasets for m in metrics]


def rank_keys(grid: Grid) -> np.ndarray:
    """Ascending sort keys, best first, shape (tests, seeds, algorithms).

    Failed cells get +inf, so they tie with each other below every OK cell.
    """
    sign = np.array([-1.0 if m.higher else 1.0 for m in grid.metrics])
    keys = grid.values * sign[None, :, None, None]
    keys = np.where(grid.failed, np.inf, keys)
    d, m, s, a = keys.shape
    return keys.reshape(d * m, s, a)


def rank(keys: np.ndarray, lowest: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """Ranks under mean-of-tied or competition ranking.

    Returns ranks (same shape as keys), the per-test tie correction
    sum(t^3 - t) and the total number of tie groups of size >= 2.
    """
    less = (keys[..., None, :] < keys[..., :, None]).sum(-1)
    size = (keys[..., None, :] == keys[..., :, None]).sum(-1)
    ranks = less + 1.0 if lowest else less + (size + 1) / 2.0
    # Each of the t members of a group contributes t^2 - 1, so a group adds t^3 - t.
    correction = (size**2 - 1).sum(axis=(-2, -1)).astype(float)
    ordered = np.sort(keys, axis=-1)
    same = ordered[..., 1:] == ordered[..., :-1]
    starts = same.copy()
    starts[..., 1:] &= ~same[..., :-1]
    return ranks, correction, int(starts.sum())


def per_test_terms(ranks: np.ndarray, correction: np.ndarray) -> dict[str, np.ndarray]:
    """Per-test W, W_t and normalised pairwise W1 from rank cubes."""
    _, n, a = ranks.shape
    sums = ranks.sum(axis=1)
    dev = sums - n * (a + 1) / 2.0
    w = 12.0 * (dev**2).sum(axis=1) / (n * n * (a**3 - a))
    numerator = 12.0 * (sums**2).sum(axis=1) - 3.0 * n * n * a * (a + 1) ** 2
    denominator = n * n * a * (a * a - 1) - n * correction
    safe = np.where(denominator == 0, 1.0, denominator)
    w_tied = np.where(denominator == 0, 1.0, numerator / safe)
    quantiles = np.sort(ranks, axis=1)
    gaps = np.abs(quantiles[:, :, :, None] - quantiles[:, :, None, :]).mean(axis=1)
    pairwise = gaps.sum(axis=(1, 2)) / 2.0
    w_wasserstein = pairwise / (a * (a - 1) * (a + 1) / 6.0)
    return {"w": w, "w_tied": w_tied, "w_wasserstein": w_wasserstein}


def convergence(terms: dict[str, np.ndarray], coefficients, repeats: int, rng_seed: int) -> dict:
    """Replays the documented numpy-pcg64-seedsequence stream, spawn key (size, repeat)."""
    matrix = np.stack([terms[c] for c in coefficients], axis=1)
    n_tests = matrix.shape[0]
    cells = []
    for k in range(1, n_tests + 1):
        values = np.empty((repeats, len(coefficients)))
        for rep in range(repeats):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(k, rep)))
            idx = np.sort(rng.choice(n_tests, size=k, replace=False))
            values[rep] = 1.0 - matrix[idx].mean(axis=0)
        std = values.std(axis=0, ddof=1) if repeats > 1 else np.zeros(len(coefficients))
        for j, c in enumerate(coefficients):
            cells.append((k, c, values[:, j], float(values[:, j].mean()), float(std[j])))
    full = {c: 1.0 - float(terms[c].mean()) for c in coefficients}
    return {"full": full, "cells": cells, "sizes": list(range(1, n_tests + 1))}


def seed_means(grid: Grid) -> np.ndarray:
    """Per-(test, algorithm) seed means, failed cells at the metric's worst bound."""
    worst = np.array([m.bounds[0] if m.higher else m.bounds[1] for m in grid.metrics])
    values = np.where(grid.failed, worst[None, :, None, None], grid.values)
    d, m, s, a = values.shape
    by_seed_last = np.ascontiguousarray(np.moveaxis(values.reshape(d * m, s, a), 1, -1))
    return by_seed_last.mean(axis=-1)


def fcr(default: Grid, tuned: Grid) -> dict:
    """Two-framework FCR over per-(algorithm, test) units, mean-of-tied ranks."""
    higher = np.tile([m.higher for m in default.metrics], default.values.shape[0])[:, None]
    first, second = seed_means(default), seed_means(tuned)
    first_better = np.where(higher, first > second, first < second)
    tie = first == second
    rank_default = np.where(tie, 1.5, np.where(first_better, 1.0, 2.0))
    units = rank_default.size
    value = float(rank_default.mean())
    return {"fcr": {"default": value, "tuned": 3.0 - value}, "units": units}


def expected(inputs: Inputs) -> dict:
    """Everything a correct report of this workload run must contain."""
    grid = inputs.grids["default"]
    argv = inputs.argv
    out = {"tests": _tests(grid), "sha256": inputs.sha256()}
    if argv[0] == "fcr":
        out.update(fcr(inputs.grids["default"], inputs.grids["tuned"]))
        return out
    lowest = "--tie-policy" in argv and argv[argv.index("--tie-policy") + 1] == "lowest"
    coefficients = (
        argv[argv.index("--coefficients") + 1].split(",") if "--coefficients" in argv else list(COEFFICIENTS)
    )
    ranks, correction, n_ties = rank(rank_keys(grid), lowest)
    terms = per_test_terms(ranks, correction)
    out.update(coefficients=coefficients, terms=terms, n_ties=n_ties)
    if argv[0] == "converge":
        repeats = int(argv[argv.index("--repeats") + 1])
        rng_seed = int(argv[argv.index("--rng-seed") + 1])
        out.update(repeats=repeats, rng_seed=rng_seed,
                   convergence=convergence(terms, coefficients, repeats, rng_seed))
    return out


def counts(inputs: Inputs, exp: dict) -> dict[str, int]:
    """Per-layer counts a traced invocation must record exactly."""
    grids = [inputs.grids[label] for label in sorted(set(inputs.grids))]
    command = inputs.argv[0]
    return {
        "results.ingest.rows": sum(g.values.size for g in grids),
        "results.failed_cells": sum(int(g.failed.sum()) for g in grids),
        "ranking.tie_groups": exp["n_ties"] if command == "coeff" else 0,
        "comparison.units": exp["units"] if command == "fcr" else 0,
        "resampling.draws": len(exp["tests"]) * exp["repeats"] if command == "converge" else 0,
    }


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def _check_inputs(report: dict, exp: dict, errors: list[str]) -> None:
    for name, digest in exp["sha256"].items():
        if name.endswith((".csv", ".json")) and report["inputs"].get(name) != digest:
            errors.append(f"inputs[{name}] digest {report['inputs'].get(name)!r} != {digest}")


def _check_coeff(report: dict, exp: dict, errors: list[str]) -> None:
    if report.get("n_ties") != exp["n_ties"]:
        errors.append(f"n_ties {report.get('n_ties')} != {exp['n_ties']}")
    names = [frag["coefficient"] for frag in report["coefficients"]]
    if names != exp["coefficients"]:
        errors.append(f"coefficients {names} != {exp['coefficients']}")
        return
    for frag in report["coefficients"]:
        c = frag["coefficient"]
        terms = exp["terms"][c]
        if not _close(frag["value"], 1.0 - terms.mean()):
            errors.append(f"{c} total {frag['value']!r} != {1.0 - terms.mean()!r}")
        if c != "w_wasserstein" and frag.get("n_ties") != exp["n_ties"]:
            errors.append(f"{c} n_ties {frag.get('n_ties')} != {exp['n_ties']}")
        if [(t["dataset"], t["metric"]) for t in frag["per_test"]] != exp["tests"]:
            errors.append(f"{c} per-test order or set differs")
            continue
        for item, want in zip(frag["per_test"], terms):
            if not _close(item["w"], want):
                errors.append(f"{c} {item['dataset']}/{item['metric']} {item['w']!r} != {want!r}")


def _check_cells(rows, conv: dict, label: str, errors: list[str]) -> None:
    """rows: (size, coefficient, values or None, mean, std) in report order."""
    rows = list(rows)
    if len(rows) != len(conv["cells"]):
        errors.append(f"{label}: {len(rows)} cells != {len(conv['cells'])}")
        return
    for (size, c, values, mean, std), (k, ck, want_values, want_mean, want_std) in zip(rows, conv["cells"]):
        if (size, c) != (k, ck):
            errors.append(f"{label}: cell ({size}, {c}) != ({k}, {ck})")
            return
        if values is not None and (
            len(values) != len(want_values) or not all(map(_close, values, want_values))
        ):
            errors.append(f"{label}: values of ({k}, {c}) differ")
        if not _close(mean, want_mean) or not _close(std, want_std):
            errors.append(f"{label}: mean/std of ({k}, {c}) {mean!r}/{std!r} != {want_mean!r}/{want_std!r}")


def _check_converge(report: dict, outputs: dict[str, bytes], exp: dict, errors: list[str]) -> None:
    frag = report["convergence"]
    conv = exp["convergence"]
    if (frag["sizes"], frag["repeats"], frag["rng_seed"], frag["coefficients"]) != (
        conv["sizes"], exp["repeats"], exp["rng_seed"], exp["coefficients"]
    ):
        errors.append("convergence settings differ")
        return
    for c, want in conv["full"].items():
        if not _close(frag["full_suite_value"][c], want):
            errors.append(f"full-suite {c} {frag['full_suite_value'][c]!r} != {want!r}")
    _check_cells(
        ((x["size"], x["coefficient"], x["values"], x["mean"], x["std"]) for x in frag["cells"]),
        conv, "report", errors,
    )
    summary = list(csv.reader(io.StringIO(outputs["summary.csv"].decode())))
    if summary[0] != ["size", "coefficient", "mean", "std"]:
        errors.append("summary.csv header differs")
    else:
        _check_cells(
            ((int(r[0]), r[1], None, float(r[2]), float(r[3])) for r in summary[1:]),
            conv, "summary.csv", errors,
        )
    plot = list(csv.reader(io.StringIO(outputs["plot.csv"].decode())))
    want_plot = [
        (k, rep, c, v) for k, c, values, _, _ in conv["cells"] for rep, v in enumerate(values)
    ]
    if plot[0] != ["size", "repeat", "coefficient", "value"] or len(plot) - 1 != len(want_plot):
        errors.append("plot.csv header or row count differs")
    elif any(
        (int(r[0]), int(r[1]), r[2]) != (k, rep, c) or not _close(float(r[3]), v)
        for r, (k, rep, c, v) in zip(plot[1:], want_plot)
    ):
        errors.append("plot.csv rows differ")
    svg = outputs["chart.svg"].decode()
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")) or svg.count("<polyline") != len(
        exp["coefficients"]
    ):
        errors.append("chart.svg is not a chart with one line per coefficient")


def _check_fcr(report: dict, exp: dict, errors: list[str]) -> None:
    frag = report["fcr"]
    if frag["units"] != exp["units"]:
        errors.append(f"fcr units {frag['units']} != {exp['units']}")
    if frag["granularity"] != "per-algorithm-test":
        errors.append(f"fcr granularity {frag['granularity']!r}")
    if sorted(frag["fcr"]) != sorted(exp["fcr"]):
        errors.append(f"fcr labels {sorted(frag['fcr'])}")
        return
    for label, want in exp["fcr"].items():
        if not _close(frag["fcr"][label], want):
            errors.append(f"fcr[{label}] {frag['fcr'][label]!r} != {want!r}")
    f = len(frag["fcr"])
    if not _close(sum(frag["fcr"].values()), f * (f + 1) / 2):
        errors.append(f"fcr values sum to {sum(frag['fcr'].values())!r}, not {f * (f + 1) / 2}")


def check(command: str, exp: dict, outputs: dict[str, bytes]) -> list[str]:
    """Mismatches between one invocation's output files and the reference."""
    errors: list[str] = []
    try:
        report = json.loads(outputs["report.json"])
        _check_inputs(report, exp, errors)
        if command == "coeff":
            _check_coeff(report, exp, errors)
        elif command == "converge":
            _check_converge(report, outputs, exp, errors)
        elif command == "fcr":
            _check_fcr(report, exp, errors)
        else:
            errors.append(f"no reference for command {command!r}")
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        errors.append(f"malformed output: {type(exc).__name__}: {exc}")
    return errors
