"""Canonical data model for benchmark results.

A result table is a complete grid of scores indexed by
(algorithm, dataset, metric, seed), held as one float cube of shape
tests × seeds × algorithms plus an int8 status cube of the same shape.
Every OK score is finite. Failed runs (out-of-memory, timeout, error)
may have no score (NaN in the cube) until :func:`resolve_failures` gives
them their metric's worst bound, or -inf/+inf for an unbounded metric,
so that failures rank below every OK run and tie with each other.
:meth:`ResultTable.from_columns` is the one constructor: ingest hands
it one column per field. Per-cell :class:`ResultRecord`
objects exist only in :attr:`ResultTable.records`, which the pipeline
never reads.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)


class ValidationError(Exception):
    """Raised when input data violates the result-table contract."""


class Direction(Enum):
    HIGHER_BETTER = "higher"
    LOWER_BETTER = "lower"


class Status(Enum):
    OK = "ok"
    OUT_OF_MEMORY = "oom"
    TIMEOUT = "timeout"
    ERROR = "error"


# A status cube holds each cell's index into STATUSES; OK is 0.
STATUSES: tuple[Status, ...] = tuple(Status)
_STATUS_TEXT_CODE = {s.value: i for i, s in enumerate(STATUSES)}
OK = STATUSES.index(Status.OK)


@dataclass(frozen=True)
class MetricSpec:
    """Direction (and optional closed bounds) for one metric.

    Metrics such as conductance are lower-is-better; F1, NMI and
    modularity are higher-is-better. Scores are consumed as opaque
    values, never computed here.
    """

    name: str
    direction: Direction
    bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.bounds is not None:
            lo, hi = self.bounds
            if not lo < hi:
                raise ValidationError(
                    f"metric {self.name!r}: bounds must satisfy lo < hi, got {self.bounds}"
                )

    def worst_value(self) -> float:
        """Worst endpoint of the bounds; -inf or +inf for an unbounded metric."""
        lo, hi = self.bounds or (-math.inf, math.inf)
        return lo if self.direction is Direction.HIGHER_BETTER else hi


class TestId(NamedTuple):
    """One test: a (dataset, metric) pair.

    Tuple order gives the canonical lexicographic ordering (dataset
    first, then metric) used by every aggregation.
    """

    dataset: str
    metric: str


@dataclass(frozen=True)
class ResultRecord:
    """One observed score: an algorithm on a dataset/metric under one seed."""

    algorithm: str
    dataset: str
    metric: str
    seed: int
    value: float | None
    status: Status = Status.OK

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.algorithm, self.dataset, self.metric, self.seed)

    @property
    def test(self) -> TestId:
        return TestId(self.dataset, self.metric)


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Validated complete grid of benchmark results.

    ``values[t, s, a]`` is the score of ``algorithms[a]`` on test
    ``suite[t]`` under ``seeds[s]``, NaN where a failed run has no
    score; ``status`` holds each cell's index into :data:`STATUSES`.
    Labels are sorted, so the cubes do not depend on input row order.
    ``dropped`` names the tests that ``drop_incomplete`` removed.
    """

    suite: tuple[TestId, ...]
    seeds: tuple[int, ...]
    algorithms: tuple[str, ...]
    values: np.ndarray
    status: np.ndarray
    registry: dict[str, MetricSpec]
    dropped: tuple[TestId, ...] = ()

    @property
    def n_algorithms(self) -> int:
        return len(self.algorithms)

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    @property
    def higher_better(self) -> np.ndarray:
        """Per test, whether its metric ranks higher values first."""
        return np.array(
            [self.registry[t.metric].direction is Direction.HIGHER_BETTER for t in self.suite],
            dtype=bool,
        )

    def cells(self) -> Iterable[tuple[str, TestId, int, float, Status]]:
        """``(algorithm, test, seed, value, status)`` of every cell, in key order."""
        values = self.values.transpose(2, 0, 1).ravel().tolist()
        codes = self.status.transpose(2, 0, 1).ravel().tolist()
        keys = itertools.product(self.algorithms, self.suite, self.seeds)
        return ((*key, value, STATUSES[code]) for key, value, code in zip(keys, values, codes))

    @cached_property
    def records(self) -> tuple[ResultRecord, ...]:
        """Every cell as a record, in key order; built on first access.

        Only perfbench/tracing.py still reads this view, to count rows and
        failed cells; it goes once that tracer counts from the cubes.
        """
        return tuple(
            ResultRecord(
                alg,
                test.dataset,
                test.metric,
                seed,
                None if status is not Status.OK and math.isnan(value) else value,
                status,
            )
            for alg, test, seed, value, status in self.cells()
        )

    @classmethod
    def from_columns(
        cls,
        algorithm_column: list[str],
        dataset_column: list[str],
        metric_column: list[str],
        seed_column: list[int],
        value_column: list[float | None],
        status_column: list[int],
        registry: dict[str, MetricSpec],
        drop_incomplete: bool = False,
    ) -> "ResultTable":
        """Validate columns (one entry per record) into a complete grid.

        ``value_column`` holds None where a failed run has no score, and
        ``status_column`` each record's index into :data:`STATUSES`.
        Record-level errors name the first offending record in input
        order, with the same check order as a record-by-record scan:
        status ok without a value, unknown metric, value outside bounds,
        non-finite ok value, duplicate key. With ``drop_incomplete`` every
        test with any missing cell is dropped (never imputed); otherwise
        an incomplete grid is an error listing every missing cell.
        """
        n = len(algorithm_column)
        if not n:
            raise ValidationError("no records")
        algorithms, alg = _codes(algorithm_column)
        datasets, dataset = _codes(dataset_column)
        metrics, metric = _codes(metric_column)
        seeds, seed = _codes(seed_column)
        values = np.array(value_column, dtype=float)  # None becomes NaN
        status = np.array(status_column, dtype=np.int8)
        has_value = np.array([v is not None for v in value_column], dtype=bool)

        specs = [registry.get(m) for m in metrics]
        known = np.array([spec is not None for spec in specs])[metric]
        lo = np.array([spec.bounds[0] if spec and spec.bounds else -np.inf for spec in specs])
        hi = np.array([spec.bounds[1] if spec and spec.bounds else np.inf for spec in specs])
        bounded = np.array([bool(spec and spec.bounds) for spec in specs])[metric]
        with np.errstate(invalid="ignore"):
            in_bounds = (lo[metric] <= values) & (values <= hi[metric])

        test_codes, test = np.unique(dataset * len(metrics) + metric, return_inverse=True)
        t_n, s_n, a_n = len(test_codes), len(seeds), len(algorithms)
        cell = (test * s_n + seed) * a_n + alg
        counts = np.bincount(cell, minlength=t_n * s_n * a_n)
        repeated = np.zeros(n, dtype=bool)
        if counts.max() > 1:
            repeated[:] = True
            repeated[np.unique(cell, return_index=True)[1]] = False

        ok = status == OK
        no_value = ~has_value & ok
        out_of_bounds = has_value & bounded & ~in_bounds
        non_finite = ok & ~np.isfinite(values)
        invalid = no_value | ~known | out_of_bounds | non_finite | repeated
        if invalid.any():
            i = int(np.argmax(invalid))
            key = (algorithm_column[i], dataset_column[i], metric_column[i], seed_column[i])
            if no_value[i]:
                raise ValidationError(f"record {key}: status ok but no value")
            if not known[i]:
                raise ValidationError(f"unknown metric {key[2]!r} (record {key})")
            if out_of_bounds[i]:
                lo_i, hi_i = specs[metric[i]].bounds
                raise ValidationError(
                    f"record {key}: value {value_column[i]} outside bounds [{lo_i}, {hi_i}]"
                )
            if non_finite[i]:
                raise ValidationError(f"record {key}: non-finite value {value_column[i]!r}")
            raise ValidationError(f"duplicate record for {key}")

        if len(algorithms) < 2:
            raise ValidationError("need at least 2 algorithms")

        suite = tuple(
            TestId(datasets[c // len(metrics)], metrics[c % len(metrics)])
            for c in test_codes.tolist()
        )
        missing = (counts == 0).reshape(t_n, s_n, a_n)
        dropped: tuple[TestId, ...] = ()
        keep = slice(None)
        if missing.any():
            if not drop_incomplete:
                cells = ", ".join(
                    f"(algorithm={algorithms[a]}, dataset={suite[t].dataset}, "
                    f"metric={suite[t].metric}, seed={seeds[s]})"
                    for t, a, s in zip(*np.nonzero(missing.transpose(0, 2, 1)))
                )
                raise ValidationError(f"incomplete grid, missing cells: {cells}")
            incomplete = missing.any(axis=(1, 2))
            if incomplete.all():
                raise ValidationError("every test has missing cells; nothing left")
            dropped = tuple(t for t, bad_test in zip(suite, incomplete) if bad_test)
            suite = tuple(t for t, bad_test in zip(suite, incomplete) if not bad_test)
            keep = ~incomplete
            log.info(
                "dropped %d incomplete tests: %s",
                len(dropped),
                ", ".join(f"{t.dataset}/{t.metric}" for t in dropped),
            )

        value_cube = np.full(t_n * s_n * a_n, np.nan)
        value_cube[cell] = values
        status_cube = np.zeros(t_n * s_n * a_n, dtype=np.int8)
        status_cube[cell] = status
        return cls(
            suite=suite,
            seeds=seeds,
            algorithms=algorithms,
            values=value_cube.reshape(t_n, s_n, a_n)[keep],
            status=status_cube.reshape(t_n, s_n, a_n)[keep],
            registry=dict(registry),
            dropped=dropped,
        )


def _codes(column: Sequence) -> tuple[tuple, np.ndarray]:
    """Sorted distinct labels of a column and each entry's index into them."""
    labels = tuple(sorted(set(column)))
    index = {x: i for i, x in enumerate(labels)}
    return labels, np.fromiter(map(index.__getitem__, column), dtype=np.intp, count=len(column))


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("algorithm", "dataset", "metric", "seed", "value", "status")


def parse_registry(text: str) -> dict[str, MetricSpec]:
    """Parse the line-oriented metric registry format.

    Lines are ``metric.<name>.direction = higher|lower`` and optional
    ``metric.<name>.bounds = lo,hi``. Blank lines and ``#`` comments are
    ignored.
    """
    directions: dict[str, Direction] = {}
    bounds: dict[str, tuple[float, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"registry line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "metric":
            raise ValidationError(f"registry line {lineno}: bad key {key!r}")
        _, name, prop = parts
        if prop == "direction":
            try:
                directions[name] = Direction(value)
            except ValueError:
                raise ValidationError(
                    f"registry line {lineno}: direction must be higher|lower, got {value!r}"
                ) from None
        elif prop == "bounds":
            try:
                lo_s, hi_s = value.split(",")
                bounds[name] = (float(lo_s), float(hi_s))
            except ValueError:
                raise ValidationError(
                    f"registry line {lineno}: bounds must be 'lo,hi', got {value!r}"
                ) from None
        else:
            raise ValidationError(f"registry line {lineno}: unknown property {prop!r}")
    for name in bounds:
        if name not in directions:
            raise ValidationError(f"metric {name!r} has bounds but no direction")
    return {
        name: MetricSpec(name=name, direction=d, bounds=bounds.get(name))
        for name, d in directions.items()
    }


def _csv_rows(reader) -> Iterable[list[str]]:
    """Data rows after the header; blank lines are skipped and not numbered."""
    for rowno, row in enumerate(filter(None, reader), start=2):
        if len(row) != len(CSV_COLUMNS):
            raise ValidationError(f"row {rowno}: wrong number of fields")
        yield row


def _json_rows(items: list) -> Iterable[tuple[str, ...]]:
    """Rows of text fields, as a CSV reader would give them; stops at the first bad item."""
    columns = set(CSV_COLUMNS)
    bad = next(
        (
            i
            for i, item in enumerate(items)
            if not isinstance(item, dict) or not item.keys() <= columns
        ),
        len(items),
    )
    fields = [
        ["" if v is None else str(v) for v in (item.get(c) for item in items[:bad])]
        for c in CSV_COLUMNS
    ]
    yield from zip(*fields)
    if bad < len(items):
        raise ValidationError(f"JSON item {bad}: unexpected shape")


def _parse_rows(rows: Iterable[list[str]], start: int) -> tuple[list, ...]:
    """Parse text rows into the six record columns; row numbers count from ``start``."""
    columns = algorithms, datasets, metrics, seeds, values, statuses = [], [], [], [], [], []
    for rowno, (algorithm, dataset, metric, seed, value, status) in enumerate(rows, start):
        code = _STATUS_TEXT_CODE.get(status.strip().lower())
        if code is None:
            raise ValidationError(f"row {rowno}: bad status {status!r}")
        raw_value = value.strip()
        if raw_value:
            try:
                values.append(float(raw_value))
            except ValueError:
                raise ValidationError(f"row {rowno}: bad value {raw_value!r}") from None
        elif code == OK:
            raise ValidationError(f"row {rowno}: status ok requires a value")
        else:
            values.append(None)
        try:
            seeds.append(int(seed))
        except ValueError:
            raise ValidationError(f"row {rowno}: bad seed {seed!r}") from None
        algorithm, dataset, metric = algorithm.strip(), dataset.strip(), metric.strip()
        if not (algorithm and dataset and metric):
            raise ValidationError(f"row {rowno}: empty identifier")
        algorithms.append(algorithm)
        datasets.append(dataset)
        metrics.append(metric)
        statuses.append(code)
    return columns


def ingest(
    source: str | bytes | io.IOBase,
    fmt: str,
    registry: dict[str, MetricSpec],
    drop_incomplete: bool = False,
) -> ResultTable:
    """Read a result table from CSV or JSON content.

    CSV requires the exact header ``algorithm,dataset,metric,seed,value,status``.
    JSON is an array of objects with the same field names.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data

    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValidationError(
                f"CSV header must be exactly {','.join(CSV_COLUMNS)}, got {header}"
            )
        columns = _parse_rows(_csv_rows(reader), start=2)
    elif fmt == "json":
        try:
            items = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON: {exc}") from None
        if not isinstance(items, list):
            raise ValidationError("JSON input must be an array of objects")
        columns = _parse_rows(_json_rows(items), start=0)
    else:
        raise ValueError(f"unknown format {fmt!r}")

    log.info("parsed %d rows", len(columns[0]))
    return ResultTable.from_columns(*columns, registry, drop_incomplete)


def to_csv(table: ResultTable) -> str:
    """Serialize a table in the canonical CSV schema (round-trip stable).

    Rows are in key order: algorithm, then test, then seed. A failed cell
    with no score has an empty value field.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        (alg, test.dataset, test.metric, seed, "" if math.isnan(v) else repr(v), status.value)
        for alg, test, seed, v, status in table.cells()
    )
    return buf.getvalue()


def registry_to_text(registry: dict[str, MetricSpec]) -> str:
    lines = []
    for name in sorted(registry):
        spec = registry[name]
        lines.append(f"metric.{name}.direction = {spec.direction.value}")
        if spec.bounds is not None:
            lines.append(f"metric.{name}.bounds = {spec.bounds[0]},{spec.bounds[1]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Failure resolution
# ---------------------------------------------------------------------------


def resolve_failures(table: ResultTable) -> ResultTable:
    """Give every failed cell its metric's :meth:`MetricSpec.worst_value`.

    That is the worst bound of a bounded metric, so an OK score exactly
    at that bound ties with the failures, and -inf or +inf for an
    unbounded one, which ranks strictly below every (finite) OK score.
    All failures on one test tie. Idempotent, and never changes OK values.
    """
    worst = np.array([table.registry[t.metric].worst_value() for t in table.suite], dtype=float)
    if log.isEnabledFor(logging.INFO):
        counts = np.bincount(table.status.ravel(), minlength=len(STATUSES))
        log.info(
            "resolved %d failed cells: %s",
            table.status.size - counts[OK],
            ", ".join(f"{s.value}={n}" for s, n in zip(STATUSES, counts) if s is not Status.OK),
        )
    resolved = np.where(table.status == OK, table.values, worst[:, None, None])
    return replace(table, values=resolved)


# Keep pytest from trying to collect the TestId tuple as a test class.
TestId.__test__ = False  # type: ignore[attr-defined]
