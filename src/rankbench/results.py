"""Canonical data model for benchmark results.

A result table is a complete grid of scores indexed by
(algorithm, dataset, metric, seed), held as one float cube of shape
tests × seeds × algorithms plus an int8 status cube of the same shape.
Every OK score is finite. Failed runs (out-of-memory, timeout, error)
may have no score (NaN in the cube) until :func:`resolve_failures` gives
them their metric's worst bound, or -inf/+inf for an unbounded metric,
so that failures rank below every OK run and tie with each other.

Ingest reads text once, one piece at a time, from a ``str``, which is
one piece, or from any iterable of pieces, such as the CLI reads straight
from a file in blocks of 50k bytes, and both go one way. One cutter and
one 50k size serve both formats: :func:`_cuts` cuts the pieces at the
first separator at least :data:`_CHUNK` (50k) characters past the last
cut. Two generators read the cuts: :func:`_read_csv` cuts at ``"\\n"``,
into blocks of whole lines, and :func:`_read_json` at ``"},"``, into
chunks of JSON. Each yields a chunk's six record columns, from
:func:`_csv_columns` for a block of canonical CSV lines, which C-level
string operations split into columns, or from :func:`_json_columns` for
a chunk of canonical JSON items, and otherwise from the row parser
:func:`_parse_rows`, which owns every row-level error message, and
whether the row parser made them. One rule, :func:`_canonical`, makes
records canonical in both formats: every status exactly one of the
:data:`STATUSES` texts, a value on every ok record, and every label a
non-empty ``str`` without surrounding whitespace; each reader adds only
its format's own shape and type conditions. CSV goes to ``csv.reader``
and the row parser, 2,000 rows at a time, from its first block that is
not canonical on. :meth:`ResultTable._from_chunks` is the one
validating core, and it owns the chunks from there: it turns each
into arrays before the next is read (int16 codes for the labels and
seeds through one first-seen code dict per field, int32 once a field's
codes could pass 2**15, float64 values and int8 statuses), checks each
of its records on its own at once (ok without a value, unknown metric,
value out of bounds, non-finite ok value), keeps only the first fault,
and counts the chunks for its one log line. After the last chunk it
sorts the labels once, builds each record's cell a chunk at a time,
finds duplicate and missing cells from one bool array of filled cells,
and scatters each chunk into the cubes.
So only one chunk is ever held as Python objects, a text is never held
whole, and the chunks' arrays are never joined. The error is the first
fault the pass meets, and no piece past the chunk that holds it is read;
a JSON syntax error is worded with its line, column and character in the
whole text, as ``json.loads`` of the whole text words it.
:meth:`ResultTable.from_columns` type-checks plain columns and hands them
to the core as one chunk. ``synthgen.generate`` builds its table from cubes it fills directly,
valid by construction, and :func:`resolve_failures` copies a table with
new values. Per-cell :class:`ResultRecord` objects
exist only in :attr:`ResultTable.records`, which the pipeline never reads.

Text crosses this module's boundary one way each: :func:`ingest` tells
CSV from JSON by the text's first non-whitespace character; CSV reads as
``csv.reader`` reads it, and text it cannot split is an error of the row
it is in; every CSV writer of the package, :func:`to_csv` included, quotes
labels by :func:`csv_fields` and yields its lines itself, one piece each.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
import operator
import re
from dataclasses import dataclass, replace
from functools import cached_property
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    def higher_better(self) -> np.ndarray:
        """Per test, whether its metric ranks higher values first."""
        return np.array(
            [self.registry[t.metric].direction is Direction.HIGHER_BETTER for t in self.suite],
            dtype=bool,
        )

    def cells(self) -> Iterable[tuple[str, TestId, int, float, Status]]:
        """``(algorithm, test, seed, value, status)`` of every cell, in key order."""
        # One algorithm's slab at a time, so at most 1/a of the cubes is held as lists.
        for alg, values, codes in zip(
            self.algorithms, self.values.transpose(2, 0, 1), self.status.transpose(2, 0, 1)
        ):
            keys = itertools.product(self.suite, self.seeds)
            yield from (
                (alg, *key, value, STATUSES[code])
                for key, value, code in zip(keys, values.ravel().tolist(), codes.ravel().tolist())
            )

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
        Every algorithm, dataset and metric label must be a non-empty
        ``str`` without surrounding whitespace, every seed an ``int``, every
        value a ``float`` (numpy floats included) or None and every status
        an ``int`` index into :data:`STATUSES`, as ingest gives them;
        otherwise the ValidationError names the first bad entry, column by
        column. The columns then go as one chunk, not made by the row
        parser, to :meth:`_from_chunks`, the validating core that ingest
        uses too, so the same INFO line is logged: ``0 of 1 chunks``.
        """
        columns = (
            algorithm_column, dataset_column, metric_column, seed_column, value_column,
            status_column,
        )
        for (valid, message), column in zip(_ENTRY_RULES.values(), columns):
            for bad in itertools.filterfalse(valid, column):
                raise ValidationError(message.format(bad))
        return cls._from_chunks([(columns, False)], registry, drop_incomplete)

    @classmethod
    def _from_chunks(
        cls,
        chunks: Iterable[tuple[Sequence[list], bool]],
        registry: dict[str, MetricSpec],
        drop_incomplete: bool,
    ) -> "ResultTable":
        """Validate records, read a chunk at a time, into a complete grid: the one core.

        Each chunk is six record columns, as :meth:`from_columns` takes
        them, and whether the row parser made them; there is at least one.
        Each becomes arrays before the next is read: codes for the labels
        and seeds through one first-seen :class:`_Codes` per field, in the
        dtype :func:`_code_dtype` picks (int16 while the field's codes so
        far and the chunk's records are at most 2**15, else int32),
        float64 values (NaN for none) and int8 statuses. Its records are
        checked at once, each on its own, in this order: status ok without
        a value, unknown metric, value outside bounds, non-finite ok value.
        Whether a metric is known, bounded and its
        bounds come from small tables by metric code, grown as metrics are
        first seen. Only the first fault is kept, its index and what its
        message needs, and it is not raised in the loop, so a row-parser,
        JSON or UTF-8 error in a later chunk still wins. The log line says
        how many chunks the row parser made, of how many.

        After the last chunk each record's int64 cell is built in label
        order, a chunk at a time, and one bool array marks the filled
        cells. Fewer filled cells than records means a duplicate key, and
        only then is the first repeated record found. The error is the
        earlier of the first fault and the first duplicate, the fault when
        they are one record, so it names the first offending record in
        input order with the check order of a record-by-record scan. With
        ``drop_incomplete`` every test with any missing cell is dropped
        (never imputed); otherwise an incomplete grid is an error listing
        every missing cell. Each chunk's values and statuses are then
        scattered into the cubes, so no record-sized array is held but
        the chunks' and the cells.
        """
        # A record's faults in the order they are checked, each a message template
        # of its key, value and metric spec; a duplicate key is checked last.
        faults = (
            "record {key}: status ok but no value",
            "unknown metric {key[2]!r} (record {key})",
            "record {key}: value {value} outside bounds [{spec.bounds[0]}, {spec.bounds[1]}]",
            "record {key}: non-finite value {value!r}",
        )
        codes = _Codes(), _Codes(), _Codes(), _Codes()
        parts = [], [], [], [], [], []  # per field, one array per chunk
        # Per metric code, in first-seen order: whether it is known and
        # bounded, and its bounds (±inf if none).
        known = bounded = np.zeros(0, dtype=bool)
        lo = hi = np.zeros(0)
        fault = None  # the first faulty record's index, message, key and value
        starts, n, by_rows = [], 0, 0  # each chunk's first record, and the records so far
        for (*keys, values, statuses), parsed in chunks:
            *fields, value, status = arrays = (
                *(np.fromiter(map(c.__getitem__, key), _code_dtype(len(c), len(key)), len(key))
                  for c, key in zip(codes, keys)),
                np.array(values, dtype=float),  # None becomes NaN
                np.array(statuses, dtype=np.int8),
            )
            for field_parts, array in zip(parts, arrays):
                field_parts.append(array)
            if len(codes[2]) > len(known):  # a metric first seen in this chunk
                specs = list(map(registry.get, codes[2]))
                known, bounded = np.array([(s is not None, bool(s and s.bounds)) for s in specs]).T
                lo, hi = np.array(
                    [s.bounds if s and s.bounds else (-np.inf, np.inf) for s in specs]
                ).T
            if fault is None:
                # A NaN is no value (None) or a NaN value; only there are the records read.
                nan = np.isnan(value)
                has_value = ~nan
                has_value[nan] = [values[i] is not None for i in np.flatnonzero(nan).tolist()]
                metric, ok = fields[2], status == OK
                in_bounds = (lo.take(metric) <= value) & (value <= hi.take(metric))
                no_value, unknown, out_of_bounds, non_finite = checks = (  # as in faults
                    ok & ~has_value,
                    ~known.take(metric),
                    has_value & bounded.take(metric) & ~in_bounds,
                    ok & ~np.isfinite(value),
                )
                if (faulty := no_value | unknown | out_of_bounds | non_finite).any():
                    i = int(np.argmax(faulty))
                    kind = next(k for k, check in enumerate(checks) if check[i])
                    fault = n + i, faults[kind], tuple(f[i] for f in keys), value[i].item()
            starts.append(n)
            n += len(status)
            by_rows += parsed
            del keys, values, statuses  # before the next chunk is read
        log.info("%d of %d chunks by the row parser: parsed %d rows", by_rows, len(starts), n)
        if not n:
            raise ValidationError("no records")
        algorithms, datasets, metrics, seeds = labels = [tuple(sorted(field)) for field in codes]
        # Each field's first-seen codes renumbered in label order.
        alg_of, dataset_of, metric_of, seed_of = (
            np.fromiter(
                map({label: code for code, label in enumerate(field_labels)}.__getitem__, field),
                np.int64, len(field),
            )
            for field, field_labels in zip(codes, labels)
        )
        # Each record's cell, built in place a chunk at a time: first its
        # test's code over datasets × metrics, then its test's index.
        cell = np.empty(n, dtype=np.int64)
        for start, dataset, metric in zip(starts, parts[1], parts[2]):
            cell[start : start + len(dataset)] = (
                dataset_of.take(dataset) * len(metrics) + metric_of.take(metric)
            )
        tested = np.zeros(len(datasets) * len(metrics), dtype=bool)
        tested[cell] = True
        suite = tuple(
            TestId(datasets[c // len(metrics)], metrics[c % len(metrics)])
            for c in np.flatnonzero(tested).tolist()
        )
        t_n, s_n, a_n = len(suite), len(seeds), len(algorithms)
        # A cell is (test * s_n + seed) * a_n + algorithm; scale the lookups once.
        test_of = (np.cumsum(tested) - 1) * (s_n * a_n)
        seed_of *= a_n
        for start, seed, alg in zip(starts, parts[3], parts[0]):
            chunk = cell[start : start + len(seed)]
            chunk[:] = test_of.take(chunk) + seed_of.take(seed) + alg_of.take(alg)
        for field_parts in parts[:4]:  # the chunks' codes
            field_parts.clear()
        filled = np.zeros(t_n * s_n * a_n, dtype=bool)
        filled[cell] = True
        if np.count_nonzero(filled) < n:  # a cell holds two records
            repeated = np.ones(n, dtype=bool)
            repeated[np.unique(cell, return_index=True)[1]] = False
            i = int(np.argmax(repeated))
            if fault is None or i < fault[0]:
                t, s, a = np.unravel_index(cell[i], (t_n, s_n, a_n))
                fault = i, "duplicate record for {key}", (algorithms[a], *suite[t], seeds[s]), None
        if fault:
            _, message, key, value = fault
            raise ValidationError(message.format(key=key, value=value, spec=registry.get(key[2])))

        if len(algorithms) < 2:
            raise ValidationError("need at least 2 algorithms")

        dropped: tuple[TestId, ...] = ()
        keep = slice(None)
        if n < filled.size:  # some cell is missing
            missing = ~filled.reshape(t_n, s_n, a_n)
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
        del filled  # before the cubes are made

        value_cube = np.full(t_n * s_n * a_n, np.nan)
        status_cube = np.zeros(t_n * s_n * a_n, dtype=np.int8)
        for start, value, status in zip(starts, parts[4], parts[5]):
            chunk = cell[start : start + len(value)]
            value_cube[chunk] = value
            status_cube[chunk] = status
        return cls(
            suite=suite,
            seeds=seeds,
            algorithms=algorithms,
            values=value_cube.reshape(t_n, s_n, a_n)[keep],
            status=status_cube.reshape(t_n, s_n, a_n)[keep],
            registry=dict(registry),
            dropped=dropped,
        )


def _is_label(x) -> bool:
    """Whether ``x`` is a label as ingest gives it: non-empty ``str``, no surrounding whitespace."""
    return type(x) is str and x != "" and x.strip() == x


def _code_dtype(n_codes: int, n_records: int) -> type:
    """The dtype of a chunk's codes for one field: int16 while it cannot overflow.

    A field with ``n_codes`` codes so far gains at most one per record of
    the chunk, so int16 holds every code while the sum is at most 2**15.
    """
    return np.int16 if n_codes + n_records <= 2**15 else np.int32


class _Codes(dict):
    """Label -> int code, counted in first-seen order, which is also the dict's order."""

    def __missing__(self, label) -> int:
        code = self[label] = len(self)
        return code


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("algorithm", "dataset", "metric", "seed", "value", "status")
_FIELDS = frozenset(CSV_COLUMNS)  # the keys a JSON item may have

# What ResultTable.from_columns requires of each entry of a column, in
# column order, and the message naming the first that fails.
_ENTRY_RULES = {
    **{
        field: (
            _is_label,
            f"bad {field} label {{!r}}: not a non-empty str without surrounding whitespace",
        )
        for field in CSV_COLUMNS[:3]
    },
    "seed": (lambda x: type(x) is int, "bad seed {!r}: not an int"),
    "value": (
        lambda x: x is None or isinstance(x, (float, np.floating)),
        "bad value {!r}: not a float or None",
    ),
    "status": (
        lambda x: type(x) is int and 0 <= x < len(STATUSES),
        "bad status {!r}: not an index into STATUSES",
    ),
}


def parse_registry(text: str) -> dict[str, MetricSpec]:
    """Parse the line-oriented metric registry format.

    Lines are ``metric.<name>.direction = higher|lower`` and optional
    ``metric.<name>.bounds = lo,hi``. Blank lines and ``#`` comments are
    ignored. A key may appear once, and a metric name may not be empty.
    """
    directions: dict[str, Direction] = {}
    bounds: dict[str, tuple[float, float]] = {}
    first_line: dict[tuple[str, str], int] = {}
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
        if not name:
            raise ValidationError(f"registry line {lineno}: empty metric name in {key!r}")
        first = first_line.setdefault((name, prop), lineno)
        if first != lineno:
            raise ValidationError(f"registry line {lineno}: {key!r} repeats line {first}")
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


# One size and one cutter for all of ingest: a file is read in blocks of
# _CHUNK bytes, and _cuts cuts the pieces of any text (a str is one piece)
# at the first separator at least _CHUNK characters past the last cut: CSV
# at a "\n", into blocks of whole lines, and JSON between the "}" and ","
# of a "},". So only one block or chunk is split or held as JSON items at a
# time. A canonical CSV block is read as columns at once; from the first
# block that is not, the row parser reads _CSV_BATCH rows at a time. A
# block's or a batch's fields are the only label strings held beyond the
# code dicts, so small blocks and batches keep CSV ingest's peak near the
# text's size.
_CHUNK = 50_000
_CSV_BATCH = 2_000
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
# The bytes that _csv_columns deletes from a block's UTF-8 to see its shape.
_NOT_CSV_SHAPE = bytes(sorted(set(range(256)) - set(b',\n"\r\0')))


def _pieces(text: str | Iterable[str]) -> tuple[bool, Iterator[str]]:
    """Whether ``text`` is JSON, and its pieces: a ``str`` is one piece, which :func:`_cuts` cuts.

    JSON's first non-whitespace character is ``[`` or ``{``, in whichever
    piece it falls; only the pieces up to that one are read ahead. A ``{``
    opens an object, never an array of objects, so it is the error at once.
    """
    # Empty pieces, as a decoder gives for part of a character, are dropped,
    # so "" below means the pieces have run out.
    pieces = filter(None, (text,) if isinstance(text, str) else text)
    head = next(pieces, "")
    while head.isspace() and (piece := next(pieces, "")):
        head += piece
    opener = re.match(r"\s*([\[{]?)", head)[1]
    if opener == "{":
        raise ValidationError("JSON input must be an array of objects")
    # A list iterator lets go of head once it is read; a list in the chain would not.
    return opener == "[", itertools.chain(iter([head]), pieces)


def _cuts(pieces: Iterable[str], sep: str) -> Iterator[tuple[str, bool]]:
    """The text of ``pieces`` in cuts: each one's text, and whether it is the last.

    A cut falls just after the first character of the first ``sep`` that
    starts at least :data:`_CHUNK` characters past the last cut, and the
    text after the last cut, possibly empty, comes last. Cut at ``"\\n"``,
    the lines of the cuts are the lines ``io.StringIO`` gives of the text.
    """
    rest = ""
    for piece in pieces:
        # rest holds no sep past start + _CHUNK, but one may begin in its last characters.
        start, seen = 0, len(rest) - len(sep) + 1
        rest += piece
        del piece  # rest holds its text: one copy of it while the cuts are read
        while cut := rest.find(sep, max(start + _CHUNK, seen)) + 1:
            yield rest[start:cut], False
            start = cut
        rest = rest[start:]
    yield rest, True


def _csv_rows(lines: Iterable[str], start: int = 2) -> Iterator[list[str]]:
    """Data rows of CSV lines under the exact header, numbered from ``start``.

    The header is row 1; blank lines are skipped and not numbered. Text
    that ``csv.reader`` cannot split, such as a bare carriage return in an
    unquoted field, is an error of the row it is in.
    """
    reader = csv.reader(lines)
    rowno = 0  # the last row read
    try:
        header = next(reader, None)
        rowno = start - 1
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValidationError(
                f"CSV header must be exactly {','.join(CSV_COLUMNS)}, got {header}"
            )
        for rowno, row in enumerate(filter(None, reader), start):
            if len(row) != len(CSV_COLUMNS):
                raise ValidationError(f"row {rowno}: wrong number of fields")
            yield row
    except csv.Error as exc:
        # Drop the hint "- do you need to open the file in universal-newline
        # mode?": ingest is given text, so there is no file to reopen.
        message = str(exc).partition(" - do you need")[0]
        raise ValidationError(f"row {rowno + 1}: {message}") from None


def _canonical(algorithms, datasets, metrics, seeds, values, statuses) -> tuple[list, ...] | None:
    """The six record columns, each status text as its code; None if a record is not canonical.

    The one canonical-record rule of both formats, given seeds and values
    already of their types: every status exactly one of the
    :data:`STATUSES` texts, a value on every ok record, and every label a
    non-empty ``str`` without surrounding whitespace. A status or label
    that cannot be hashed is not canonical either.
    """
    try:
        statuses = list(map(_STATUS_TEXT_CODE.__getitem__, statuses))
        labels = set(algorithms).union(datasets, metrics)
    except (KeyError, TypeError):  # a status outside STATUSES, or an unhashable status or label
        return None
    if not all(map(_is_label, labels)) or OK in itertools.compress(
        statuses, map(operator.is_, values, itertools.repeat(None))
    ):
        return None  # a label that is not canonical, or an ok record without a value
    return algorithms, datasets, metrics, seeds, values, statuses


def _csv_columns(block: str) -> tuple[list, ...] | None:
    """The six record columns of a block of canonical CSV lines, or None if any line is not.

    Canonical: no longer than ``csv.field_size_limit()``; no ``"``,
    carriage return, NUL or blank line; five commas on every line; a seed
    that ``int`` reads; a value that ``float`` reads, or none; and the
    records so read meet the rule of :func:`_canonical`. ``csv.reader``
    and the row parser read such lines to these same columns without an
    error, so the row parser stays the one definer of row-level meaning
    and of every row error: any other block goes to it.
    """
    if len(block) > csv.field_size_limit():  # csv.reader may find a field too large
        return None
    # Each line's commas and "\n", and every '"', carriage return and NUL.
    shape = block.encode("utf-8", "surrogatepass").translate(None, _NOT_CSV_SHAPE)
    ends_line = block.endswith("\n")
    if shape != b",,,,,\n" * block.count("\n") + b",,,,," * (not ends_line):
        return None
    fields = block.replace("\n", ",").split(",")
    if ends_line:
        fields.pop()  # after the block's final "\n"
    algorithms, datasets, metrics, seeds, values, statuses = (fields[i::6] for i in range(6))
    del fields
    try:
        seeds = list(map(int, seeds))
        values = [float(value) if value else None for value in values]
    except ValueError:
        return None
    return _canonical(algorithms, datasets, metrics, seeds, values, statuses)


def _read_csv(pieces: Iterable[str]) -> Iterator[tuple[tuple[list, ...], bool]]:
    """The record columns of CSV text, a chunk at a time, and whether the row parser made them.

    Under the exact header line, the text is cut at ``"\\n"`` by
    :func:`_cuts` into blocks of whole lines of about :data:`_CHUNK`
    characters, and each canonical block (see :func:`_csv_columns`) is a
    chunk of its own. The first block that is not canonical, or the whole
    text if its first line is not the exact header, and every block after
    it go to one ``csv.reader`` and the row parser, :data:`_CSV_BATCH`
    rows a chunk, so a quoted field may span blocks. Rows are numbered
    across chunks; text without rows is one empty chunk of the row parser.
    """
    blocks = (block for block, _ in _cuts(pieces, "\n"))
    head = next(blocks)
    start = 2  # the number of the next chunk's first row
    if head.startswith(_CSV_HEADER):
        # A list iterator lets go of the first block once it is read.
        blocks, head = itertools.chain(iter([head[len(_CSV_HEADER):]]), blocks), _CSV_HEADER
        for block in filter(None, blocks):
            if (columns := _csv_columns(block)) is None:
                blocks = itertools.chain(iter([block]), blocks)
                break
            start += len(columns[0])
            yield columns, False
            del columns  # before the next block is read
    # The row parser reads the header again, then rows numbered from start.
    rows = _csv_rows(
        itertools.chain.from_iterable(map(io.StringIO, itertools.chain(iter([head]), blocks))),
        start,
    )
    for first in rows:  # each batch's first row; the loop ends with the rows
        columns = _parse_rows(
            itertools.chain([first], itertools.islice(rows, _CSV_BATCH - 1)), start
        )
        start += len(columns[0])
        yield columns, True
        del columns  # before the next batch is parsed
    if start == 2:
        yield _parse_rows((), start), True


def _json_rows(items: list, start: int = 0) -> Iterable[list[str]]:
    """Rows of text fields, as a CSV reader would give them; stops at the first bad item.

    Items are numbered from ``start``, as in a chunk that begins at that item.
    """
    for i, item in enumerate(items, start):
        if not isinstance(item, dict) or not item.keys() <= _FIELDS:
            raise ValidationError(f"JSON item {i}: unexpected shape")
        yield ["" if v is None else str(v) for v in map(item.get, CSV_COLUMNS)]


def _json_columns(items: list) -> tuple[list, ...] | None:
    """The six record columns of canonical JSON items, or None if any item is not canonical.

    Canonical: every item is a dict whose keys are among :data:`CSV_COLUMNS`;
    seed is an ``int`` (not a ``bool``); value is a float or None; and the
    records meet the rule of :func:`_canonical`. The row parser reads such
    items to these same columns, so it stays the one definer of row-level
    meaning and of every row error: any other input goes to it instead.
    The item shapes are checked first, then the seed and value types, and
    the shared rule last.
    """
    if set(map(type, items)) != {dict} or not _FIELDS.issuperset(
        itertools.chain.from_iterable(items)
    ):
        return None
    columns = [[item.get(key) for item in items] for key in CSV_COLUMNS]
    if not (  # int seeds, not bools, and float or None values
        set(map(type, columns[3])) == {int} and set(map(type, columns[4])) <= {float, type(None)}
    ):
        return None
    return _canonical(*columns)


def _read_json(pieces: Iterable[str]) -> Iterator[tuple[tuple[list, ...], bool]]:
    """The record columns of JSON text, a chunk at a time, and whether the row parser made them.

    Each part that :func:`_cuts` cuts at ``"},"``, about :data:`_CHUNK`
    (50k) characters apart, is parsed as an array of its own: a ``]``
    closes every part but the last, and ``[0`` opens every part but the
    first, which begins at its comma, so ``json.loads`` words a fault such
    as a trailing ``},]`` itself. A canonical chunk (see
    :func:`_json_columns`) gives its columns straight from its items; any
    other goes through the row parser, with items and rows numbered across
    chunks. A chunk that fails only where it was cut (a string left
    unterminated, or a fault at the ``]`` the cut added) is joined with the
    parts that follow until its text is twice as long, and parsed again, so
    a text that is not an array of flat objects is still parsed a bounded
    number of times; but when the first item opens an array, or an object
    whose first key is no field and whose value opens one, that item's
    shape is the error at once. Any other fault, or any in the last part,
    is the error: in one chunk a syntax error comes before a row error,
    and a bad JSON message counts its line, column and character from the
    start of the text, as reading it whole does.
    """
    head, text, least, item = "", "", 0, 0  # item: the number of the chunk's first item
    # The characters and newlines of the text before the chunk, and the index
    # of the last of those newlines.
    start, lines, newline = 0, 0, -1
    for part, last in _cuts(pieces, "},"):
        text += part  # in place: a join costs the parts' length, not the text's
        del part  # text holds it
        if len(text) < least and not last:
            continue
        # One join: "+" would hold a third copy of the chunk for a moment.
        doc, text = "".join([head, text, "" if last else "]"]), ""
        try:
            items = json.loads(doc)
        except json.JSONDecodeError as exc:
            if not last and (exc.pos >= len(doc) - 1 or exc.msg.startswith("Unterminated string")):
                # Item 0 opens an array, or an object whose first key is no
                # field and whose value opens one: its shape is the first fault.
                nested = not head and re.match(
                    r'\s*\[\s*(?:\[|\{\s*"([^"\\]*)"\s*:\s*[\[{])', doc
                )
                if nested and nested[1] not in _FIELDS:
                    raise ValidationError("JSON item 0: unexpected shape")
                text, least = doc[len(head) : -1], 2 * len(doc)
                continue
            # exc counts lines and columns in doc, whose head holds no newline.
            at = start + exc.pos - len(head)
            raise ValidationError(
                f"bad JSON: {exc.msg}: line {lines + exc.lineno} column "
                f"{exc.colno if exc.lineno > 1 else at - newline} (char {at})"
            ) from None
        del items[: bool(head)]  # the 0 that "[0" opens
        columns = _json_columns(items)
        yield columns or _parse_rows(_json_rows(items, item), item), columns is None
        item += len(items)
        lines += doc.count("\n")
        newline = start + nl - len(head) if (nl := doc.rfind("\n")) >= 0 else newline
        start, head, least = start + len(doc) - len(head) - 1, "[0", 0
        del doc, items, columns  # before the next chunk is cut and parsed


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
    text: str | Iterable[str],
    registry: dict[str, MetricSpec],
    drop_incomplete: bool = False,
) -> ResultTable:
    """Read a result table from CSV or JSON text; the text says which.

    ``text`` is a ``str``, one piece, or any iterable of its pieces (a
    file reader, a ``StringIO``, a generator), and either is read once.
    Text whose first non-whitespace character is ``[`` or ``{`` is JSON,
    an array of objects with the fields of :data:`CSV_COLUMNS`, so a ``{``
    there is the error before the pieces after it are read; any other text
    is CSV, which must begin with the exact header
    ``algorithm,dataset,metric,seed,value,status``, so the two never
    overlap. One cutter, :func:`_cuts`, cuts either
    format about :data:`_CHUNK` (50k) characters at a time, and the reader
    for the format, :func:`_read_csv` in blocks of whole lines or
    :func:`_read_json` in chunks of items, is a generator of record columns
    handed to :meth:`ResultTable._from_chunks`, which turns each chunk into
    arrays before the next chunk is read. The error is the first fault the
    pass meets: in a JSON chunk a syntax error comes before a row error.
    Canonical CSV blocks and JSON chunks are read as columns; CSV from its
    first block that is not canonical on, and each JSON chunk that is not
    canonical, goes through the row parser, which gives every row-level
    error message, first error first; the core checks each chunk's records
    as the chunk arrives and keeps the first fault. Its log line says how
    many chunks the row parser read, so a run shows whether the slow
    parser ran.
    """
    is_json, pieces = _pieces(text)
    return ResultTable._from_chunks(
        (_read_json if is_json else _read_csv)(pieces), registry, drop_incomplete
    )


def csv_fields(labels: Iterable[str]) -> dict[str, str]:
    """Each distinct label as a CSV field: the one quoting rule of every writer.

    A label holding ``,``, ``"``, a carriage return or a newline is put in
    double quotes, with each inner ``"`` doubled; any other label is
    written as it is. This is the minimal quoting of the ``csv`` module's
    writer, except that a carriage return is quoted too, so that
    ``csv.reader`` reads every field back as it was written.
    """
    return {
        label: '"' + label.replace('"', '""') + '"' if any(c in label for c in ',"\r\n') else label
        for label in set(labels)
    }


def to_csv(table: ResultTable) -> Iterator[str]:
    """Serialize a table in the canonical CSV schema (round-trip stable).

    Yields the header, then one line per cell in key order: algorithm,
    then test, then seed. A failed cell with no score has an empty value
    field. Labels are quoted by :func:`csv_fields`, so :func:`ingest`
    reads every label back.
    """
    field = csv_fields([*table.algorithms, *itertools.chain.from_iterable(table.suite)])
    yield ",".join(CSV_COLUMNS) + "\n"
    yield from (
        f"{field[alg]},{field[test.dataset]},{field[test.metric]},{seed},"
        f"{'' if math.isnan(v) else repr(v)},{status.value}\n"
        for alg, test, seed, v, status in table.cells()
    )


def registry_to_text(registry: dict[str, MetricSpec]) -> Iterator[str]:
    """A registry in the text form :func:`parse_registry` reads, one line each, by metric name."""
    for name, spec in sorted(registry.items()):
        yield f"metric.{name}.direction = {spec.direction.value}\n"
        if spec.bounds is not None:
            yield f"metric.{name}.bounds = {spec.bounds[0]},{spec.bounds[1]}\n"


# ---------------------------------------------------------------------------
# Failure resolution
# ---------------------------------------------------------------------------


def resolve_failures(table: ResultTable) -> ResultTable:
    """Give every failed cell its metric's :meth:`MetricSpec.worst_value`.

    That is the worst bound of a bounded metric, so an OK score at that
    bound ties with the failures, and so does one within ``tie_epsilon``
    of it when ranked, or chained to it by scores each within
    ``tie_epsilon`` of the next; and -inf or +inf for an unbounded one,
    which ranks strictly below every (finite) OK score.
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
