import codecs
import csv
import hashlib
import io
import itertools
import json
import logging
import math
import re
import tracemalloc
from typing import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import scan_records, table_of
from rankbench import cli, results
from rankbench.ranking import rank_table, ranks_to_csv
from rankbench.results import (
    CSV_COLUMNS,
    STATUSES,
    Direction,
    OK,
    MetricSpec,
    ResultRecord,
    ResultTable,
    Status,
    TestId,
    ValidationError,
    csv_fields,
    ingest,
    parse_registry,
    registry_to_text,
    resolve_failures,
    to_csv,
)
from rankbench.synthgen import SynthConfig, generate

REGISTRY = {
    "f1": MetricSpec("f1", Direction.HIGHER_BETTER, (0.0, 1.0)),
    "conductance": MetricSpec("conductance", Direction.LOWER_BETTER, (0.0, 1.0)),
    "loss": MetricSpec("loss", Direction.LOWER_BETTER),
}

MINIMAL_CSV = """\
algorithm,dataset,metric,seed,value,status
a,cora,f1,0,0.5,ok
a,cora,f1,1,0.6,ok
b,cora,f1,0,0.4,ok
b,cora,f1,1,0.3,ok
"""


def test_ingest_minimal_grid():
    table = ingest(MINIMAL_CSV, REGISTRY)
    assert len(table.algorithms) == 2
    assert len(table.seeds) == 2
    assert len(table.suite) == 1
    assert table.algorithms == ("a", "b")


def test_missing_cell_is_named():
    truncated = "\n".join(MINIMAL_CSV.splitlines()[:-1]) + "\n"
    with pytest.raises(ValidationError, match=r"algorithm=b.*seed=1"):
        ingest(truncated, REGISTRY)


def test_duplicate_key_rejected():
    dup = MINIMAL_CSV + "b,cora,f1,1,0.35,ok\n"
    with pytest.raises(ValidationError, match="duplicate"):
        ingest(dup, REGISTRY)


def test_unknown_metric_rejected():
    with pytest.raises(ValidationError, match="unknown metric"):
        ingest(MINIMAL_CSV.replace("f1", "nmi"), REGISTRY)


def test_bad_header_rejected():
    with pytest.raises(ValidationError, match="header"):
        ingest(MINIMAL_CSV.replace("algorithm", "alg"), REGISTRY)


def test_ok_row_requires_value():
    bad = MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,ok")
    with pytest.raises(ValidationError, match="status ok requires a value"):
        ingest(bad, REGISTRY)


def test_value_outside_bounds_rejected():
    bad = MINIMAL_CSV.replace("0.6", "1.5")
    with pytest.raises(ValidationError, match="bounds"):
        ingest(bad, REGISTRY)


# "loss" is unbounded, so no bounds check applies to its values.
LOSS_CSV = MINIMAL_CSV.replace("f1", "loss")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_ok_value_rejected(value):
    bad = LOSS_CSV.replace("b,cora,loss,1,0.3,ok", f"b,cora,loss,1,{value},ok")
    message = rf"record \('b', 'cora', 'loss', 1\): non-finite value {value}$"
    with pytest.raises(ValidationError, match=message):
        ingest(bad, REGISTRY)


def test_failed_cell_may_carry_infinity():
    csv_text = LOSS_CSV.replace("b,cora,loss,1,0.3,ok", "b,cora,loss,1,inf,oom")
    table = ingest(csv_text, REGISTRY)
    resolved = "".join(to_csv(resolve_failures(table)))
    assert "b,cora,loss,1,inf,oom" in resolved.splitlines()
    assert "".join(to_csv(ingest(resolved, REGISTRY))) == resolved


def test_to_csv_writes_key_order_and_empty_failed_scores():
    shuffled = (
        "algorithm,dataset,metric,seed,value,status\n"
        "b,cora,loss,1,,timeout\n"
        "a,cora,loss,1,-0.0,ok\n"
        "b,cora,loss,0,0.3,ok\n"
        "a,cora,loss,0,1e-300,ok\n"
    )
    assert "".join(to_csv(ingest(shuffled, REGISTRY))).splitlines() == [
        "algorithm,dataset,metric,seed,value,status",
        "a,cora,loss,0,1e-300,ok",
        "a,cora,loss,1,-0.0,ok",
        "b,cora,loss,0,0.3,ok",
        "b,cora,loss,1,,timeout",
    ]


def test_records_view_lists_every_cell_in_key_order():
    csv_text = (
        "algorithm,dataset,metric,seed,value,status\n"
        "b,cora,loss,0,,error\n"
        "a,cora,loss,0,inf,oom\n"
        "b,cora,loss,1,0.3,ok\n"
        "a,cora,loss,1,0.5,ok\n"
    )
    table = ingest(csv_text, REGISTRY)
    assert table.records == (
        ResultRecord("a", "cora", "loss", 0, math.inf, Status.OUT_OF_MEMORY),
        ResultRecord("a", "cora", "loss", 1, 0.5),
        ResultRecord("b", "cora", "loss", 0, None, Status.ERROR),
        ResultRecord("b", "cora", "loss", 1, 0.3),
    )


def test_json_ingest_matches_csv():
    items = [
        {"algorithm": "a", "dataset": "cora", "metric": "f1", "seed": 0, "value": 0.5, "status": "ok"},
        {"algorithm": "a", "dataset": "cora", "metric": "f1", "seed": 1, "value": 0.6, "status": "ok"},
        {"algorithm": "b", "dataset": "cora", "metric": "f1", "seed": 0, "value": 0.4, "status": "ok"},
        {"algorithm": "b", "dataset": "cora", "metric": "f1", "seed": 1, "value": 0.3, "status": "ok"},
    ]
    via_json = ingest(json.dumps(items), REGISTRY)
    via_csv = ingest(MINIMAL_CSV, REGISTRY)
    assert "".join(to_csv(via_json)) == "".join(to_csv(via_csv))


def _minimal_items(*edits: tuple[int, dict]) -> list:
    """MINIMAL_CSV as JSON items, with each ``(index, fields)`` edit applied."""
    items = [
        {"algorithm": a, "dataset": "cora", "metric": "f1", "seed": s, "value": v, "status": "ok"}
        for a, s, v in [("a", 0, 0.5), ("a", 1, 0.6), ("b", 0, 0.4), ("b", 1, 0.3)]
    ]
    for i, fields in edits:
        items[i].update(fields)
    return items


def _missing_value_item():
    items = _minimal_items()
    del items[2]["value"]
    return items


BIG_SEED = 10**30

# Outcomes computed before JSON rows were parsed in one pass: the table as
# canonical CSV, or the ValidationError message.
JSON_INGEST_CASES = {
    "valid grid": (_minimal_items(), MINIMAL_CSV),
    "failed row with null value": (
        _minimal_items((3, {"value": None, "status": "timeout"})),
        MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,timeout"),
    ),
    "bool value": (_minimal_items((1, {"value": True})), "row 1: bad value 'True'"),
    "float seed": (_minimal_items((1, {"seed": 1.0})), "row 1: bad seed '1.0'"),
    "string seed": (_minimal_items((2, {"seed": "0"})), MINIMAL_CSV),
    "null status": (_minimal_items((1, {"status": None})), "row 1: bad status ''"),
    "int status": (_minimal_items((1, {"status": 0})), "row 1: bad status '0'"),
    "list value": (_minimal_items((1, {"value": [0.5]})), "row 1: bad value '[0.5]'"),
    "extra key": (_minimal_items((2, {"note": "x"})), "JSON item 2: unexpected shape"),
    "non-dict item": (
        [*_minimal_items()[:2], "a,cora,f1,0,0.4,ok", _minimal_items()[3]],
        "JSON item 2: unexpected shape",
    ),
    "bad row before bad item": (
        _minimal_items((1, {"status": "lost"}), (3, {"note": "x"})),
        "row 1: bad status 'lost'",
    ),
    "bad item before bad row": (
        _minimal_items((1, {"note": "x"}), (3, {"status": "lost"})),
        "JSON item 1: unexpected shape",
    ),
    "missing key": (_missing_value_item(), "row 2: status ok requires a value"),
    "ok row with null value": (
        _minimal_items((3, {"value": None})),
        "row 3: status ok requires a value",
    ),
    "1e400": (
        _minimal_items((1, {"value": math.inf})),
        "record ('a', 'cora', 'f1', 1): value inf outside bounds [0.0, 1.0]",
    ),
    "-0": (
        _minimal_items((0, {"value": -0.0})),
        MINIMAL_CSV.replace("a,cora,f1,0,0.5", "a,cora,f1,0,-0.0"),
    ),
    "10**30 seed": (
        _minimal_items((0, {"seed": BIG_SEED}), (2, {"seed": BIG_SEED})),
        "algorithm,dataset,metric,seed,value,status\n"
        f"a,cora,f1,1,0.6,ok\na,cora,f1,{BIG_SEED},0.5,ok\n"
        f"b,cora,f1,1,0.3,ok\nb,cora,f1,{BIG_SEED},0.4,ok\n",
    ),
    "blank algorithm": (_minimal_items((0, {"algorithm": " "})), "row 0: empty identifier"),
    "duplicate": (
        [*_minimal_items(), _minimal_items()[0]],
        "duplicate record for ('a', 'cora', 'f1', 0)",
    ),
    "missing cell": (
        _minimal_items()[:3],
        "incomplete grid, missing cells: (algorithm=b, dataset=cora, metric=f1, seed=1)",
    ),
    "empty array": ([], "no records"),
    "nested array": ([_minimal_items()], "JSON item 0: unexpected shape"),
}


# Valid JSON that is not canonical (a field the row parser normalises),
# with outcomes computed by the row parser before the column path existed.
NON_CANONICAL_JSON_CASES = {
    "padded label": (
        _minimal_items((1, {"algorithm": "a "}), (2, {"dataset": " cora"})),
        MINIMAL_CSV,
    ),
    "upper-case status": (_minimal_items((0, {"status": "OK"})), MINIMAL_CSV),
    "padded failed status": (
        _minimal_items((3, {"value": None, "status": " oom "})),
        MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,oom"),
    ),
    "seed with leading zero": (_minimal_items((3, {"seed": "01"})), MINIMAL_CSV),
    "int value": (
        _minimal_items((1, {"value": 1})),
        MINIMAL_CSV.replace("a,cora,f1,1,0.6", "a,cora,f1,1,1.0"),
    ),
    "string value": (_minimal_items((0, {"value": "0.5"})), MINIMAL_CSV),
    "bool seed": (_minimal_items((1, {"seed": True})), "row 1: bad seed 'True'"),
}
# NaN is a float, so these are canonical; the row parser reads it back as
# NaN and gives the same outcome (computed on it before the column path).
NAN_JSON_CASES = {
    "NaN on a failed row": (
        _minimal_items((3, {"value": math.nan, "status": "error"})),
        "record ('b', 'cora', 'f1', 1): value nan outside bounds [0.0, 1.0]",
    ),
    "NaN on a failed unbounded row": (
        [
            dict(item, metric="loss")
            for item in _minimal_items((3, {"value": math.nan, "status": "error"}))
        ],
        LOSS_CSV.replace("b,cora,loss,1,0.3,ok", "b,cora,loss,1,,error"),
    ),
}
ALL_JSON_CASES = {**JSON_INGEST_CASES, **NON_CANONICAL_JSON_CASES, **NAN_JSON_CASES}
# Chunk sizes that cut a small JSON grid after every item or every few items.
SMALL_CHUNKS = [0, 1, 50, 300]
# The cases that ingest reads column by column, without the row parser.
COLUMN_PATH_CASES = {
    "valid grid", "failed row with null value", "1e400", "-0", "10**30 seed", "duplicate",
    "missing cell", *NAN_JSON_CASES,
}


def _slices(text: str, size: int) -> Iterator[str]:
    """``text`` in pieces of ``size`` characters (one at 0), as a one-shot iterable.

    A ``str`` is one piece, so these put piece boundaries inside ``"},"``,
    ``"\\r\\n"`` and a surrogate pair.
    """
    size = size or 1
    return (text[start : start + size] for start in range(0, len(text), size))


@pytest.mark.parametrize("items, outcome", ALL_JSON_CASES.values(), ids=ALL_JSON_CASES.keys())
def test_json_ingest_outcomes_are_pinned(items, outcome):
    # json.dumps writes math.inf as Infinity; a 1e400 literal parses to the same float.
    text = json.dumps(items).replace("Infinity", "1e400")
    if outcome.startswith("algorithm,"):
        assert "".join(to_csv(ingest(text, REGISTRY))) == outcome
    else:
        with pytest.raises(ValidationError) as exc:
            ingest(text, REGISTRY)
        assert str(exc.value) == outcome


def _outcome(read) -> str:
    """The table ``read()`` returns as canonical CSV, or its ValidationError message."""
    try:
        return "".join(to_csv(read()))
    except ValidationError as exc:
        return str(exc)


def _assert_ingest_matches_row_parser(items):
    text = json.dumps(items)
    assert _outcome(lambda: ingest(text, REGISTRY)) == _outcome(
        lambda: ResultTable.from_columns(
            *results._parse_rows(results._json_rows(json.loads(text)), 0), REGISTRY
        )
    )


@pytest.mark.parametrize(
    "items", [items for items, _ in ALL_JSON_CASES.values()], ids=ALL_JSON_CASES.keys()
)
def test_json_ingest_matches_row_parser(items):
    _assert_ingest_matches_row_parser(items)


def _field_variants(draw, item: dict) -> dict:
    """``item`` with each field kept or swapped for a text, type or NaN variant; at most one dropped."""
    a, seed, value, status = item["algorithm"], item["seed"], item["value"], item["status"]
    variants = {
        "algorithm": [a, f" {a}", f"{a}\t", "", 1, None],
        "dataset": [item["dataset"], f"{item['dataset']} "],
        "metric": [item["metric"], f" {item['metric']}"],
        "seed": [seed, str(seed), f"0{seed}", float(seed), bool(seed), None],
        "value": [value, str(value), int(value or 0), math.nan, None, True],
        "status": [status, status.upper(), f" {status} ", "lost", 0, None],
    }
    fields = {key: draw(st.sampled_from(options)) for key, options in variants.items()}
    for key in draw(st.sets(st.sampled_from(list(fields)), max_size=1)):
        del fields[key]
    return fields


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_json_ingest_matches_row_parser_on_mixed_fields(data):
    # Each item keeps every field canonical or swaps some for variants that
    # the row parser normalises or rejects. Small chunks cut the text after
    # every item or every few items.
    draw = data.draw
    chunk = draw(st.sampled_from([results._CHUNK, *SMALL_CHUNKS]))
    metric = draw(st.sampled_from(["f1", "loss"]))
    items = []
    for a, seed in [("a", 0), ("a", 1), ("b", 0), ("b", 1)]:
        status = draw(st.sampled_from(["ok", "ok", "oom", "timeout", "error"]))
        value = draw(st.one_of(st.floats(0, 1), st.none()) if status != "ok" else st.floats(0, 1))
        item = {"algorithm": a, "dataset": "cora", "metric": metric, "seed": seed,
                "value": value, "status": status}
        items.append(_field_variants(draw, item) if draw(st.booleans()) else item)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(results, "_CHUNK", chunk)
        _assert_ingest_matches_row_parser(items)


# With one item per chunk, the first row the row parser reads in each call:
# the non-canonical items up to the first fault, where ingest stops. A
# non-dict item has no "}," after it, so it shares a chunk with the item
# that follows it.
ROW_PARSER_STARTS_PER_ITEM = {
    "bool value": [1],
    "float seed": [1],
    "string seed": [2],
    "null status": [1],
    "int status": [1],
    "list value": [1],
    "extra key": [2],
    "non-dict item": [2],
    "bad row before bad item": [1],
    "bad item before bad row": [1],
    "missing key": [2],
    "ok row with null value": [3],
    "blank algorithm": [0],
    "empty array": [0],
    "nested array": [],  # its first item opens an array: the error before any row
    "padded label": [1, 2],
    "upper-case status": [0],
    "padded failed status": [3],
    "seed with leading zero": [3],
    "int value": [1],
    "string value": [0],
    "bool seed": [1],
}


@pytest.mark.parametrize("chunk", [results._CHUNK, 0])
@pytest.mark.parametrize("name", ALL_JSON_CASES)
def test_only_non_canonical_json_reaches_row_parser(name, chunk, monkeypatch):
    calls = []
    parse_rows = results._parse_rows

    def row_parser(rows, start):
        calls.append(start)
        if name in COLUMN_PATH_CASES:
            raise AssertionError("canonical JSON reached the row parser")
        return parse_rows(rows, start)

    monkeypatch.setattr(results, "_CHUNK", chunk)
    monkeypatch.setattr(results, "_parse_rows", row_parser)
    items, outcome = ALL_JSON_CASES[name]
    assert _outcome(lambda: ingest(json.dumps(items), REGISTRY)) == outcome
    if name in COLUMN_PATH_CASES:
        assert calls == []
    else:
        assert calls == ([0] if chunk else ROW_PARSER_STARTS_PER_ITEM[name])


def test_ingest_logs_which_path_parsed_the_rows(caplog, monkeypatch):
    seed_text = json.dumps(_minimal_items((0, {"seed": "0"})))
    crlf_text = MINIMAL_CSV.replace("\n", "\r\n")
    with caplog.at_level(logging.INFO, logger="rankbench.results"):
        # A text without rows is one chunk, read by the row parser.
        for empty in (MINIMAL_CSV.splitlines(keepends=True)[0], "[]"):
            with pytest.raises(ValidationError, match="^no records$"):
                ingest(empty, REGISTRY)
        ingest(json.dumps(_minimal_items()), REGISTRY)
        ingest(seed_text, REGISTRY)
        ingest(MINIMAL_CSV, REGISTRY)
        monkeypatch.setattr(results, "_CHUNK", 0)
        ingest(seed_text, REGISTRY)
        ingest(MINIMAL_CSV, REGISTRY)
        ingest(MINIMAL_CSV.replace("b,cora,f1,1", '"b",cora,f1,1'), REGISTRY)
        monkeypatch.setattr(results, "_CSV_BATCH", 3)
        ingest(crlf_text, REGISTRY)
        monkeypatch.setattr(results, "_CSV_BATCH", 2)
        ingest(crlf_text, REGISTRY)
    assert caplog.messages == [
        "1 of 1 chunks by the row parser: parsed 0 rows",
        "1 of 1 chunks by the row parser: parsed 0 rows",
        "0 of 1 chunks by the row parser: parsed 4 rows",
        "1 of 1 chunks by the row parser: parsed 4 rows",
        "0 of 1 chunks by the row parser: parsed 4 rows",
        "1 of 4 chunks by the row parser: parsed 4 rows",
        # A block a line: four canonical blocks, then three and the quoted last row.
        "0 of 4 chunks by the row parser: parsed 4 rows",
        "1 of 4 chunks by the row parser: parsed 4 rows",
        # The header ends in "\r\n", so the row parser reads every row: in
        # batches of three rows and one, then two full ones and no empty one.
        "2 of 2 chunks by the row parser: parsed 4 rows",
        "2 of 2 chunks by the row parser: parsed 4 rows",
    ]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("items, outcome", ALL_JSON_CASES.values(), ids=ALL_JSON_CASES.keys())
def test_json_ingest_outcomes_hold_across_chunks(items, outcome, chunk, monkeypatch):
    monkeypatch.setattr(results, "_CHUNK", chunk)
    test_json_ingest_outcomes_are_pinned(items, outcome)


def _grid_items(table) -> list[dict]:
    """Every cell of ``table`` as a canonical JSON item."""
    return [
        {"algorithm": alg, "dataset": test.dataset, "metric": test.metric, "seed": seed,
         "value": None if math.isnan(value) else value, "status": status.value}
        for alg, test, seed, value, status in table.cells()
    ]


def _whole_text_outcome(text: str, registry) -> str:
    """The outcome of JSON ``text`` read whole: the reference for the chunked reader."""
    def read():
        if text.lstrip().startswith("{"):  # an object, whatever follows
            raise ValidationError("JSON input must be an array of objects")
        try:
            items = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON: {exc}") from None
        if not isinstance(items, list):
            raise ValidationError("JSON input must be an array of objects")
        columns = results._json_columns(items) or results._parse_rows(results._json_rows(items), 0)
        return ResultTable.from_columns(*columns, registry)

    return _outcome(read)


_BATTERY_TABLE = generate(
    SynthConfig(n_algorithms=3, n_datasets=2, n_metrics=2, n_seeds=3, fail_prob=0.2, rng_seed=3)
)
BATTERY_REGISTRY = _BATTERY_TABLE.registry
PLAIN_ITEMS = _grid_items(_BATTERY_TABLE)
# The same grid with labels that hold "}," "}, {" and a newline, inside and
# across the quotes of the JSON text.
_HOSTILE = dict(zip(_BATTERY_TABLE.algorithms, ["a},", "b}, {", "c\nd"]))
_HOSTILE.update(zip(sorted({t.dataset for t in _BATTERY_TABLE.suite}), ['x"},{"y', "z}"]))
HOSTILE_ITEMS = [
    dict(item, algorithm=_HOSTILE[item["algorithm"]], dataset=_HOSTILE[item["dataset"]])
    for item in PLAIN_ITEMS
]
# Labels with multi-byte characters, "}," and a newline, written as UTF-8
# rather than as \u escapes.
_NON_ASCII = dict(zip(_BATTERY_TABLE.algorithms, ["\xe9},", "\u20ac}, {", "\U0001f600\nd"]))
_NON_ASCII.update(zip(sorted({t.dataset for t in _BATTERY_TABLE.suite}), ["x\xe9", "\u20ac}"]))
NON_ASCII_JSON = json.dumps(
    [
        dict(item, algorithm=_NON_ASCII[item["algorithm"]], dataset=_NON_ASCII[item["dataset"]])
        for item in PLAIN_ITEMS
    ],
    ensure_ascii=False,
)
_PLAIN = json.dumps(PLAIN_ITEMS)
_LAST = PLAIN_ITEMS[-1]
_LONG = {_BATTERY_TABLE.algorithms[0]: "},".join("x" * 60)}
# JSON texts, each read in chunks and whole; True where the text is a canonical array.
JSON_CHUNK_BATTERY = {
    "hostile labels": (json.dumps(HOSTILE_ITEMS), True),
    "hostile labels, indent=2": (json.dumps(HOSTILE_ITEMS, indent=2), True),
    "hostile labels, compact": (json.dumps(HOSTILE_ITEMS, separators=(",", ":")), True),
    "default dump": (_PLAIN, True),
    "indent=2": (json.dumps(PLAIN_ITEMS, indent=2), True),
    "compact": (json.dumps(PLAIN_ITEMS, separators=(",", ":")), True),
    "leading whitespace": (" \n\t\r" + _PLAIN, True),
    "leading whitespace longer than a piece": (" " * 400 + "\n" + _PLAIN, True),
    "non-ASCII labels": (NON_ASCII_JSON, True),
    "leading non-JSON whitespace": ("\u00a0" + _PLAIN, False),
    "trailing whitespace": (_PLAIN + " \n", True),
    "trailing text": (_PLAIN + " x", False),
    "second array": (_PLAIN + _PLAIN, False),
    "trailing comma": (_PLAIN[:-1] + ",]", False),
    "truncated after a comma": (_PLAIN[:-1] + ",", False),
    "unclosed": (_PLAIN[:-1], False),
    "top-level object": (json.dumps(_LAST), False),
    "nested array": (json.dumps([PLAIN_ITEMS]), False),
    "array in the last item": (json.dumps([*PLAIN_ITEMS[:-1], [_LAST]]), False),
    "empty array": ("[]", False),
    "empty array with space": (" [ ] ", False),
    "non-canonical last item": (json.dumps([*PLAIN_ITEMS[:-1], dict(_LAST, status="OK")]), False),
    "bad last item": (json.dumps([*PLAIN_ITEMS[:-1], dict(_LAST, seed="x")]), False),
    "extra key in the last item": (json.dumps([*PLAIN_ITEMS[:-1], dict(_LAST, note="x")]), False),
    "duplicate last item": (json.dumps([*PLAIN_ITEMS, PLAIN_ITEMS[0]]), True),
    # A label longer than a chunk at every small chunk size, with a "}," every
    # third character: a chunk cut inside it is joined across several parts.
    "label longer than a chunk": (
        json.dumps([dict(item, algorithm=_LONG.get(item["algorithm"], item["algorithm"]))
                    for item in PLAIN_ITEMS]),
        True,
    ),
}


@pytest.mark.parametrize("chunk", [*SMALL_CHUNKS, results._CHUNK])
@pytest.mark.parametrize(
    "text, canonical", JSON_CHUNK_BATTERY.values(), ids=JSON_CHUNK_BATTERY.keys()
)
def test_chunked_json_ingest_matches_the_whole_text(text, canonical, chunk, monkeypatch):
    monkeypatch.setattr(results, "_CHUNK", chunk)
    outcome = _outcome(lambda: ingest(_slices(text, chunk), BATTERY_REGISTRY))
    assert outcome == _whole_text_outcome(text, BATTERY_REGISTRY)
    if canonical and outcome.startswith("algorithm,"):
        # Bit for bit the cubes the row parser's columns give.
        table = ingest(text, BATTERY_REGISTRY)
        rows = results._parse_rows(results._json_rows(json.loads(text)), 0)
        reference = ResultTable.from_columns(*rows, BATTERY_REGISTRY)
        assert (table.suite, table.seeds, table.algorithms) == (
            reference.suite, reference.seeds, reference.algorithms
        )
        assert table.values.tobytes() == reference.values.tobytes()
        assert table.status.tobytes() == reference.status.tobytes()


# Texts with raw newlines, multi-byte characters, or labels a cut may fall inside.
_FAULT_TEXTS = [
    "indent=2", "non-ASCII labels", "hostile labels", "hostile labels, indent=2",
    "label longer than a chunk",
]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_syntax_fault_anywhere_is_the_whole_text_error(data):
    # One fault at a random character past the opening "[": the text cut
    # short there, or a character inserted there that may not stand at that
    # place outside a string (inside one, a raw newline or control character
    # is a fault too). The chunk that meets it words the error with the
    # line, column and character of the whole text, whichever part it is in.
    draw = data.draw
    text = JSON_CHUNK_BATTERY[draw(st.sampled_from(_FAULT_TEXTS))][0]
    at = draw(st.integers(1, len(text) - 1))
    fault = draw(st.sampled_from([None, "\x01", "\n", "]", ",", ":", "x"]))
    text = text[:at] if fault is None else text[:at] + fault + text[at:]
    expected = _whole_text_outcome(text, BATTERY_REGISTRY)
    for chunk in SMALL_CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(results, "_CHUNK", chunk)
            outcome = _outcome(lambda: ingest(_slices(text, chunk), BATTERY_REGISTRY))
            assert outcome == expected, chunk


# Plain-labelled texts cut after every few items (12 chunks): whether each
# chunk read is canonical, in order, and how many chunks the row parser read.
# A fault (None) is raised from the chunk that holds it, and no chunk after it is read.
PLAIN_CHUNK_READS = {
    "default dump": ([True] * 12, 0),
    "indent=2": ([True] * 12, 0),
    "leading whitespace": ([True] * 12, 0),
    "non-canonical last item": ([True] * 11 + [False], 1),
    "bad last item": ([True] * 11 + [False], None),
    "array in the last item": ([True] * 11 + [False], None),
    "trailing comma": ([True] * 12, None),
}


def _chunk_records(chunks) -> list[tuple]:
    """Each record in column ``chunks``: its labels, seed and value, None for none."""
    return [record[:5] for columns, _ in chunks for record in zip(*columns)]


def _read_json(text: str) -> list[tuple[tuple[list, ...], bool]]:
    """The column chunks ``results._read_json`` yields for ``text``'s pieces, as ingest reads them."""
    return list(results._read_json(results._pieces(text)[1]))


def _chunk_counts(chunks) -> list[int]:
    """How many of ``chunks`` the row parser made, and how many there are."""
    return [sum(by_rows for _, by_rows in chunks), len(chunks)]


@pytest.mark.parametrize("name", PLAIN_CHUNK_READS)
def test_json_chunks_are_read_until_the_first_fault(name, monkeypatch):
    read, json_columns = [], results._json_columns

    def spy(items):
        columns = json_columns(items)
        read.append(columns is not None)
        return columns

    monkeypatch.setattr(results, "_CHUNK", 300)
    monkeypatch.setattr(results, "_json_columns", spy)
    reads, by_rows = PLAIN_CHUNK_READS[name]
    if by_rows is None:
        with pytest.raises(ValidationError):
            _read_json(JSON_CHUNK_BATTERY[name][0])
    else:
        chunks = _read_json(JSON_CHUNK_BATTERY[name][0])
        assert _chunk_counts(chunks) == [by_rows, 12]
        assert _chunk_records(chunks) == [
            tuple(map(item.get, CSV_COLUMNS[:5])) for item in PLAIN_ITEMS
        ]
    assert read == reads


def test_a_cut_inside_a_label_is_joined_with_the_parts_that_follow(monkeypatch):
    # At _CHUNK 0 every "}," is a cut, and each hostile item holds "}," inside
    # its labels' quotes: a chunk cut there is joined with the parts after it
    # until it parses, here at the item's end, so each item is one chunk, as
    # with plain labels.
    monkeypatch.setattr(results, "_CHUNK", 0)
    for text, items in ((json.dumps(HOSTILE_ITEMS), HOSTILE_ITEMS), (_PLAIN, PLAIN_ITEMS)):
        chunks = _read_json(text)
        assert _chunk_counts(chunks) == [0, len(items)]
        assert _chunk_records(chunks) == [tuple(map(item.get, CSV_COLUMNS[:5])) for item in items]


@pytest.mark.parametrize(
    "text, first_chunk",
    [
        (json.dumps([{"results": PLAIN_ITEMS}]), True),
        (json.dumps([PLAIN_ITEMS]), True),
        # A field's value: the row parser reads it as text, so the item is read whole.
        (json.dumps([{"algorithm": PLAIN_ITEMS}]), False),
    ],
    ids=["array in an object", "array in an array", "array as a field's value"],
)
def test_a_text_that_is_not_an_array_of_flat_objects_is_parsed_in_linear_time(
    text, first_chunk, monkeypatch
):
    # Every cut of an array nested in the first item leaves it open at the
    # "]" the cut added. Joined one part at a time, the text was parsed once
    # per part: 70 s against 1.9 s for the CI step's 43 MB grid wrapped as
    # {"results": ...}, a text that now fails at its "{". Joined until its
    # text doubles, it is parsed in linear time; and a first item that opens
    # an array, or an object whose first key is no field and whose value
    # opens one, is the error at the first chunk.
    expected = _whole_text_outcome(text, BATTERY_REGISTRY)
    parsed, loads = [], json.loads
    monkeypatch.setattr(results, "_CHUNK", 300)
    monkeypatch.setattr(json, "loads", lambda doc: parsed.append(len(doc)) or loads(doc))
    assert _outcome(lambda: ingest(text, BATTERY_REGISTRY)) == expected
    assert expected.startswith("JSON item 0: unexpected shape" if first_chunk else "row 0: ")
    assert len(text) > 10 * results._CHUNK
    assert sum(parsed) < (2 * results._CHUNK if first_chunk else 3 * len(text))


@pytest.mark.parametrize("chunk", [*SMALL_CHUNKS, results._CHUNK])
@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"results": PLAIN_ITEMS}),
        json.dumps({"results": PLAIN_ITEMS})[:-1],
        " \n\t{x",
        "{",
        json.dumps(PLAIN_ITEMS[0]),
    ],
    ids=["wrapped", "wrapped, unclosed", "syntax error", "bare brace", "one item"],
)
def test_a_text_that_opens_an_object_fails_at_its_brace(text, chunk, monkeypatch):
    # A "{" first is never an array of objects, whatever follows it: the
    # pieces after the one that holds it are not read.
    monkeypatch.setattr(results, "_CHUNK", chunk)
    brace = text.index("{") + 1
    read = []

    def pieces():
        for piece in (text[:brace], text[brace:]):
            read.append(piece)
            yield piece

    for source in (text, pieces()):
        assert _outcome(lambda: ingest(source, BATTERY_REGISTRY)) == (
            "JSON input must be an array of objects"
        )
    assert read == [text[:brace]]


# A row error in item 0 and a syntax error at the end of the text.
_BAD_FIRST_ITEM_UNCLOSED = json.dumps([dict(PLAIN_ITEMS[0], seed="x"), *PLAIN_ITEMS[1:]])[:-1]


@pytest.mark.parametrize("chunk", [*SMALL_CHUNKS, results._CHUNK])
def test_the_first_fault_the_pass_meets_is_the_error(chunk, tmp_path, monkeypatch):
    # Read as one chunk, the text is parsed whole before its rows, so the
    # syntax error wins; cut into chunks, the pass stops at the row error in
    # the first one. A str, a one-shot iterable and a file agree.
    whole, bad = chunk == results._CHUNK, _BAD_FIRST_ITEM_UNCLOSED
    path = tmp_path / "grid.json"
    path.write_text(bad)
    monkeypatch.setattr(results, "_CHUNK", chunk)
    expected = _whole_text_outcome(bad, BATTERY_REGISTRY) if whole else "row 0: bad seed 'x'"
    assert expected.startswith("bad JSON: " if whole else "row 0")
    for text in (bad, iter([bad]), cli._TextFile(str(path))):
        assert _outcome(lambda: ingest(text, BATTERY_REGISTRY)) == expected


def _csv_records(table) -> list[list[str]]:
    """The fields ``to_csv`` writes: the header, then one row per cell in key order."""
    return [list(CSV_COLUMNS)] + [
        [alg, test.dataset, test.metric, str(seed), "" if math.isnan(v) else repr(v), status.value]
        for alg, test, seed, v, status in table.cells()
    ]


def _csv_writer_text(table) -> str:
    """``to_csv`` as ``csv.writer`` writes it, one row per cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_csv_records(table))
    return buf.getvalue()


def _csv_writer_field(label: str) -> str:
    """``label`` as ``csv.writer`` quotes it in a row of more than one field."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([label, ""])
    return buf.getvalue()[: -len(",\n")]


def test_to_csv_matches_csv_writer_on_large_synth_grid():
    config = SynthConfig(
        n_algorithms=10, n_datasets=100, n_metrics=4, n_seeds=100,
        noise_scale=0.5, tie_prob=0.1, fail_prob=0.05,
    )
    table = generate(config)
    assert table.values.size == 400_000
    assert "".join(to_csv(table)) == _csv_writer_text(table)


# Any text without a carriage return, with the characters that need quoting drawn often.
NO_CR_TEXT = st.text(st.sampled_from(',"\n ab') | st.characters(exclude_characters="\r"))


@given(st.lists(NO_CR_TEXT))
def test_csv_fields_quote_as_csv_writer_does_without_carriage_return(labels):
    assert csv_fields(labels) == {label: _csv_writer_field(label) for label in labels}


@pytest.mark.parametrize("label", ["\r", "a\rb", '\r"', "\r\n"])
def test_csv_fields_quote_a_carriage_return(label):
    # csv.writer leaves a bare carriage return unquoted, and csv.reader then
    # cannot read the field back; the one quoting rule quotes it.
    field = csv_fields([label])[label]
    assert field == '"' + label.replace('"', '""') + '"'
    assert next(csv.reader(io.StringIO(f"{field},x\n"))) == [label, "x"]


HOSTILE_LABELS = ["a,b", 'say "hi"', "a\rb", "a\nb", "\n"]


def _labelled_table(label: str, field: str):
    """A two-by-two grid with one failed cell; every ``field`` label starts with ``"x" + label``.

    The ``x`` keeps a hostile ``label`` that starts with whitespace a valid label.
    """
    items = _minimal_items((3, {"value": None, "status": "timeout"}))
    for item in items:
        item[field] = "x" + label + item[field]
    metric = items[0]["metric"]
    return ResultTable.from_columns(
        *([item[key] for item in items] for key in CSV_COLUMNS[:5]),
        [STATUSES.index(Status(item["status"])) for item in items],
        {metric: MetricSpec(metric, Direction.HIGHER_BETTER)},
    )


@pytest.mark.parametrize("label", HOSTILE_LABELS)
@pytest.mark.parametrize("field", ["algorithm", "dataset", "metric"])
def test_to_csv_quotes_labels_as_csv_writer_does(label, field):
    table = _labelled_table(label, field)
    # csv.writer leaves a field with a carriage return bare; to_csv quotes it.
    expected = re.sub(r"[^,\n]*\r[^,\n]*", r'"\g<0>"', _csv_writer_text(table))
    assert "".join(to_csv(table)) == expected
    assert list(csv.reader(io.StringIO("".join(to_csv(table))))) == _csv_records(table)


@pytest.mark.parametrize("label", HOSTILE_LABELS)
@pytest.mark.parametrize("field", ["algorithm", "dataset", "metric"])
def test_to_csv_reads_back_hostile_labels(label, field):
    table = _labelled_table(label, field)
    again = ingest("".join(to_csv(table)), table.registry)
    assert (again.suite, again.seeds, again.algorithms) == (
        table.suite, table.seeds, table.algorithms
    )
    assert np.array_equal(again.values, table.values, equal_nan=True)
    assert np.array_equal(again.status, table.status)


@pytest.mark.parametrize("label", HOSTILE_LABELS)
@pytest.mark.parametrize("field", ["algorithm", "dataset", "metric"])
def test_ranks_to_csv_reads_back_hostile_labels(label, field):
    cube = rank_table(_labelled_table(label, field))
    assert list(csv.reader(io.StringIO("".join(ranks_to_csv(cube))))) == [
        ["dataset", "metric", "seed", "algorithm", "rank"]
    ] + [
        [test.dataset, test.metric, str(seed), alg, repr(rank)]
        for test, per_seed in zip(cube.suite, cube.ranks.tolist())
        for seed, row in zip(cube.seeds, per_seed)
        for alg, rank in zip(cube.algorithms, row)
    ]


def _columns_with(field: str, label) -> list[list]:
    """The columns of the two-by-two grid, with ``field`` of its first record set to ``label``."""
    items = _minimal_items((0, {field: label}))
    return [
        *([item[key] for item in items] for key in CSV_COLUMNS[:5]),
        [STATUSES.index(Status(item["status"])) for item in items],
    ]


# Labels that ingest never gives. The int and None mix types in a column,
# which used to raise TypeError from sorting the distinct labels, and the
# list used to raise TypeError from hashing them.
BAD_LABELS = {
    "trailing newline": "x\n",
    "leading space": " x",
    "inner text padded": "\tx y\u2028",
    "empty": "",
    "whitespace only": " ",
    "int": 1,
    "None": None,
    "unhashable": ["a"],
}


@pytest.mark.parametrize("label", BAD_LABELS.values(), ids=BAD_LABELS.keys())
@pytest.mark.parametrize("field", ["algorithm", "dataset", "metric"])
def test_from_columns_rejects_labels_ingest_never_gives(label, field):
    with pytest.raises(ValidationError) as exc:
        ResultTable.from_columns(*_columns_with(field, label), REGISTRY)
    assert str(exc.value) == (
        f"bad {field} label {label!r}: not a non-empty str without surrounding whitespace"
    )


# Seeds that ingest never gives. A float or bool equal to an int seed used
# to merge with it; the str and None raised TypeError from sorting and the
# list from hashing.
BAD_SEEDS = {"str": "0", "float": 0.0, "bool": False, "None": None, "unhashable": [0]}


@pytest.mark.parametrize("seed", BAD_SEEDS.values(), ids=BAD_SEEDS.keys())
def test_from_columns_rejects_seeds_ingest_never_gives(seed):
    with pytest.raises(ValidationError) as exc:
        ResultTable.from_columns(*_columns_with("seed", seed), REGISTRY)
    assert str(exc.value) == f"bad seed {seed!r}: not an int"


def test_from_columns_rejects_a_seed_equal_to_an_earlier_int_seed():
    # 0.0 and False equal the int seed 0 before them, and used to merge with it.
    for seed in (0.0, False):
        columns = _columns_with("seed", 0)
        columns[3][2] = seed  # record 2 is (b, seed 0)
        with pytest.raises(ValidationError) as exc:
            ResultTable.from_columns(*columns, REGISTRY)
        assert str(exc.value) == f"bad seed {seed!r}: not an int"


# Values that ingest never gives. The str and bool used to read as 0.5 and
# 1.0, and "abc" raised a bare ValueError from the float conversion.
BAD_VALUES = {"str": "0.5", "text": "abc", "bool": True, "int": 1, "list": [0.5]}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_from_columns_rejects_values_ingest_never_gives(value):
    with pytest.raises(ValidationError) as exc:
        ResultTable.from_columns(*_columns_with("value", value), REGISTRY)
    assert str(exc.value) == f"bad value {value!r}: not a float or None"


# Statuses that ingest never gives. 9 used to pass and make to_csv raise
# IndexError, -1 and True to read as error and oom, 1.5 as oom; 300 and
# "oom" raised OverflowError and ValueError.
BAD_STATUSES = {
    "past the end": 9, "negative": -1, "bool": True, "float": 1.5, "past int8": 300, "text": "oom",
}


@pytest.mark.parametrize("status", BAD_STATUSES.values(), ids=BAD_STATUSES.keys())
def test_from_columns_rejects_statuses_ingest_never_gives(status):
    columns = _columns_with("status", "ok")
    columns[5][-1] = status
    with pytest.raises(ValidationError) as exc:
        ResultTable.from_columns(*columns, REGISTRY)
    assert str(exc.value) == f"bad status {status!r}: not an index into STATUSES"


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5)], ids=["float64", "float32"])
def test_from_columns_takes_numpy_float_values(value):
    table = ResultTable.from_columns(*_columns_with("value", value), REGISTRY)
    assert 0.5 in table.values


LABELS = st.text(min_size=1).filter(lambda label: label.strip() == label)


@given(
    st.lists(LABELS, min_size=2, max_size=3, unique=True),
    st.lists(LABELS, min_size=1, max_size=2, unique=True),
    st.lists(LABELS, min_size=1, max_size=2, unique=True),
    st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=2, unique=True),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_to_csv_reads_back_any_valid_labels(algorithms, datasets, metrics, seeds, data):
    keys = [(a, d, m, s) for a in algorithms for d in datasets for m in metrics for s in seeds]
    codes = st.sampled_from(range(len(STATUSES)))
    statuses = data.draw(st.lists(codes, min_size=len(keys), max_size=len(keys)))
    values = [
        data.draw(
            st.floats(allow_nan=False, allow_infinity=False)
            if STATUSES[code] is Status.OK
            else st.one_of(st.none(), st.floats(allow_nan=False))
        )
        for code in statuses
    ]
    registry = {m: MetricSpec(m, Direction.HIGHER_BETTER) for m in metrics}
    table = ResultTable.from_columns(*map(list, zip(*keys)), values, statuses, registry)
    again = ingest("".join(to_csv(table)), registry)
    assert (again.suite, again.seeds, again.algorithms) == (
        table.suite, table.seeds, table.algorithms
    )
    assert np.array_equal(again.values, table.values, equal_nan=True)
    assert np.array_equal(again.status, table.status)


# The first offending record in input order is reported, and within a
# record "status ok but no value" comes before "unknown metric".
OK_WITHOUT_VALUE_CASES = {
    "before a later unknown metric": (
        [("a", "cora", "f1", 0, 0.5), ("b", "cora", "f1", 0, None), ("c", "cora", "nmi", 0, 0.1)],
        "record ('b', 'cora', 'f1', 0): status ok but no value",
    ),
    "unknown metric alone": (
        [("a", "cora", "f1", 0, 0.5), ("c", "cora", "nmi", 0, 0.1)],
        "unknown metric 'nmi' (record ('c', 'cora', 'nmi', 0))",
    ),
    "same record as an unknown metric": (
        [("a", "cora", "f1", 0, 0.5), ("c", "cora", "nmi", 0, None)],
        "record ('c', 'cora', 'nmi', 0): status ok but no value",
    ),
}


@pytest.mark.parametrize(
    "rows, message", OK_WITHOUT_VALUE_CASES.values(), ids=OK_WITHOUT_VALUE_CASES.keys()
)
def test_from_columns_reports_ok_without_value_first(rows, message):
    with pytest.raises(ValidationError) as exc:
        table_of(rows, REGISTRY)
    assert str(exc.value) == message


# Faults a record can carry, each applied to one record of a complete grid.
RECORD_FAULTS = {
    "missing": lambda records, i, record: records.pop(i),
    "duplicate": lambda records, i, record: records.insert(i // 2, record),
    "ok without a value": lambda records, i, record: records.__setitem__(
        i, (*record[:4], None, OK)
    ),
    "unknown metric": lambda records, i, record: records.__setitem__(
        i, (*record[:2], "nmi", *record[3:])
    ),
    "out of bounds": lambda records, i, record: records.__setitem__(i, (*record[:4], 1.5, OK)),
    "nan on ok": lambda records, i, record: records.__setitem__(i, (*record[:4], math.nan, OK)),
    "inf on ok": lambda records, i, record: records.__setitem__(i, (*record[:4], -math.inf, OK)),
    "nan on a failed run": lambda records, i, record: records.__setitem__(
        i, (*record[:4], math.nan, STATUSES.index(Status.OUT_OF_MEMORY))
    ),
}


@given(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(["cora", "dblp"]), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from(["f1", "loss"]), min_size=1, max_size=2, unique=True),
    st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True),
    st.lists(st.tuples(st.sampled_from(list(RECORD_FAULTS)), st.integers(0, 99)), max_size=4),
    st.data(),
)
@settings(max_examples=500, deadline=None)
def test_the_error_is_a_record_by_record_scans(
    algorithms, datasets, metrics, seeds, faults, data
):
    # A complete grid, given faults, shuffled and read in chunks cut at
    # random: the core gives the message of a plain scan in input order.
    failed = st.sampled_from(range(1, len(STATUSES)))
    records = [
        (a, d, m, s, *data.draw(st.sampled_from([(0.0, OK), (1.0, OK), (0.25, OK)]) | st.tuples(
            st.sampled_from([None, 0.5]), failed
        )))
        for a in algorithms for d in datasets for m in metrics for s in seeds
    ]
    for fault, i in faults:
        if records:
            RECORD_FAULTS[fault](records, i % len(records), records[i % len(records)])
    records = data.draw(st.permutations(records))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=4)))
    chunks = [
        (tuple(map(list, zip(*records[start:end]))) or ([],) * 6, data.draw(st.booleans()))
        for start, end in zip([0, *cuts], [*cuts, len(records)])
    ]
    expected = scan_records(records, REGISTRY)
    try:
        table = ResultTable._from_chunks(chunks, REGISTRY, False)
    except ValidationError as exc:
        assert str(exc) == expected
        return
    assert isinstance(expected, dict)
    assert len(expected) == table.values.size
    for (a, d, m, s), (value, status) in expected.items():
        cell = table.suite.index(TestId(d, m)), table.seeds.index(s), table.algorithms.index(a)
        assert table.status[cell] == status
        assert np.array_equal(table.values[cell], np.nan if value is None else value, equal_nan=True)


def test_paper_shaped_suite_size():
    # 10 algorithms x 11 datasets x 4 metrics x 10 seeds -> 44 tests
    registry = {f"m{i}": MetricSpec(f"m{i}", Direction.HIGHER_BETTER) for i in range(4)}
    rows = [
        (f"alg{a:02d}", f"d{d:02d}", f"m{m}", s, float(a))
        for a in range(10)
        for d in range(11)
        for m in range(4)
        for s in range(10)
    ]
    table = table_of(rows, registry)
    assert len(table.suite) == 44
    assert len(table.seeds) == 10


def test_round_trip_stability():
    table = ingest(MINIMAL_CSV, REGISTRY)
    again = ingest("".join(to_csv(table)), REGISTRY)
    assert "".join(to_csv(again)) == "".join(to_csv(table))
    assert again.suite == table.suite


def test_row_order_independence():
    lines = MINIMAL_CSV.splitlines()
    shuffled = "\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n"
    canonical = "".join(to_csv(ingest(MINIMAL_CSV, REGISTRY)))
    assert "".join(to_csv(ingest(shuffled, REGISTRY))) == canonical


def test_drop_incomplete_removes_whole_test():
    two_tests = MINIMAL_CSV + (
        "a,cora,conductance,0,0.1,ok\n"
        "a,cora,conductance,1,0.2,ok\n"
        "b,cora,conductance,0,0.3,ok\n"
    )  # conductance test misses (b, seed 1)
    table = ingest(two_tests, REGISTRY, drop_incomplete=True)
    assert [t.metric for t in table.suite] == ["f1"]
    with pytest.raises(ValidationError, match="incomplete"):
        ingest(two_tests, REGISTRY)


# Messages computed before the CLI declared its inputs once: the text,
# drop_incomplete and the ValidationError message.
INGEST_ERROR_CASES = {
    "short row": (
        MINIMAL_CSV.replace("b,cora,f1,0,0.4,ok", "b,cora,f1,0,0.4"),
        False, "row 4: wrong number of fields",
    ),
    "long row after a blank line": (
        MINIMAL_CSV.replace("a,cora,f1,1,0.6,ok\n", "\na,cora,f1,1,0.6,ok,x\n"),
        False, "row 3: wrong number of fields",
    ),
    "bare carriage return after a blank line": (
        MINIMAL_CSV.replace("a,cora,f1,1,0.6,ok\n", "\na\rx,cora,f1,1,0.6,ok\n"),
        False, "row 3: new-line character seen in unquoted field",
    ),
    "truncated JSON": (
        '[{"algorithm": "a",', False,
        "bad JSON: Expecting property name enclosed in double quotes: line 1 column 20 (char 19)",
    ),
    "JSON object": ('{"algorithm": "a"}', False, "JSON input must be an array of objects"),
    "one algorithm": (
        "".join(line for line in MINIMAL_CSV.splitlines(True) if not line.startswith("b,")),
        False, "need at least 2 algorithms",
    ),
    "every test incomplete": (
        "\n".join(MINIMAL_CSV.splitlines()[:-1]) + "\n",
        True, "every test has missing cells; nothing left",
    ),
}


@pytest.mark.parametrize(
    "text, drop_incomplete, message",
    INGEST_ERROR_CASES.values(),
    ids=INGEST_ERROR_CASES.keys(),
)
def test_ingest_error_messages_are_pinned(text, drop_incomplete, message):
    with pytest.raises(ValidationError) as exc:
        ingest(text, REGISTRY, drop_incomplete)
    assert str(exc.value) == message


def _hostile_csv() -> str:
    """CSV of a grid whose labels hold commas, quotes, carriage returns and line breaks."""
    items = _minimal_items((3, {"value": None, "status": "timeout"}))
    for item in items:
        item["algorithm"] = f'x"\r\n,{item["algorithm"]}\n\ny'
        item["dataset"] = 'c,"o"\rra!'
    return "".join(to_csv(ResultTable.from_columns(
        *([item[key] for item in items] for key in CSV_COLUMNS[:5]),
        [STATUSES.index(Status(item["status"])) for item in items],
        REGISTRY,
    )))


_MINIMAL_ROWS = MINIMAL_CSV.splitlines(True)
# CSV texts, each read in slices of a few characters and batches of a few
# rows, and in one slice and one batch: the text and the drop_incomplete flag.
CSV_CHUNK_BATTERY = {
    **{name: (text, drop) for name, (text, drop, _) in INGEST_ERROR_CASES.items()
       if not text.lstrip().startswith(("[", "{"))},
    "minimal": (MINIMAL_CSV, False),
    "bad status in the last row": (MINIMAL_CSV.replace("0.3,ok", "0.3,lost"), False),
    "bad seed after blank lines": (MINIMAL_CSV.replace("b,cora,f1,1", "\n\nb,cora,f1,x"), False),
    "CRLF line ends": (MINIMAL_CSV.replace("\n", "\r\n"), False),
    "no final newline": (MINIMAL_CSV.rstrip("\n"), False),
    "padded fields": ("".join(_MINIMAL_ROWS[:2]) + "".join(f" {row}" for row in _MINIMAL_ROWS[2:]),
                      False),
    "hostile labels": (_hostile_csv(), False),
    "unclosed quote in the last row": (_hostile_csv() + '"a,cora', False),
    "large grid": ("".join(to_csv(_BATTERY_TABLE)), False),
    "non-ASCII labels": ("".join(to_csv(ingest(NON_ASCII_JSON, BATTERY_REGISTRY))), False),
}


@pytest.mark.parametrize("chunk, batch", [(0, 1), (1, 2), (7, 3), (40, 5)])
@pytest.mark.parametrize(
    "text, drop_incomplete", CSV_CHUNK_BATTERY.values(), ids=CSV_CHUNK_BATTERY.keys()
)
def test_chunked_csv_ingest_matches_one_chunk(text, drop_incomplete, chunk, batch, monkeypatch):
    registry = {**REGISTRY, **BATTERY_REGISTRY}
    whole = _outcome(lambda: ingest(text, registry, drop_incomplete))
    monkeypatch.setattr(results, "_CHUNK", chunk)  # a line a block at 0 and 1
    monkeypatch.setattr(results, "_CSV_BATCH", batch)
    assert _outcome(lambda: ingest(_slices(text, chunk), registry, drop_incomplete)) == whole


def _row_parser_outcome(text: str, registry=REGISTRY) -> str:
    """What ``csv.reader`` and the row parser alone make of CSV text: a table or an error."""
    return _outcome(lambda: ResultTable.from_columns(
        *results._parse_rows(results._csv_rows(io.StringIO(text)), 2), registry
    ))


def _minimal_csv(row: int, line: str) -> str:
    """MINIMAL_CSV with data row ``row`` (2 to 5) replaced by ``line``, which holds its ending."""
    return "".join(_MINIMAL_ROWS[:row - 1]) + line + "".join(_MINIMAL_ROWS[row:])


# CSV texts, and the first row of each row parser call when the text is one
# block and when every line is a block of its own; None marks the texts that
# are read as columns alone. A row that csv.reader reads with the wrong
# number of fields, or cannot split, is an error before the row parser is
# called on it, and the header before any row is read.
CSV_PATH_CASES = {
    "minimal": (MINIMAL_CSV, None),
    "no final newline": (MINIMAL_CSV.rstrip("\n"), None),
    "failed row without value": (_minimal_csv(5, "b,cora,f1,1,,oom\n"), None),
    "nan on a failed row": (_minimal_csv(5, "b,cora,f1,1,nan,error\n"), None),
    "inf on an ok row": (_minimal_csv(5, "b,cora,f1,1,inf,ok\n"), None),
    "padded seed and value": (_minimal_csv(5, "b,cora,f1, 1, 0.3 ,ok\n"), None),
    "underscored seed": (_minimal_csv(5, "b,cora,f1,1_0,0.3,ok\n"), None),
    "duplicate": (_minimal_csv(5, "b,cora,f1,0,0.3,ok\n"), None),
    "non-ASCII labels": (MINIMAL_CSV.replace("cora", "c\xf3ra\u20ac"), None),
    "quoted label in the last row": (_minimal_csv(5, '"b",cora,f1,1,0.3,ok\n'), ([2], [5])),
    "quoted label without final newline": (_minimal_csv(5, '"b",cora,f1,1,0.3,ok'), ([2], [5])),
    "CRLF line ends": (MINIMAL_CSV.replace("\n", "\r\n"), ([2], [2])),
    "CRLF in row 3": (_minimal_csv(3, "a,cora,f1,1,0.6,ok\r\n"), ([2], [3])),
    "blank line before row 4": (_minimal_csv(4, "\nb,cora,f1,0,0.4,ok\n"), ([2], [4])),
    "padded label": (_minimal_csv(3, "a,cora ,f1,1,0.6,ok\n"), ([2], [3])),
    "upper-case status": (_minimal_csv(2, "a,cora,f1,0,0.5,OK\n"), ([2], [2])),
    "padded status": (_minimal_csv(4, "b,cora,f1,0,0.4, ok \n"), ([2], [4])),
    "ok row without value": (_minimal_csv(5, "b,cora,f1,1,,ok\n"), ([2], [5])),
    "blank value on a failed row": (_minimal_csv(4, "b,cora,f1,0,  ,oom\n"), ([2], [4])),
    "bad seed": (_minimal_csv(3, "a,cora,f1,x,0.6,ok\n"), ([2], [3])),
    "short row": (_minimal_csv(4, "b,cora,f1,0,0.4\n"), ([2], [])),
    "long row": (_minimal_csv(2, "a,cora,f1,0,0.5,ok,x\n"), ([], [])),
    "quote inside a label": (_minimal_csv(3, 'a"x,cora,f1,1,0.6,ok\n'), ([2], [3])),
    "bare carriage return": (_minimal_csv(5, "b\rx,cora,f1,1,0.3,ok\n"), ([2], [])),
    "NUL in a label": (_minimal_csv(5, "b\0,cora,f1,1,0.3,ok\n"), ([2], [5])),
    "bad header": (MINIMAL_CSV.replace("status", "state", 1), ([], [])),
    "no rows": (_MINIMAL_ROWS[0], ([2], [2])),
    "header without newline": (_MINIMAL_ROWS[0].rstrip("\n"), ([2], [2])),
}


@pytest.mark.parametrize("chunk", [results._CHUNK, 0])
@pytest.mark.parametrize("name", CSV_PATH_CASES)
def test_only_non_canonical_csv_reaches_row_parser(name, chunk, monkeypatch):
    text, starts = CSV_PATH_CASES[name]
    expected = _row_parser_outcome(text)
    calls = []
    parse_rows = results._parse_rows

    def row_parser(rows, start):
        calls.append(start)
        if starts is None:
            raise AssertionError("canonical CSV reached the row parser")
        return parse_rows(rows, start)

    monkeypatch.setattr(results, "_CHUNK", chunk)
    monkeypatch.setattr(results, "_parse_rows", row_parser)
    assert _outcome(lambda: ingest(text, REGISTRY)) == expected
    assert calls == ([] if starts is None else starts[chunk == 0])


def test_a_field_over_the_csv_field_limit_is_the_row_parser_error():
    text = _minimal_csv(4, "b,cora-citeseer,f1,0,0.4,ok\n")  # a canonical line
    limit = csv.field_size_limit(len("algorithm"))
    try:
        assert _outcome(lambda: ingest(text, REGISTRY)) == _row_parser_outcome(text) == (
            "row 4: field larger than field limit (9)"
        )
    finally:
        csv.field_size_limit(limit)


def _csv_line(draw, fields: list[str]) -> str:
    """The CSV line of ``fields``, as written or with one field or the line changed."""
    label = lambda x: [f'"{x}"', f'"{x},z"', f" {x}", f"{x}\t", f'{x}"q', f"{x}\0", ""]
    variants = {
        0: label, 1: label, 2: label,
        3: lambda x: [f" {x}", f"{x}_0", f"0{x}", "\u0663", "x", ""],
        4: lambda x: ["", " ", f" {x} ", "nan", "-inf", "1e400", "1_0.5", f'"{x}"', "x"],
        5: lambda x: ["OK", " ok ", "Ok", "oom", "error", "lost", ""],
    }
    ending = "\n"
    kind = draw(st.sampled_from(["as written"] * 4 + ["field", "line"]))
    if kind == "field":
        i = draw(st.integers(0, 5))
        fields = [*fields[:i], draw(st.sampled_from(variants[i](fields[i]))), *fields[i + 1:]]
    elif kind == "line":
        change = draw(st.sampled_from(["short", "long", "CRLF", "blank line", "CRLF line"]))
        if change == "short":
            fields = fields[:-1]
        elif change == "long":
            fields = [*fields, "x"]
        elif change == "CRLF":
            ending = "\r\n"
        else:  # an empty line before this one
            return ("\n" if change == "blank line" else "\r\n") + ",".join(fields) + ending
    return ",".join(fields) + ending


@st.composite
def _mixed_csv_texts(draw) -> str:
    """Texts of a small grid whose lines are canonical or changed one way each."""
    metric = draw(st.sampled_from(["f1", "loss"]))
    lines = []
    for dataset, a, seed in itertools.product(
        ["cora", "citeseer"][: draw(st.integers(1, 2))], "ab", "01"
    ):
        status = draw(st.sampled_from(["ok", "ok", "ok", "oom", "timeout", "error"]))
        value = draw(st.floats(0, 1)) if status == "ok" or draw(st.booleans()) else None
        fields = [a, dataset, metric, seed, "" if value is None else repr(value), status]
        lines.append(_csv_line(draw, fields))
    lines = draw(st.permutations(lines))
    header = draw(st.sampled_from([_MINIMAL_ROWS[0]] * 5 + [_MINIMAL_ROWS[0][:-1] + "\r\n"]))
    text = header + "".join(lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


@given(_mixed_csv_texts(), st.sampled_from([0, 7, results._CHUNK]))
@settings(max_examples=300, deadline=None)
@example(_minimal_csv(5, '"b",cora,f1,1,0.3,ok'), 0)
@example(_minimal_csv(3, "a,cora,f1,1,0.6,ok\r\n"), 7)
@example(_minimal_csv(5, "b,cora,f1,1,,oom\n\n"), results._CHUNK)
def test_csv_ingest_matches_row_parser_on_mixed_lines(text, chunk):
    # Any CSV text, in pieces of chunk characters, gives the table or the
    # error that csv.reader and the row parser alone give, whether its
    # blocks are read as columns or not, at block sizes down to one line a
    # block.
    expected = _row_parser_outcome(text)
    for block in (0, 1, 40, results._CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(results, "_CHUNK", block)
            assert _outcome(lambda: ingest(_slices(text, chunk), REGISTRY)) == expected, block


# Every battery text, with the registry and drop_incomplete flag it is read under.
FILE_CASES = {
    **{f"JSON {name}": (text, BATTERY_REGISTRY, False)
       for name, (text, _) in JSON_CHUNK_BATTERY.items()},
    **{f"CSV {name}": (text, {**REGISTRY, **BATTERY_REGISTRY}, drop)
       for name, (text, drop) in CSV_CHUNK_BATTERY.items()},
}


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no BOM", "BOM"])
@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize(
    "text, registry, drop_incomplete", FILE_CASES.values(), ids=FILE_CASES.keys()
)
def test_a_file_loads_as_its_text_does(
    text, registry, drop_incomplete, chunk, bom, tmp_path, monkeypatch
):
    # The CLI reads a file _CHUNK bytes at a time (a byte at a time at 0), so
    # at chunks 0 and 1 every multi-byte character, every "}," and the BOM
    # are split across blocks, and the leading whitespace spans pieces.
    expected = _outcome(lambda: ingest(text, registry, drop_incomplete))
    data = bom + text.encode()
    path = tmp_path / "table"
    path.write_bytes(data)
    monkeypatch.setattr(results, "_CHUNK", chunk)

    def load():
        table, digest = cli._load_table(str(path), registry, drop_incomplete)
        assert digest == hashlib.sha256(data).hexdigest()
        return table

    assert _outcome(load) == expected


@pytest.mark.parametrize(
    "one_shot", [io.StringIO, lambda text: iter([text])], ids=["StringIO", "iter"]
)
@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize(
    "text, registry, drop_incomplete", FILE_CASES.values(), ids=FILE_CASES.keys()
)
def test_a_one_shot_iterable_reads_as_its_text_does(
    text, registry, drop_incomplete, chunk, one_shot, monkeypatch
):
    # A one-shot iterable (an open file, a generator) is read once, as a str is.
    expected = _outcome(lambda: ingest(text, registry, drop_incomplete))
    monkeypatch.setattr(results, "_CHUNK", chunk)
    assert _outcome(lambda: ingest(one_shot(text), registry, drop_incomplete)) == expected


# Every line break str.splitlines knows, lone surrogates, non-ASCII and
# "},": only "\n" may end a line.
TEXT_PIECES = st.one_of(
    st.sampled_from(
        ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    ),
    # The last piece is a surrogate pair as two code points, not one emoji.
    st.sampled_from(["a", ",", '"', "}", "},", "\xe9", "\u20ac", "\U0001f600", "\ud83d\ude00"]),
    st.characters(categories=["Cs"]),
    st.characters(),
)


@given(
    st.lists(TEXT_PIECES).map("".join), st.sampled_from(["\n", "},"]), st.integers(0, 6),
    st.integers(1, 8),
)
@settings(max_examples=500, deadline=None)
@example("", "\n", 0, 1)
@example("a,b\nc", "\n", 0, 1)
@example("a\rb\r", "\n", 0, 1)
@example("a\r\nb\r\n", "\n", 1, 1)
@example("a long line\nb", "\n", 2, 3)
@example("\xe9\U0001f600\ud800\n\udfff", "\n", 1, 1)
@example("ab\ncd\n\nefgh\ni", "\n", 3, 4)
@example("},},}}},", "},", 0, 1)
@example("a}}, b}, c},", "},", 2, 3)
def test_cuts_fall_just_after_the_first_sep_past_chunk(text, sep, chunk, size):
    # Pieces of a few characters put lines longer than a piece or a cut,
    # "\r\n", "}," and lone surrogates across the piece boundaries.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(results, "_CHUNK", chunk)
        cuts = list(results._cuts(_slices(text, size), sep))
    texts = [cut for cut, _ in cuts]
    assert "".join(texts) == text
    assert [last for _, last in cuts] == [False] * (len(cuts) - 1) + [True]
    # Each cut but the last ends just after the first character of the
    # first sep that starts at least chunk characters past the last cut;
    # the last holds no such sep.
    start = 0
    for cut in texts[:-1]:
        assert text.find(sep, start + chunk) == start + len(cut) - 1
        start += len(cut)
    assert text.find(sep, start + chunk) == -1
    if sep == "\n":
        assert list(itertools.chain.from_iterable(map(io.StringIO, texts))) == list(
            io.StringIO(text)
        )


def test_csv_ingest_peak_memory_is_a_small_multiple_of_the_text():
    # 40k rows; peak over text length: 9.4x with a label string per row and
    # a StringIO copy of the text (4 bytes a character), 7.5x with the
    # strings alone, 5.7x with the copy alone, 3.8x with a UTF-8 copy of the
    # text and a Python list per column, 1.5x read one slice at a time into
    # arrays in batches of 10,000 rows with labels interned; without
    # interning, 2.4x in batches of 10,000 rows and 1.4x in batches of 2,000;
    # 1.55x with pieces split into lines by StringIO for the row parser,
    # 1.38x with blocks of 50k characters read as columns, and 0.86x with
    # each chunk's records checked as it arrives and the chunks' arrays
    # never joined.
    table = generate(
        SynthConfig(n_algorithms=10, n_datasets=20, n_metrics=2, n_seeds=100, noise_scale=0.3)
    )
    text = "".join(to_csv(table))
    tracemalloc.start()
    try:
        ingest(text, table.registry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * len(text)
    # Over 10 blocks, each read as columns.
    parsed = [by_rows for _, by_rows in results._read_csv(results._pieces(text)[1])]
    assert len(parsed) > 10 and not any(parsed)


@pytest.mark.parametrize("ok_status", ["ok", "OK"])
def test_json_ingest_peak_memory_is_a_small_multiple_of_the_text(ok_status):
    # The same 40k rows as JSON (4.8 MB, about 100 chunks), canonical or with
    # every ok status spelled "OK", which the row parser reads; peak over
    # text length: 5.5-6.1x with every item loaded as a dict at once,
    # 1.4x with one chunk of items at a time into Python lists, 0.7x into
    # arrays, later 0.51x, and 0.29x with each chunk's records checked as it
    # arrives and the chunks' arrays never joined.
    table = generate(
        SynthConfig(n_algorithms=10, n_datasets=20, n_metrics=2, n_seeds=100, noise_scale=0.3)
    )
    items = _grid_items(table)
    for item in items:
        item["status"] = ok_status if item["status"] == "ok" else item["status"]
    text = json.dumps(items)
    del items
    tracemalloc.start()
    try:
        ingest(text, table.registry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.36 * len(text)
    # Over 10 chunks, whose labels together are the table's.
    assert len(text) > 10 * results._CHUNK
    chunks = _read_json(text)
    assert _chunk_counts(chunks) == [0 if ok_status == "ok" else len(chunks), len(chunks)]
    assert len(chunks) > 10
    labels = table.algorithms, *zip(*table.suite), table.seeds
    assert [set().union(*(columns[i] for columns, _ in chunks)) for i in range(4)] == [
        set(field) for field in labels
    ]


class TestResolveFailures:
    def test_bounded_metric_gets_worst_endpoint(self):
        csv_text = MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,oom")
        table = resolve_failures(ingest(csv_text, REGISTRY))
        assert table.values[0, 1, 1] == 0.0  # (cora/f1, seed 1, b)

    def test_lower_better_bounded_gets_upper_endpoint(self):
        csv_text = MINIMAL_CSV.replace("f1", "conductance").replace(
            "b,cora,conductance,1,0.3,ok", "b,cora,conductance,1,,timeout"
        )
        table = resolve_failures(ingest(csv_text, REGISTRY))
        assert table.values[0, 1, 1] == 1.0  # (cora/conductance, seed 1, b)

    def test_unbounded_sentinel_strictly_worse(self):
        csv_text = (
            "algorithm,dataset,metric,seed,value,status\n"
            "a,cora,loss,0,0.2,ok\n"
            "b,cora,loss,0,0.5,ok\n"
            "c,cora,loss,0,,error\n"
        )
        table = resolve_failures(ingest(csv_text, REGISTRY))
        sentinel = table.values[0, 0, 2]  # (cora/loss, seed 0, c)
        assert sentinel == math.inf  # no bound: worse than any finite score

    def test_two_failures_tie(self):
        csv_text = (
            "algorithm,dataset,metric,seed,value,status\n"
            "a,cora,loss,0,0.2,ok\n"
            "b,cora,loss,0,,oom\n"
            "c,cora,loss,0,,oom\n"
        )
        table = resolve_failures(ingest(csv_text, REGISTRY))
        b, c = table.values[0, 0, 1:]
        assert b == c

    def test_idempotent_and_ok_untouched(self):
        csv_text = MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,oom")
        once = resolve_failures(ingest(csv_text, REGISTRY))
        twice = resolve_failures(once)
        assert "".join(to_csv(once)) == "".join(to_csv(twice))
        assert once.values[0, 0, 0] == 0.5  # (cora/f1, seed 0, a)


class TestRegistry:
    def test_parse_basic(self):
        text = (
            "# community detection metrics\n"
            "metric.f1.direction = higher\n"
            "metric.f1.bounds = 0,1\n"
            "metric.conductance.direction = lower\n"
        )
        reg = parse_registry(text)
        assert reg["f1"].bounds == (0.0, 1.0)
        assert reg["conductance"].direction is Direction.LOWER_BETTER
        assert reg["conductance"].bounds is None

    @pytest.mark.parametrize("registry", [REGISTRY, {}], ids=["registry", "empty"])
    def test_round_trip(self, registry):
        # The empty registry writes no line at all; parse_registry reads "" as {}.
        assert parse_registry("".join(registry_to_text(registry))) == registry

    @pytest.mark.parametrize(
        "line",
        [
            "metric.f1.direction = sideways",
            "metric.f1.bounds = 1",
            "metric.f1.color = red",
            "f1.direction = higher",
            "just some words",
        ],
    )
    def test_bad_lines(self, line):
        with pytest.raises(ValidationError):
            parse_registry(line + "\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "metric.f1.direction = higher\nmetric.f1.direction = lower\n",
                "registry line 2: 'metric.f1.direction' repeats line 1",
            ),
            (
                "metric.f1.direction = higher\n# note\n\nmetric.f1.direction = higher\n",
                "registry line 4: 'metric.f1.direction' repeats line 1",
            ),
            (
                "metric.f1.direction = higher\nmetric.f1.bounds = 0,1\n"
                "metric.nmi.direction = higher\nmetric.f1.bounds = 0,2\n",
                "registry line 4: 'metric.f1.bounds' repeats line 2",
            ),
            ("metric..direction = higher\n", "registry line 1: empty metric name in 'metric..direction'"),
            (
                "metric.f1.direction = higher\nmetric..bounds = 0,1\n",
                "registry line 2: empty metric name in 'metric..bounds'",
            ),
        ],
        ids=["direction twice", "same direction twice", "bounds twice", "empty name", "empty name bounds"],
    )
    def test_repeated_key_or_empty_name_rejected(self, text, message):
        with pytest.raises(ValidationError) as exc:
            parse_registry(text)
        assert str(exc.value) == message

    def test_bounds_without_direction(self):
        with pytest.raises(ValidationError, match="no direction"):
            parse_registry("metric.f1.bounds = 0,1\n")

    def test_inverted_bounds(self):
        with pytest.raises(ValidationError, match="lo < hi"):
            MetricSpec("x", Direction.HIGHER_BETTER, (1.0, 0.0))
