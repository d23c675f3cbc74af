import math

import pytest

from oracles import table_of
from rankbench.results import (
    Direction,
    MetricSpec,
    ResultRecord,
    Status,
    ValidationError,
    ingest,
    parse_registry,
    registry_to_text,
    resolve_failures,
    to_csv,
)

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
    table = ingest(MINIMAL_CSV, "csv", REGISTRY)
    assert table.n_algorithms == 2
    assert table.n_seeds == 2
    assert len(table.suite) == 1
    assert table.algorithms == ("a", "b")


def test_missing_cell_is_named():
    truncated = "\n".join(MINIMAL_CSV.splitlines()[:-1]) + "\n"
    with pytest.raises(ValidationError, match=r"algorithm=b.*seed=1"):
        ingest(truncated, "csv", REGISTRY)


def test_duplicate_key_rejected():
    dup = MINIMAL_CSV + "b,cora,f1,1,0.35,ok\n"
    with pytest.raises(ValidationError, match="duplicate"):
        ingest(dup, "csv", REGISTRY)


def test_unknown_metric_rejected():
    with pytest.raises(ValidationError, match="unknown metric"):
        ingest(MINIMAL_CSV.replace("f1", "nmi"), "csv", REGISTRY)


def test_bad_header_rejected():
    with pytest.raises(ValidationError, match="header"):
        ingest(MINIMAL_CSV.replace("algorithm", "alg"), "csv", REGISTRY)


def test_ok_row_requires_value():
    bad = MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,ok")
    with pytest.raises(ValidationError, match="status ok requires a value"):
        ingest(bad, "csv", REGISTRY)


def test_value_outside_bounds_rejected():
    bad = MINIMAL_CSV.replace("0.6", "1.5")
    with pytest.raises(ValidationError, match="bounds"):
        ingest(bad, "csv", REGISTRY)


# "loss" is unbounded, so no bounds check applies to its values.
LOSS_CSV = MINIMAL_CSV.replace("f1", "loss")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_ok_value_rejected(value):
    bad = LOSS_CSV.replace("b,cora,loss,1,0.3,ok", f"b,cora,loss,1,{value},ok")
    message = rf"record \('b', 'cora', 'loss', 1\): non-finite value {value}$"
    with pytest.raises(ValidationError, match=message):
        ingest(bad, "csv", REGISTRY)


def test_failed_cell_may_carry_infinity():
    csv_text = LOSS_CSV.replace("b,cora,loss,1,0.3,ok", "b,cora,loss,1,inf,oom")
    table = ingest(csv_text, "csv", REGISTRY)
    resolved = to_csv(resolve_failures(table))
    assert "b,cora,loss,1,inf,oom" in resolved.splitlines()
    assert to_csv(ingest(resolved, "csv", REGISTRY)) == resolved


def test_to_csv_writes_key_order_and_empty_failed_scores():
    shuffled = (
        "algorithm,dataset,metric,seed,value,status\n"
        "b,cora,loss,1,,timeout\n"
        "a,cora,loss,1,-0.0,ok\n"
        "b,cora,loss,0,0.3,ok\n"
        "a,cora,loss,0,1e-300,ok\n"
    )
    assert to_csv(ingest(shuffled, "csv", REGISTRY)).splitlines() == [
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
    table = ingest(csv_text, "csv", REGISTRY)
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
    import json

    via_json = ingest(json.dumps(items), "json", REGISTRY)
    via_csv = ingest(MINIMAL_CSV, "csv", REGISTRY)
    assert to_csv(via_json) == to_csv(via_csv)


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
    assert table.n_seeds == 10


def test_round_trip_stability():
    table = ingest(MINIMAL_CSV, "csv", REGISTRY)
    again = ingest(to_csv(table), "csv", REGISTRY)
    assert to_csv(again) == to_csv(table)
    assert again.suite == table.suite


def test_row_order_independence():
    lines = MINIMAL_CSV.splitlines()
    shuffled = "\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n"
    assert to_csv(ingest(shuffled, "csv", REGISTRY)) == to_csv(ingest(MINIMAL_CSV, "csv", REGISTRY))


def test_drop_incomplete_removes_whole_test():
    two_tests = MINIMAL_CSV + (
        "a,cora,conductance,0,0.1,ok\n"
        "a,cora,conductance,1,0.2,ok\n"
        "b,cora,conductance,0,0.3,ok\n"
    )  # conductance test misses (b, seed 1)
    table = ingest(two_tests, "csv", REGISTRY, drop_incomplete=True)
    assert [t.metric for t in table.suite] == ["f1"]
    with pytest.raises(ValidationError, match="incomplete"):
        ingest(two_tests, "csv", REGISTRY)


class TestResolveFailures:
    def test_bounded_metric_gets_worst_endpoint(self):
        csv_text = MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,oom")
        table = resolve_failures(ingest(csv_text, "csv", REGISTRY))
        assert table.values[0, 1, 1] == 0.0  # (cora/f1, seed 1, b)

    def test_lower_better_bounded_gets_upper_endpoint(self):
        csv_text = MINIMAL_CSV.replace("f1", "conductance").replace(
            "b,cora,conductance,1,0.3,ok", "b,cora,conductance,1,,timeout"
        )
        table = resolve_failures(ingest(csv_text, "csv", REGISTRY))
        assert table.values[0, 1, 1] == 1.0  # (cora/conductance, seed 1, b)

    def test_unbounded_sentinel_strictly_worse(self):
        csv_text = (
            "algorithm,dataset,metric,seed,value,status\n"
            "a,cora,loss,0,0.2,ok\n"
            "b,cora,loss,0,0.5,ok\n"
            "c,cora,loss,0,,error\n"
        )
        table = resolve_failures(ingest(csv_text, "csv", REGISTRY))
        sentinel = table.values[0, 0, 2]  # (cora/loss, seed 0, c)
        assert sentinel == math.inf  # no bound: worse than any finite score

    def test_two_failures_tie(self):
        csv_text = (
            "algorithm,dataset,metric,seed,value,status\n"
            "a,cora,loss,0,0.2,ok\n"
            "b,cora,loss,0,,oom\n"
            "c,cora,loss,0,,oom\n"
        )
        table = resolve_failures(ingest(csv_text, "csv", REGISTRY))
        b, c = table.values[0, 0, 1:]
        assert b == c

    def test_idempotent_and_ok_untouched(self):
        csv_text = MINIMAL_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,oom")
        once = resolve_failures(ingest(csv_text, "csv", REGISTRY))
        twice = resolve_failures(once)
        assert to_csv(once) == to_csv(twice)
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

    def test_round_trip(self):
        reg = parse_registry(registry_to_text(REGISTRY))
        assert reg == REGISTRY

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

    def test_bounds_without_direction(self):
        with pytest.raises(ValidationError, match="no direction"):
            parse_registry("metric.f1.bounds = 0,1\n")

    def test_inverted_bounds(self):
        with pytest.raises(ValidationError, match="lo < hi"):
            MetricSpec("x", Direction.HIGHER_BETTER, (1.0, 0.0))
