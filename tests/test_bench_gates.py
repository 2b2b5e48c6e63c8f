"""The benchmark gate rows against the committed ``BENCH_*.json`` files.

Runs no benchmark.  Every committed file must be covered by a bench's
gate table, every row must name a number the file holds, the file must
pass its committed-side rows, and every row must be live: a copy of the
committed value pushed just past the row's bound fails it.
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_regression  # noqa: E402
from gates import (  # noqa: E402
    ALL,
    COMMITTED,
    RECHECK,
    RULES,
    Gate,
    check,
    record,
    resolve,
)

TABLES = {bench.OUTPUT_PATH.name: bench.GATES
          for bench in bench_regression.BENCHES}
COMMITTED_FILES = sorted(path.name for path in ROOT.glob("BENCH_*.json"))


def _committed(name):
    return json.loads((ROOT / name).read_text())


def _just_past(rule, limit, value):
    """Values that sit just on the failing side of a resolved bound."""
    if rule in (">=", "<="):
        return [math.nextafter(limit, -math.inf if rule == ">=" else math.inf)]
    if rule in (">", "<"):
        return [limit]
    if rule == "band":
        low, high = limit
        return [math.nextafter(high, math.inf)] + (
            [math.nextafter(low, -math.inf)] if low > 0 else []
        )
    if rule == "==":
        if isinstance(value, dict):
            return [{**value, "pushed": 1}]
        return [math.nextafter(limit, math.inf)]
    if rule == "in":
        return ["".join(limit)]
    assert rule == "true"
    return [False]


def _assign(doc, path, value):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    if isinstance(doc, list):
        doc[int(last)] = value
    else:
        doc[last] = value


def test_every_committed_file_has_gate_rows():
    assert COMMITTED_FILES == sorted(TABLES)
    for name in COMMITTED_FILES:
        assert any(gate.on & COMMITTED for gate in TABLES[name]), name


@pytest.mark.parametrize("name", COMMITTED_FILES)
def test_every_row_path_resolves(name):
    committed = _committed(name)
    for gate in TABLES[name]:
        assert list(resolve(committed, gate.path)), gate.path
        bound_path = getattr(gate.bound, "path", None)
        if bound_path is not None:
            assert list(resolve(committed, bound_path)), bound_path


@pytest.mark.parametrize("name", COMMITTED_FILES)
def test_committed_file_passes_committed_rows(name):
    verdicts = check(TABLES[name], _committed(name), COMMITTED)
    assert verdicts
    assert [str(v) for v in verdicts if not v.passed] == []


@pytest.mark.parametrize("name", COMMITTED_FILES)
def test_value_pushed_past_bound_fails(name):
    """Every row, of every rule kind and side, is live.

    The committed file stands in for a fresh run and a re-measure (it
    holds every row); each matched value, pushed just past its resolved
    bound in a copy, must fail the row.
    """
    committed = _committed(name)
    for verdict in check(TABLES[name], committed, ALL):
        assert verdict.passed, str(verdict)
        for pushed in _just_past(
            verdict.gate.rule, verdict.limit, verdict.value
        ):
            doc = copy.deepcopy(committed)
            _assign(doc, verdict.path, pushed)
            again = check([verdict.gate], doc, ALL, committed)
            failed = [v for v in again if v.path == verdict.path]
            assert failed and not failed[0].passed, (
                f"{verdict.path} = {pushed!r} still passes "
                f"{verdict.gate.rule} {verdict.limit!r}"
            )


def test_every_rule_kind_is_used():
    used = {gate.rule for gates in TABLES.values() for gate in gates}
    assert used == set(RULES)


def test_fill_count_pins_the_pivot_order():
    """A changed Markowitz order changes the parametric fill count, and
    the re-measure gates that count exactly."""
    committed = _committed("BENCH_parametric.json")
    [gate] = [g for g in TABLES["BENCH_parametric.json"]
              if g.path == "fig4.fill_ops"]
    assert gate.rule == "==" and gate.on & RECHECK
    moved = copy.deepcopy(committed)
    moved["fig4"]["fill_ops"] += 1
    [verdict] = check([gate], moved, RECHECK, committed)
    assert not verdict.passed


def test_record_writes_only_a_passing_report(tmp_path):
    """A fresh run that fails a row leaves the baseline file as it was."""
    gates = [Gate("x", ">=", 1)]
    path = tmp_path / "BENCH_x.json"
    path.write_text("committed\n")
    assert record(gates, {"x": 0}, path) == ["x = 0 fails >= 1"]
    assert path.read_text() == "committed\n"
    assert record(gates, {"x": 2}, path) == []
    assert json.loads(path.read_text()) == {"x": 2}
