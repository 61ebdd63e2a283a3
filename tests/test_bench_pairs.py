"""The summary arithmetic of tools/bench_pairs.py, on hand-made result lines."""
import importlib.util
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("_bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "pass_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def _line(pass_s, ops_per_s, failed=0):
    """A run.py result line with the two metrics."""
    return {"metrics": {"pass_s": {"value": pass_s}, "ops_per_s": {"value": ops_per_s}},
            "correct": not failed, "failed": failed}


def test_summarise_counts_wins_in_each_metrics_direction():
    bp = _bench_pairs()
    pairs = [(_line(1.0, 10.0), _line(0.5, 20.0)),    # change better in both
             (_line(1.0, 10.0), _line(2.0, 5.0)),     # parent better in both
             (_line(1.0, 10.0), _line(1.0, 10.0)),    # a tie counts for neither
             (_line(2.0, 10.0), _line(1.0, 12.0))]    # change better in both
    got = bp.summarise(pairs, METRICS)
    assert got["pairs"] == 4
    # lower is better for pass_s, higher for ops_per_s
    assert got["pass_s"]["change_wins"] == 2
    assert got["ops_per_s"]["change_wins"] == 2
    # medians: pass_s 1.0 -> 1.0, ops_per_s 10.0 -> 11.0
    assert got["pass_s"]["median_change_frac"] == 0.0
    assert got["ops_per_s"]["median_change_frac"] == pytest.approx(0.1)
    assert got["pass_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.75, "n": 4}
    assert got["correct"] and got["failed"] == {"parent": 0, "change": 0}


def test_summarise_reports_failures_and_a_falling_median():
    bp = _bench_pairs()
    pairs = [(_line(0.4, 25.0), _line(0.3, 30.0, failed=1)),
             (_line(0.5, 20.0), _line(0.3, 30.0))]
    got = bp.summarise(pairs, METRICS)
    # pass_s median 0.45 -> 0.3
    assert got["pass_s"]["median_change_frac"] == pytest.approx(-1 / 3, abs=1e-4)
    assert got["pass_s"]["change_wins"] == 2 and got["ops_per_s"]["change_wins"] == 2
    assert not got["correct"] and got["failed"] == {"parent": 0, "change": 1}


def test_summarise_traced_keeps_metrics_nonzero_somewhere():
    bp = _bench_pairs()
    pairs = [(_line(1.0, 0.0), _line(0.0, 0.0)) for _ in range(5)]
    got = bp.summarise_traced(pairs)
    assert set(got) == {"parent", "change"}
    assert set(got["parent"]) == set(got["change"]) == {"pass_s"}
    assert got["parent"]["pass_s"]["median"] == 1.0 and got["change"]["pass_s"]["n"] == 5


def test_host_bytecode_records_the_variable_and_each_pycache(tmp_path, monkeypatch):
    bp = _bench_pairs()
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    (sides["parent"] / "src" / "delpezzo" / "__pycache__").mkdir(parents=True)
    (sides["change"] / "src" / "delpezzo").mkdir(parents=True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bp.host_bytecode(sides) == {"PYTHONDONTWRITEBYTECODE": "1",
                                       "pycache": {"parent": True, "change": False}}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    (sides["change"] / "src" / "delpezzo" / "__pycache__").mkdir()
    assert bp.host_bytecode(sides) == {"PYTHONDONTWRITEBYTECODE": None,
                                       "pycache": {"parent": True, "change": True}}
