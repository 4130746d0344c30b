"""`tools/bench_pairs.py`'s claim verdict on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {"op_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25}}
CLAIM = ["freqdomain:op_p50_ms:0.15"]


def _runs(**sides):
    """One run per side and seed, ``sides`` mapping a side to its values."""
    return [{"side": side, "workload": "freqdomain", "seed": seed,
             "result": {"metrics": {"op_p50_ms": {"value": value}},
                        "failed": 0, "attempted": 24, "correct": 24}}
            for side, values in sides.items()
            for seed, value in enumerate(values, start=1)]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
CHANGE = [0.70, 0.71, 0.69, 0.72, 0.68, 0.70, 0.71, 0.69, 0.70, 0.70]


def _claim(sides, **runs):
    summary = bench_pairs.summarise(_runs(**runs), BOUNDS, CLAIM, sides)
    return summary["freqdomain"]["op_p50_ms"]["claim"]


def test_claim_met_beside_a_close_control():
    claim = _claim(("parent", "change", "control"), parent=PARENT,
                   change=CHANGE, control=[v * 1.05 for v in PARENT])
    assert claim["control_spread"] == pytest.approx(0.05)
    assert claim["met"]


def test_claim_not_met_when_the_control_reads_as_far():
    # the control, a copy of the parent, reads 35% apart: a 30% gap says
    # nothing, though every other condition holds
    claim = _claim(("parent", "change", "control"), parent=PARENT,
                   change=CHANGE, control=[v * 0.65 for v in PARENT])
    assert claim["median_gap"] > claim["parent_iqr_width"]
    assert not claim["met"]


def test_claim_without_a_control_is_unchanged():
    # the earlier rule alone: pairs won, the parent's IQR and the fraction
    sides = ("parent", "change")
    claim = _claim(sides, parent=PARENT, change=CHANGE)
    assert claim["control_spread"] == 0.0
    assert claim["met"]
    assert not _claim(sides, parent=PARENT,
                      change=[v * 0.9 for v in PARENT])["met"]


WIDE = [1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.2, 0.75, 1.1, 0.9]  # IQR/median 0.35


def _resolved(parent, change):
    summary = bench_pairs.summarise(_runs(parent=parent, change=change),
                                    BOUNDS, [], ("parent", "change"))
    return summary["freqdomain"]["op_p50_ms"]["resolved"]


def test_spread_wider_than_the_bound_is_unresolved():
    assert _resolved(PARENT, [v * 1.01 for v in PARENT])
    assert not _resolved(WIDE, [v * 1.01 for v in WIDE])
    assert not _resolved(WIDE, [v * 0.8 for v in WIDE])  # overlapping runs


def test_change_beating_every_parent_run_is_resolved():
    assert _resolved(WIDE, [v * min(WIDE) / max(WIDE) * 0.99 for v in WIDE])
