"""Failure witnesses of the exhaustive sweep: each check, its row, its order."""

import json

import pytest

import schubsing.slices
import schubsing.sweep
from schubsing.cli import main
from schubsing.components import QuadricComponent, RectangleComponent, _Quadric
from schubsing.perms import make_permutation
from schubsing.slices import SliceVerdict
from schubsing.sweep import verify_all


class _ShiftedExcess(RectangleComponent):
    """A 4231 component whose family formula gives one tangent direction too many."""

    @property
    def excess(self):
        return self.l * self.m + 1


def _plant_one_failure_per_check(monkeypatch):
    """On S_4: smoothness at 1243, kl and slice-structure at 3412, formulas and slice at 4231.

    The shifted excess of 4231's component also moves the slice's expected
    tangent dimension, so its slice note opens with the tangent check.
    """
    real_is_smooth = schubsing.sweep.is_smooth
    flipped = make_permutation([1, 2, 4, 3])
    monkeypatch.setattr(
        schubsing.sweep, "is_smooth", lambda w: real_is_smooth(w) != (w == flipped)
    )
    real_enumerate = schubsing.sweep.enumerate_components
    monkeypatch.setattr(
        schubsing.sweep,
        "enumerate_components",
        lambda w: [
            _ShiftedExcess(c.v, c.l, c.m) if isinstance(c, RectangleComponent) else c
            for c in real_enumerate(w)
        ],
    )
    monkeypatch.setattr(QuadricComponent, "kl_closed_form", lambda self: (1, 0, 1))
    monkeypatch.setattr(_Quadric, "sample", lambda self, rng: (1,) * self.size)
    monkeypatch.setattr(schubsing.slices, "_membership", lambda model: lambda point: False)


PLANTED = [
    ("1,2,4,3", None, "smoothness", "pattern False, tangent True"),
    ("3,4,1,2", "1,3,2,4", "kl", "closed form [1, 0, 1] != recursion [1, 1]"),
    ("3,4,1,2", "1,3,2,4", "slice-structure",
     "cone sampler violated its own equation for (1, 3, 2, 4)"),
    ("4,2,3,1", "2,1,4,3", "formulas", "type 4231 double equalities fail"),
    ("4,2,3,1", "2,1,4,3", "slice",
     "tangent: 4 free coordinates, expected 5; "
     "containment: cone point (-6, -8, -15, -20) escapes X_w"),
]


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_check_names_its_failure(monkeypatch, jobs):
    """One planted failure per check gives exactly these rows, in this order."""
    _plant_one_failure_per_check(monkeypatch)
    report = verify_all(4, jobs=jobs)
    rows = [(x["w"], x["v"], x["check"], x["detail"]) for x in report["failure_witnesses"]]
    assert rows == PLANTED
    assert report["failures"] == len(PLANTED) and report["ok"] is False


def test_each_planted_slice_verdict_is_ok_exactly_when_it_has_no_failure(monkeypatch):
    _plant_one_failure_per_check(monkeypatch)
    verdicts = []
    real = schubsing.sweep.verify_slice

    def recorded(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(schubsing.sweep, "verify_slice", recorded)
    verify_all(4)
    assert any(v.failures for v in verdicts)
    for verdict in verdicts:
        assert verdict.ok == (not verdict.failures), verdict.failures


def test_an_ok_rule_ignoring_the_failures_is_caught(mutate, monkeypatch):
    mutate(SliceVerdict, "ok", "return not self.failures", "return True")
    with pytest.raises(AssertionError):
        test_each_planted_slice_verdict_is_ok_exactly_when_it_has_no_failure(monkeypatch)


def test_report_of_a_planted_failure_exits_1(monkeypatch, capsys):
    _plant_one_failure_per_check(monkeypatch)
    for w in ("1243", "3412", "4231"):
        assert main(["report", w]) == 1
    assert main(["report", "2143"]) == 0
    capsys.readouterr()


def _extra(c, w, trials, seed):
    return {"extra_ok": False}, [("extra", f"planted on {c.ctype}")]


def test_an_added_component_check_reaches_records_and_witnesses(monkeypatch, capsys):
    """The component check list is the one place a check is named."""
    checks = (*schubsing.sweep._COMPONENT_CHECKS, _extra)
    monkeypatch.setattr(schubsing.sweep, "_COMPONENT_CHECKS", checks)
    assert main(["report", "4231"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert [(e["v"], e["kl_ok"], e["extra_ok"]) for e in record["components"]] == [
        ("2,1,4,3", True, False)
    ]
    rows = [(x["w"], x["v"], x["check"], x["detail"]) for x in verify_all(4)["failure_witnesses"]]
    assert rows == [
        ("3,4,1,2", "1,3,2,4", "extra", "planted on 3412*"),
        ("4,2,3,1", "2,1,4,3", "extra", "planted on 4231"),
    ]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n", [0, -1, 10])
def test_verify_all_refuses_n_out_of_range_before_any_work(monkeypatch, n, jobs):
    """The group's range check fires before any chunk is built or any worker starts."""

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_work)
    monkeypatch.setattr(schubsing.sweep, "_verify_chunk", no_work)
    with pytest.raises(ValueError, match=f"n must be between 1 and 9, got {n}$"):
        verify_all(n, jobs=jobs)
