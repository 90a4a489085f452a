"""Work counts of the cached paths: calls are counted, never timed."""

from jstretch import groebner, ideals, lengths
from jstretch.ideals import IdealHandle
from jstretch.registry import build_case
from jstretch.report import analyze
from jstretch.speclab import stability_trials


def _count_calls(monkeypatch, owners, name):
    """Wrap owner.name for every owner, appending to one shared list per call."""
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_graded_colength_runs_no_buchberger(monkeypatch):
    case = build_case("rn2-mon-a")
    X = case.ideal**2
    X.gb  # the cached basis is built before counting starts
    monkeypatch.setattr(lengths, "_COLENGTH_CACHE", {})
    calls = _count_calls(monkeypatch, (groebner, ideals, lengths), "buchberger")
    for bound in (6, 10, 14):
        lengths.truncated_colength(X, bound)
    assert calls == []
    # the inhomogeneous branch still runs one per bound, so the counter is live
    lengths.truncated_colength(X, 6, homogeneous=False)
    assert len(calls) == 1


def test_stability_trials_never_saturate(monkeypatch):
    case = build_case("thickline", r=3)
    calls = _count_calls(monkeypatch, (IdealHandle,), "saturate")
    rep = stability_trials(case.ideal, "In/Jn", trials=3)
    assert len(rep.values) == 3
    assert calls == []


def test_analyze_still_saturates(monkeypatch):
    case = build_case("thickline", r=3)
    calls = _count_calls(monkeypatch, (IdealHandle,), "saturate")
    report = analyze(case.ideal, trials=1)
    assert report.r_J == 3
    assert calls
