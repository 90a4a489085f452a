"""Work counts of the cached paths: calls are counted, never timed."""

from jstretch import groebner, ideals, lengths
from jstretch.ideals import AmbientRing, IdealHandle
from jstretch.poly import PolyRing
from jstretch.reductions import GeneralSampler, index_of_nilpotency, reduction_number, sample_reduction
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


def test_graded_length_runs_no_truncation(monkeypatch):
    case = build_case("rn2-mon-wide")
    I = case.ideal
    J = sample_reduction(I, GeneralSampler(1, case.ambient.ring.field)).J
    pairs = [(I**2, J * I), (I**2, J**2)]  # I2/JI is 1; In/Jn at n = 2 is INFINITE
    for big, small in pairs:
        assert big.is_homogeneous and small.is_homogeneous
        assert big.contains_locally(small)  # bases and the containment are cached before counting
    amb = AmbientRing(PolyRing(("x", "y")))
    x, y = amb.ring.variables()
    inhomogeneous = (amb.unit_ideal(), amb.ideal(x**2 - y, y**3))
    for X in inhomogeneous:
        X.gb
    monkeypatch.setattr(lengths, "_LENGTH_CACHE", {})
    gb_calls = _count_calls(monkeypatch, (groebner, ideals, lengths), "buchberger")
    truncations = _count_calls(monkeypatch, (lengths,), "truncated_colength")
    values = [lengths.quotient_length(big, small).value for big, small in pairs]
    assert values == [1, lengths.INFINITE]
    assert gb_calls == [] and truncations == []
    # an inhomogeneous length still truncates, so both counters are live
    assert lengths.quotient_length(*inhomogeneous).value == 6
    assert gb_calls and truncations


def test_stability_trials_never_saturate(monkeypatch):
    case = build_case("thickline", r=3)
    calls = _count_calls(monkeypatch, (IdealHandle,), "saturate")
    for quantity in ("In/Jn", "sJ"):
        rep = stability_trials(case.ideal, quantity, trials=3)
        assert len(rep.values) == 3
    assert calls == []


def test_analyze_still_saturates(monkeypatch):
    case = build_case("thickline", r=3)
    calls = _count_calls(monkeypatch, (IdealHandle,), "saturate")
    report = analyze(case.ideal, trials=1)
    assert report.r_J == 3
    assert calls


def test_points_p3_containments_need_no_element_colon(monkeypatch):
    # J is drawn over the five quadrics, so J is homogeneous and every
    # containment of the two searches is settled by a normal form and the
    # graded shortcut
    case = build_case("points-p3")
    rd = sample_reduction(case.ideal, GeneralSampler(1000, case.ambient.ring.field))
    rd.sat  # the saturation is built before counting starts
    calls = _count_calls(monkeypatch, (IdealHandle,), "_element_colon")
    assert reduction_number(rd) == 2
    assert index_of_nilpotency(rd) == 1
    assert calls == []


def test_saturate_makes_one_elimination_per_generator(monkeypatch):
    # k Rabinowitsch eliminations plus k - 1 intersections, at most
    case = build_case("noncm-curve", r=2)
    rd = sample_reduction(case.ideal, GeneralSampler(1000, case.ambient.ring.field))
    amb = build_case("thickline", r=3).ambient
    x, y, z = amb.ring.variables()
    pairs = [
        (rd.Jd1, rd.I),
        (amb.ideal(x * y), amb.ideal(x, y, z)),
        (amb.ideal(y**2), amb.ideal(y)),
    ]
    for A, B in pairs:
        A.gb, B.gb, A.ambient.zero_ideal().gb  # bases are built before counting starts
    monkeypatch.setattr(ideals, "_OP_CACHE", {})
    calls = _count_calls(monkeypatch, (groebner, ideals), "eliminate")
    for A, B in pairs:
        del calls[:]
        A.saturate(B)
        k = len(B.generators)
        assert 1 <= len(calls) <= 2 * k - 1


def test_rabinowitsch_elimination_forms_no_more_s_pairs(monkeypatch):
    # (J_{d-1} + (1 - u*x)) under elim(1): with the chain criterion tested at
    # pair-pop time, before the Gebauer-Moeller update, Buchberger formed 24
    # S-polynomials on this input
    case = build_case("noncm-curve", r=2)
    rd = sample_reduction(case.ideal, GeneralSampler(1000, case.ambient.ring.field))
    A = rd.Jd1
    f = A._colon_generating_set(rd.I)[0]
    assert str(f) == "x"
    A.gb  # built before counting starts
    calls = _count_calls(monkeypatch, (groebner,), "s_polynomial")
    assert len(A._element_saturation(f)) == 2
    assert len(calls) <= 24
