import pytest

from jstretch.analysis import (
    AssertedHypotheses,
    almost_cm_check,
    classify,
    cm_prediction,
    fixed_reduction_test,
    hilbert_K,
    is_j_stretched,
    nu_sequence,
    properties_audit,
    sally_condition,
    stretched_test,
    type_and_codim,
    vv_equalities,
)
from jstretch.errors import NotMPrimary
from jstretch.ideals import AmbientRing
from jstretch.poly import PolyRing
from jstretch.reductions import GeneralSampler, sample_reduction
from jstretch.registry import build_case
from jstretch.report import (
    Provenance,
    analyze,
    mode,
    render_human,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
)


def make_rd(case_id, seed=1, **kw):
    case = build_case(case_id, **kw)
    return case, sample_reduction(case.ideal, GeneralSampler(seed, case.ambient.ring.field))


def test_j_stretched_examples():
    _, rd = make_rd("quartic-monomial")
    verdict, length = is_j_stretched(rd)
    assert verdict and length == 1
    _, rd = make_rd("thickline", r=3)
    assert is_j_stretched(rd) == (True, 1)


def test_minimal_case_is_stretched_with_length_zero():
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    rd = sample_reduction(amb.ideal(*ring.variables()), GeneralSampler(2))
    assert is_j_stretched(rd) == (True, 0)
    flags = classify(rd)
    assert flags.minimal_j and flags.almost_minimal_j and flags.almost_almost_minimal_j


def test_classification_thresholds():
    _, rd = make_rd("thickline", r=4)
    flags = classify(rd)
    assert flags.j_stretched
    assert not flags.minimal_j and not flags.almost_minimal_j and not flags.almost_almost_minimal_j
    _, rd = make_rd("semigroup-345")
    flags = classify(rd)
    assert flags.almost_minimal_j and not flags.minimal_j


def test_nu_sequence_thickline():
    _, rd = make_rd("thickline", r=3)
    nu, nubar = nu_sequence(rd)
    assert nu == (3, 2, 1, 0)
    assert nubar[1] == nu[1]
    assert all(nubar[i] <= nu[i] for i in range(len(nu)))
    assert nu[1] == hilbert_K(rd) - 1


def test_nu_sequence_reduction_number_zero():
    _, rd = make_rd("non-g2", t=0)
    nu, nubar = nu_sequence(rd)
    assert len(nu) == 1  # only nu_0 = lambda(I/J)


def test_properties_audit_thickline():
    _, rd = make_rd("thickline", r=3)
    audit = properties_audit(rd)
    assert audit.items == {"a": True, "b": True, "c": True, "d": True}
    assert len(audit.witness) == 2 and len(audit.witness_strings()) == 2


def test_intersection_decomposition_with_audit_witness():
    # J cap I^{n+1} = J I^n + (a^K b) locally for 0 <= n <= K, with the
    # audit's spanning pair
    from jstretch.reductions import index_of_nilpotency

    _, rd = make_rd("thickline", r=3)
    a, b = properties_audit(rd).witness
    K = index_of_nilpotency(rd)
    top = rd.ambient.ideal(a**K * b)
    for n in range(K + 1):
        lhs = rd.J.intersect(rd.Ipow(n + 1))
        assert lhs.locally_equal(rd.JIpow(n) + top)


def test_properties_audit_rejects_minimal():
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    rd = sample_reduction(amb.ideal(*ring.variables()), GeneralSampler(3))
    with pytest.raises(ValueError):
        properties_audit(rd)


def test_vv_equalities():
    _, rd = make_rd("thickline", r=2)
    report = vv_equalities(rd, 2)
    assert report.equalities[0]  # t = 0 always: J cap I = J
    assert report.biconditional_ok
    _, rd = make_rd("semigroup-345")
    report = vv_equalities(rd, 1)
    # J cap I^2 != JI here, and I^{K+1} = I^2 is not inside J*I
    assert report.equalities == (True, False)
    assert not report.containment
    assert report.biconditional_ok


def test_cm_prediction_statuses():
    case, rd = make_rd("thickline", r=2)
    verdict = cm_prediction(rd, case.asserted)
    assert verdict.predicted_cm and verdict.status == "ASSERTED" and not verdict.missing
    case, rd = make_rd("non-g2", t=0)
    verdict = cm_prediction(rd, case.asserted)
    assert verdict.predicted_cm  # r = K = 0: numerically CM-looking
    assert verdict.status == "CONDITIONAL"
    assert "G_d" in verdict.missing


def test_sally_condition():
    case, rd = make_rd("thickline", r=3)
    got = sally_condition(rd, case.asserted)
    assert got.p == 2 and got.min_depth == 0 and got.status == "ASSERTED"
    case, rd = make_rd("non-g2", t=0)
    got = sally_condition(rd, case.asserted)
    assert got.p == 1  # reduction number zero: trivially satisfied


def test_almost_cm_check():
    case, rd = make_rd("thickline", r=3)
    got = almost_cm_check(rd, case.asserted)
    assert got.containment and got.length_is_one and got.biconditional_ok
    case, rd = make_rd("semigroup-345")
    got = almost_cm_check(rd, case.asserted)
    # K = 1: I^2 inside J and lambda(I/J) = 1 agree
    assert got.containment and got.length_is_one and got.biconditional_ok


def test_type_and_codim():
    _, rd = make_rd("thickline", r=3)
    st = type_and_codim(rd)
    assert st.tau == 1 and st.h == 1 and st.colength == 1
    assert not st.applicable  # 1 < 1 + 1 - 1 fails
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    rd = sample_reduction(amb.ideal(*ring.variables()), GeneralSampler(4))
    assert type_and_codim(rd).tau == 0  # J = I case


def test_stretched_test():
    _, rd = make_rd("semigroup-345")
    got = stretched_test(rd)
    assert not got.value
    assert not got.intersection_ok  # J cap I^2 strictly exceeds JI
    assert got.hf2 <= 1
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    rd = sample_reduction(amb.ideal(*ring.variables()), GeneralSampler(5))
    assert stretched_test(rd).value  # maximal ideal of a regular ring


def test_stretched_requires_m_primary():
    _, rd = make_rd("thickline", r=2)
    with pytest.raises(NotMPrimary):
        stretched_test(rd)


def test_stretched_implies_j_stretched():
    # the forward direction holds on every m-primary input we can build
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    x, y = ring.variables()
    for gens in [(x, y), (x**2, y**3), (x**2 + y, y**2)]:
        I = amb.ideal(*gens)
        rd = sample_reduction(I, GeneralSampler(6))
        if stretched_test(rd).value:
            assert is_j_stretched(rd)[0]


def test_fixed_reduction_test():
    case, _ = make_rd("semigroup-345")
    a, b, c = case.ambient.ring.variables()
    rd = sample_reduction(case.ideal, GeneralSampler(1, case.ambient.ring.field))
    got = fixed_reduction_test(case.ideal, case.ambient.ideal(a), rd)
    assert got.length <= 1 and got.implies_j_stretched
    assert got.agrees_with_general
    # feeding a sampled general reduction back in agrees with the direct test
    case, rd = make_rd("quartic-monomial")
    got = fixed_reduction_test(case.ideal, rd.J, rd)
    assert got.length <= 1 and got.agrees_with_general
    # complete intersection: H = I gives length 0
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    I = amb.ideal(*ring.variables())
    got = fixed_reduction_test(I, I)
    assert got.length == 0
    with pytest.raises(ValueError):
        fixed_reduction_test(I, amb.ideal(ring.variable(0)))


def test_analyze_majority_and_roundtrip():
    case = build_case("thickline", r=2)
    report = analyze(case.ideal, asserted=case.asserted, seed=3, trials=3)
    assert report.r_J == 2 and report.s_J == 2
    assert report.provenance.trials == 3
    again = report_from_json(report_to_json(report))
    assert again == report
    # thawing leaves its input alone, so the same dict thaws twice
    data = report_to_dict(report)
    assert report_from_dict(data) == report
    assert report_from_dict(data) == report
    assert isinstance(report_from_dict(data).provenance, Provenance)
    text = render_human(report)
    for token in ("r_J = 2", "s_J = 2", "j_mult = 3"):
        assert token in text


def test_mode_earliest_value_wins_ties():
    assert mode([1, 2, 2, 1]) == (1, 2)
    assert mode([3, 1, 1]) == (1, 2)
    assert mode(["b", "a"]) == ("b", 1)
    # unhashable values are compared, never hashed
    assert mode([[1], [2], [2]]) == ([2], 2)
    assert mode([{"a": 1}, {"b": 2}, {"a": 1}]) == ({"a": 1}, 2)


def test_assert_hypotheses_missing_list():
    asserted = AssertedHypotheses(G_d=True)
    missing = asserted.missing(1)
    assert "AN_minus" in missing and any(m.startswith("depth_RI") for m in missing)
    full = AssertedHypotheses(G_d=True, AN_minus=True, depth_RI=1)
    assert full.missing(1) == ()
    assert full.missing(0) == ()
