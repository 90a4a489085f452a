import pytest

from oracles import membership_oracle

from jstretch.errors import CapExceeded
from jstretch.ideals import AmbientRing
from jstretch.lengths import quotient_length
from jstretch.poly import PolyRing
from jstretch.reductions import (
    GeneralSampler,
    essential_generators,
    index_of_nilpotency,
    j_multiplicity,
    max_spread_check,
    reduction_number,
    sample_reduction,
)
from jstretch.registry import build_case

# the 17 registry cases the suite and the benchmark run
REGISTRY_CASES = (
    [("thickline", {"r": r}) for r in (2, 3, 4)]
    + [("noncm-curve", {"r": r}) for r in (2, 3)]
    + [(cid, {}) for cid in ("mixed-monomial-a", "mixed-monomial-b", "quartic-monomial")]
    + [(cid, {}) for cid in ("points-p2", "points-p3", "semigroup-345")]
    + [(cid, {}) for cid in ("rn2-mon-a", "rn2-mon-b", "rn2-mon-c", "rn2-mon-wide")]
    + [("non-g2", {"t": t}) for t in (0, 1)]
)


def thickline(r=3):
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.variables()
    amb = AmbientRing(ring, (x ** (r + 1), x * z, y * z))
    return amb, amb.ideal(x, y)


def test_sampler_determinism():
    amb, I = thickline()
    rd1 = sample_reduction(I, GeneralSampler(7))
    rd2 = sample_reduction(I, GeneralSampler(7))
    assert rd1 == rd2
    assert rd1.lam == rd2.lam
    rd3 = sample_reduction(I, GeneralSampler(8))
    assert rd1.lam != rd3.lam


def test_sampler_rows_nonzero():
    sampler = GeneralSampler(3)
    for _ in range(20):
        assert any(sampler.row(4))


def test_thickline_invariants():
    amb, I = thickline(3)
    x, y, z = amb.ring.variables()
    rd = sample_reduction(I, GeneralSampler(1))
    assert max_spread_check(rd)
    assert rd.sat == amb.ideal(x**4, z)
    assert reduction_number(rd) == 3
    assert index_of_nilpotency(rd) == 3
    j = j_multiplicity(rd)
    assert int(j) == 4 and j.split == (2, 2)


def test_two_generated_ideal_has_reduction_number_zero():
    # I generated by d = 2 elements: any two general combinations span it
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.variables()
    amb = AmbientRing(ring, (x**3 - x**2 * y,))
    I = amb.ideal(x, z)
    rd = sample_reduction(I, GeneralSampler(2))
    assert max_spread_check(rd)
    assert reduction_number(rd) == 0
    assert index_of_nilpotency(rd) == 0


def test_s_at_most_r_across_examples():
    for r in (1, 2, 3):
        amb, I = thickline(r)
        rd = sample_reduction(I, GeneralSampler(4))
        assert index_of_nilpotency(rd) <= reduction_number(rd)


def test_minimal_j_forces_small_reduction_number():
    # lambda(Ibar^2/x_d Ibar) = 0 implies r <= 1
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    I = amb.ideal(*ring.variables())
    rd = sample_reduction(I, GeneralSampler(5))
    assert max_spread_check(rd)
    lam = quotient_length(rd.Ibarpow(2), rd.xd_bar * rd.Ibar)
    assert lam.value == 0
    assert reduction_number(rd) <= 1
    assert int(j_multiplicity(rd)) == 1


def test_spread_failure_detected():
    # I = (x) in k[x,y] has analytic spread 1 < d = 2
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    I = amb.ideal(ring.variable(0))
    rd = sample_reduction(I, GeneralSampler(6))
    assert not max_spread_check(rd)
    with pytest.raises(ValueError):
        reduction_number(rd)


def test_zero_ideal_not_spread():
    ring = PolyRing(("x",))
    amb = AmbientRing(ring)
    rd = sample_reduction(amb.zero_ideal(), GeneralSampler(1))
    assert not max_spread_check(rd)


def test_search_cap():
    amb, I = thickline(3)
    rd = sample_reduction(I, GeneralSampler(1))
    with pytest.raises(CapExceeded):
        reduction_number(rd, cap=1)


def test_semigroup_power_containment_oracle():
    # In k[[t^3,t^4,t^5]] with I = (t^3,t^4) and J = (unit * t^3):
    # I^2 = (t^6,t^7,t^8) and t^{3+k} in J for k in {3,4,5}, so I^2 lies in J
    # while t^4 does not; the index of nilpotency is exactly 1.
    ring = PolyRing(("a", "b", "c"))
    a, b, c = ring.variables()
    amb = AmbientRing(ring, (b**2 - a * c, c**2 - a**2 * b, a**3 - b * c))
    I = amb.ideal(a, b)
    rd = sample_reduction(I, GeneralSampler(1))
    assert rd.J.contains_locally(I**2)
    assert not rd.J.contains_locally(I)
    assert index_of_nilpotency(rd) == 1
    assert reduction_number(rd) == 2


def test_seed_stability_of_invariants():
    amb, I = thickline(2)
    values = set()
    for seed in range(1, 6):
        rd = sample_reduction(I, GeneralSampler(seed))
        values.add((reduction_number(rd), index_of_nilpotency(rd), int(j_multiplicity(rd))))
    assert values == {(2, 2, 3)}


@pytest.mark.parametrize(
    "cid, kw",
    REGISTRY_CASES,
    ids=[cid + "".join(f"-{k}{v}" for k, v in kw.items()) for cid, kw in REGISTRY_CASES],
)
def test_draw_over_essential_generators(cid, kw):
    case = build_case(cid, **kw)
    I = case.ideal
    ring = case.ambient.ring
    relations = list(case.ambient.relations)
    kept = essential_generators(I)
    rest = iter(I.generators)
    assert all(any(g == h for h in rest) for g in kept), "kept list is not a subsequence"
    assert case.ambient.ideal(kept) == I
    for g in I.generators:
        if g in kept:
            continue
        lower = [h for h in kept if h.degree < g.degree]
        cofactor_degree = g.degree - min(h.degree for h in lower)
        assert membership_oracle(ring, g, lower + relations, cofactor_degree)
    rd = sample_reduction(I, GeneralSampler(1, ring.field))
    if cid == "points-p3":
        # the Groebner basis of the points lists a cubic in m*(quadrics)
        assert [g.degree for g in kept] == [2] * 5
        assert rd.J.is_homogeneous
    else:
        assert kept == I.generators
        sampler = GeneralSampler(1, ring.field)
        assert rd.lam == tuple(sampler.row(len(I.generators)) for _ in range(rd.d))
