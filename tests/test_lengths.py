import random

import pytest

from oracles import monomial_quotient_length, monomials_up_to, staircase_count

from jstretch.errors import NotLocallyContained
from jstretch.groebner import buchberger
from jstretch.ideals import AmbientRing
from jstretch.lengths import (
    INFINITE,
    count_standard_below,
    hilbert_function,
    is_m_primary,
    quotient_length,
    truncated_colength,
)
from jstretch.poly import PolyRing
from jstretch.reductions import GeneralSampler, sample_reduction
from jstretch.registry import build_case


@pytest.fixture
def kxy():
    return AmbientRing(PolyRing(("x", "y")))


def test_zero_quotient(kxy):
    x, y = kxy.ring.variables()
    A = kxy.ideal(x**2, y)
    assert quotient_length(A, A).value == 0


def test_plane_quotient_lengths(kxy):
    x, y = kxy.ring.variables()
    got = quotient_length(kxy.ideal(x, y) ** 2, kxy.ideal(y**2, x * y, x**4))
    assert got.value == 2
    assert quotient_length(kxy.unit_ideal(), kxy.ideal(x, y) ** 2).value == 3
    assert quotient_length(kxy.unit_ideal(), kxy.ideal(x, y) ** 3).value == 6


def test_precondition(kxy):
    x, y = kxy.ring.variables()
    with pytest.raises(NotLocallyContained):
        quotient_length(kxy.ideal(x), kxy.ideal(y))


def test_unchecked_call_does_not_bypass_a_later_check(kxy):
    x, y = kxy.ring.variables()
    quotient_length(kxy.ideal(x), kxy.ideal(y), check=False)
    with pytest.raises(NotLocallyContained):
        quotient_length(kxy.ideal(x), kxy.ideal(y))


def test_infinite_is_a_result(kxy):
    x, y = kxy.ring.variables()
    got = quotient_length(kxy.unit_ideal(), kxy.ideal(x))
    assert got.value == INFINITE
    assert not got.is_finite
    with pytest.raises(ValueError):
        int(got)


def test_zero_length_iff_local_containment(kxy):
    x, y = kxy.ring.variables()
    A = kxy.ideal(x**2, x * y)
    B = kxy.ideal(x)
    # A/B zero iff A inside B locally
    assert B.contains_locally(A)
    assert quotient_length(B, A).value == (0 if A.contains_locally(B) else 1)


def test_additivity_on_chain():
    ring = PolyRing(("x", "y", "z"))
    amb = AmbientRing(ring, (ring.parse("x^4"), ring.parse("x*z"), ring.parse("y*z")))
    x, y, z = ring.variables()
    I = amb.ideal(x, y)
    J = amb.ideal(y)
    JI = J * I
    mid = J.intersect(I**2)
    top = I**2
    a = quotient_length(top, mid, check=False)
    b = quotient_length(mid, JI, check=False)
    c = quotient_length(top, JI, check=False)
    assert a.is_finite and b.is_finite and c.is_finite
    assert c.value == a.value + b.value


def test_staircase_counter_against_enumeration():
    rng = random.Random(29)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 5) for _ in range(nvars)) for _ in range(rng.randint(0, 5))]
        bound = rng.randint(1, 8)
        assert count_standard_below(gens, bound, nvars) == staircase_count(gens, bound, nvars)


def _explicit_colength(handle, bound):
    """dim_k S/(X + H + m^bound): a fresh basis with every monomial of
    degree bound adjoined, then its standard monomials below bound."""
    ring = handle.ambient.ring
    boundary = [
        ring.from_exp_terms([(e, 1)]) for e in monomials_up_to(ring.nvars, bound) if sum(e) == bound
    ]
    gens = list(handle.generators) + list(handle.ambient.relations) + boundary
    gb = buchberger(gens, degree_cap=10**6)
    return staircase_count([ring.decode(g.lm) for g in gb], bound, ring.nvars)


def _random_form(ring, rng, degree):
    exps = [e for e in monomials_up_to(ring.nvars, degree) if sum(e) == degree]
    terms = [(rng.choice(exps), rng.randrange(1, ring.field.p)) for _ in range(rng.randint(1, 4))]
    return ring.from_exp_terms(terms)


def test_graded_colength_matches_explicit_construction():
    rng = random.Random(31)
    for names in (("x", "y"), ("x", "y", "z")):
        amb = AmbientRing(PolyRing(names))
        for _ in range(8):
            gens = [_random_form(amb.ring, rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
            X = amb.ideal([g for g in gens if not g.is_zero])
            for bound in (5, 6, 8):
                assert truncated_colength(X, bound) == _explicit_colength(X, bound)
    for example, r in (("thickline", 3), ("rn2-mon-a", None), ("mixed-monomial-a", None), ("points-p2", None)):
        case = build_case(example, r=r)
        I = case.ideal
        J = sample_reduction(I, GeneralSampler(1, case.ambient.ring.field)).J
        for X in (I**2, J**2, J * I):
            assert X.is_homogeneous
            for bound in (6, 10, 14):
                assert truncated_colength(X, bound) == _explicit_colength(X, bound)


def test_graded_colength_rejects_inhomogeneous_ideal(kxy):
    x, y = kxy.ring.variables()
    with pytest.raises(ValueError):
        truncated_colength(kxy.ideal(x**2 - y), 6)


def test_quotient_length_against_monomial_oracle():
    ring = PolyRing(("x", "y", "z"))
    amb = AmbientRing(ring)
    rng = random.Random(30)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            gens.append(ring.from_exp_terms([(exps, 1)]))
        A = amb.ideal(gens)
        k = rng.randint(1, 2)
        B = A * (amb.maximal_ideal**k)
        expected = monomial_quotient_length(
            [ring.decode(g.lm) for g in A.generators],
            [ring.decode(g.lm) for g in B.generators],
            3,
        )
        assert quotient_length(A, B).value == expected


def test_hilbert_function_examples():
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring, (ring.parse("x^4"),))
    Ibar = amb.ideal(*ring.variables())
    assert hilbert_function(Ibar, 0) == 1
    assert hilbert_function(Ibar, 1) == 2
    assert hilbert_function(amb.unit_ideal(), 3) == 0


def test_is_m_primary():
    ring = PolyRing(("x", "y"))
    amb = AmbientRing(ring)
    x, y = ring.variables()
    assert is_m_primary(amb.ideal(x, y))
    assert is_m_primary(amb.ideal(x**2, y**3))
    assert not is_m_primary(amb.ideal(x))
