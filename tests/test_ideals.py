import random

import pytest

from oracles import monomial_intersection

from jstretch.errors import AmbientMismatch, DegreeBoundExceeded, NotContainedInMaximal
from jstretch.ideals import AmbientRing
from jstretch.poly import PolyRing
from jstretch.reductions import GeneralSampler, sample_reduction
from jstretch.registry import build_case


@pytest.fixture
def kxyz():
    return AmbientRing(PolyRing(("x", "y", "z")))


def vars_of(amb):
    return amb.ring.variables()


def test_sum_product_power(kxyz):
    x, y, z = vars_of(kxyz)
    I = kxyz.ideal(x, y)
    assert set((I**2).generators) == {x**2, x * y, y**2}
    assert (kxyz.ideal(x) * kxyz.ideal(y)).generators == (x * y,)
    assert (I**0) == kxyz.unit_ideal()
    assert (I + kxyz.ideal(z)).gb == kxyz.ideal(x, y, z).gb


def test_intersect_examples(kxyz):
    x, y, z = vars_of(kxyz)
    assert kxyz.ideal(x).intersect(kxyz.ideal(y)) == kxyz.ideal(x * y)
    got = kxyz.ideal(x**2, y).intersect(kxyz.ideal(x))
    assert got == kxyz.ideal(x**2, x * y)
    A = kxyz.ideal(x**2 - y, z)
    assert A.intersect(kxyz.unit_ideal()) == A


def test_intersect_against_lcm_oracle():
    ring = PolyRing(("x", "y", "z"))
    amb = AmbientRing(ring)
    rng = random.Random(17)
    for _ in range(25):
        def random_monomial_ideal():
            gens = []
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 4) for _ in range(3))
                gens.append(ring.from_exp_terms([(exps, 1)]))
            return amb.ideal(gens)

        A, B = random_monomial_ideal(), random_monomial_ideal()
        expected_gens = monomial_intersection(
            [ring.decode(g.lm) for g in A.generators],
            [ring.decode(g.lm) for g in B.generators],
        )
        expected = amb.ideal([ring.from_exp_terms([(e, 1)]) for e in expected_gens])
        assert A.intersect(B) == expected


def test_colon_and_saturate(kxyz):
    x, y, z = vars_of(kxyz)
    assert kxyz.ideal(x**2).colon(kxyz.ideal(x)) == kxyz.ideal(x)
    A = kxyz.ideal(x**4, x * z, y * z)
    assert A.saturate(kxyz.ideal(x, y)) == kxyz.ideal(x**4, z)
    assert A.saturate(kxyz.unit_ideal()) == A
    sat = A.saturate(kxyz.ideal(x, y))
    assert sat.saturate(kxyz.ideal(x, y)) == sat


def _saturate_by_colons(A, B):
    """A : B^infinity as the fixed point of A, A : B, (A : B) : B, ..."""
    current = A
    for _ in range(50):
        bigger = current.colon(B)
        if bigger == current:
            return current
        current = bigger
    pytest.fail("colon chain did not stabilize in 50 steps")


def test_saturate_matches_colon_fixed_point(kxyz):
    x, y, z = vars_of(kxyz)
    pairs = [
        (kxyz.ideal(x**4, x * z, y * z), kxyz.ideal(x, y)),
        (kxyz.ideal(x**4, x * z, y * z), kxyz.ideal(z)),
        # inhomogeneous: x*(x - 1)*(x, y) has an embedded component at (x, y)
        (kxyz.ideal(x**2 * (x - 1), x * y * (x - 1)), kxyz.ideal(x, y)),
        (kxyz.ideal(x**2, y), kxyz.zero_ideal()),
        (kxyz.ideal(x**2, y), kxyz.unit_ideal()),
        (kxyz.zero_ideal(), kxyz.ideal(x, y)),
        (kxyz.zero_ideal(), kxyz.zero_ideal()),
    ]
    for A, B in pairs:
        assert A.saturate(B) == _saturate_by_colons(A, B)
    embedded = kxyz.ideal(x**2 * (x - 1), x * y * (x - 1))
    assert embedded.saturate(kxyz.ideal(x, y)) == kxyz.ideal(x * (x - 1))
    assert kxyz.ideal(x**2, y).saturate(kxyz.zero_ideal()) == kxyz.unit_ideal()
    assert kxyz.zero_ideal().saturate(kxyz.ideal(x, y)) == kxyz.zero_ideal()


@pytest.mark.parametrize(
    "case_id, params", [("noncm-curve", {"r": 2}), ("semigroup-345", {})]
)
def test_saturate_matches_colon_fixed_point_with_relations(case_id, params):
    # noncm-curve has relations H; semigroup-345 has inhomogeneous relations,
    # d = 1 so J_{d-1} is the zero ideal, and an inhomogeneous J
    case = build_case(case_id, **params)
    rd = sample_reduction(case.ideal, GeneralSampler(1000, case.ambient.ring.field))
    for A in (rd.Jd1, rd.J):
        assert A.saturate(rd.I) == _saturate_by_colons(A, rd.I)
    amb = case.ambient
    assert amb.zero_ideal().saturate(rd.I) == _saturate_by_colons(amb.zero_ideal(), rd.I)


def test_saturate_honours_degree_cap():
    # 1 - u*x*y has degree 3, past the cap of 2, so the elimination raises
    # rather than return a basis computed past the cap
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    capped = AmbientRing(ring, (), 2)
    A, B = capped.ideal(x**2 - y), capped.ideal(x * y)
    A.gb, B.gb  # both bases lie within the cap
    with pytest.raises(DegreeBoundExceeded):
        A.saturate(B)
    # (x^2 - y) is prime and misses x*y, so it is its own saturation
    uncapped = AmbientRing(ring)
    assert uncapped.ideal(x**2 - y).saturate(uncapped.ideal(x * y)) == uncapped.ideal(x**2 - y)
    with pytest.raises(DegreeBoundExceeded):
        A.saturate(B)


def test_colon_invariants(kxyz):
    x, y, z = vars_of(kxyz)
    rng = random.Random(8)
    for A, B in [
        (kxyz.ideal(x**2, y * z), kxyz.ideal(x, y)),
        (kxyz.ideal(x**4, x * z, y * z), kxyz.ideal(x, y)),
        (kxyz.ideal(x * y - z**2), kxyz.ideal(z)),
    ]:
        Q = A.colon(B)
        assert Q.contains(A)
        assert A.contains(Q * B)


def test_contains_locally(kxyz):
    x, y, z = vars_of(kxyz)
    assert kxyz.ideal(x).contains_locally(kxyz.ideal(x * (1 + x)))
    assert not kxyz.ideal(x).contains_locally(kxyz.ideal(y))
    assert kxyz.ideal(x).contains_locally(kxyz.ideal(x**2))
    # inhomogeneous pairs, decided by the element-colon unit test: locally
    # (x(1+y)) = (x) misses y(1+x), and (x(x-1)) = (x) as x - 1 is a unit
    assert not kxyz.ideal(x * (1 + y)).contains_locally(kxyz.ideal(y * (1 + x)))
    assert not kxyz.ideal(x * (x - 1)).contains(kxyz.ideal(x))
    assert kxyz.ideal(x * (x - 1)).contains_locally(kxyz.ideal(x))


def test_global_containment_implies_local(kxyz):
    rng = random.Random(12)
    x, y, z = vars_of(kxyz)
    pool = [x, y, z, x + y, x * y - z**2, y**2 + z]
    for _ in range(15):
        gens = rng.sample(pool, rng.randint(1, 3))
        A = kxyz.ideal(gens)
        B = A * kxyz.ideal(rng.choice(pool))
        assert A.contains(B)
        assert A.contains_locally(B)


def test_krull_dim(kxyz):
    x, y, z = vars_of(kxyz)
    assert kxyz.zero_ideal().krull_dim() == 3
    assert kxyz.ideal(x**4, x * z, y * z).krull_dim() == 1
    two = AmbientRing(PolyRing(("x", "y")))
    assert two.ideal(*two.ring.variables()).krull_dim() == 0
    with pytest.raises(NotContainedInMaximal):
        kxyz.ideal(x + 1).krull_dim()


def test_quotient_ring_dimension():
    ring = PolyRing(("x", "y", "z"))
    amb = AmbientRing(ring, (ring.parse("x^4"), ring.parse("x*z"), ring.parse("y*z")))
    assert amb.dimension == 1


def test_handle_equality_is_canonical(kxyz):
    x, y, z = vars_of(kxyz)
    A = kxyz.ideal(x + y, y)
    B = kxyz.ideal(y, x)
    assert A == B
    assert A != kxyz.ideal(x)


def test_degree_cap_honoured_after_uncapped_computation():
    # the cached basis is keyed by the cap too, so a basis computed under
    # the default cap is not handed to a ring with a lower one
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    capped = AmbientRing(ring, (), 2)
    with pytest.raises(DegreeBoundExceeded):
        capped.ideal(x**3 - y, y**3 - x).gb
    assert AmbientRing(ring).ideal(x**3 - y, y**3 - x).gb
    with pytest.raises(DegreeBoundExceeded):
        capped.ideal(x**3 - y, y**3 - x).gb


def test_ambient_mismatch(kxyz):
    other = AmbientRing(PolyRing(("x", "y", "z")), (PolyRing(("x", "y", "z")).parse("x^2"),))
    with pytest.raises(AmbientMismatch):
        kxyz.ideal(kxyz.ring.variable(0)) + other.ideal(other.ring.variable(0))


def test_relations_must_vanish_at_origin():
    ring = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        AmbientRing(ring, (ring.parse("x + 1"),))
