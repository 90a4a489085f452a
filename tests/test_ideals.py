import random

import pytest

from oracles import monomial_intersection

from jstretch.errors import AmbientMismatch, DegreeBoundExceeded, NotContainedInMaximal
from jstretch.ideals import AmbientRing
from jstretch.poly import PolyRing


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
