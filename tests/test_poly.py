import random

import pytest

from jstretch.errors import AmbientMismatch
from jstretch.orders import elimination_block, grevlex, lex
from jstretch.poly import PolyRing


def random_poly(ring, rng, max_deg=4, max_terms=5):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms.append((exps, rng.randrange(1, ring.field.p)))
    return ring.from_exp_terms(terms)


def test_arithmetic_axioms():
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(11)
    for _ in range(40):
        f, g, h = (random_poly(ring, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == ring.zero()


def test_term_invariants():
    ring = PolyRing(("x", "y"))
    rng = random.Random(3)
    for _ in range(30):
        f = random_poly(ring, rng)
        keys = [ring.key(m) for m, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert len(set(m for m, _ in f.terms)) == len(f.terms)
        assert all(c % ring.field.p for _, c in f.terms)


@pytest.mark.parametrize("order", [grevlex(), lex(), elimination_block(2)])
def test_order_is_total_and_multiplicative(order):
    ring = PolyRing(("a", "b", "c", "d"), order=order)
    rng = random.Random(9)
    monos = [tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(40)]
    for a in monos:
        for b in monos:
            ka, kb = order.key(a), order.key(b)
            assert (ka < kb) + (ka == kb) + (ka > kb) == 1
            if ka < kb:
                for c in monos:
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert order.key(ac) < order.key(bc)
    one = (0, 0, 0, 0)
    for a in monos:
        if a != one:
            assert order.key(a) > order.key(one)


def test_elimination_block_dominates():
    order = elimination_block(2)
    rng = random.Random(4)
    for _ in range(100):
        front = tuple(rng.randint(0, 4) for _ in range(2))
        if sum(front) == 0:
            continue
        involving = front + tuple(rng.randint(0, 4) for _ in range(2))
        pure_back = (0, 0) + tuple(rng.randint(0, 9) for _ in range(2))
        assert order.key(involving) > order.key(pure_back)


def test_grevlex_convention():
    # same degree: earlier-declared variable wins
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    f = x + y
    assert f.lm == ring.encode((1, 0))
    g = x * y**2 + x**2 * y
    assert g.lm == ring.encode((2, 1))


def test_parse_and_str_round_trip():
    ring = PolyRing(("x", "y", "z"))
    for text in ("x^2*y - 3*z + 1", "x", "-x + y", "2", "x*y*z - x*y + 7"):
        f = ring.parse(text)
        assert ring.parse(str(f)) == f


def test_pow_and_scalars():
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x + y) ** 0 == ring.one()
    assert 0 * x == ring.zero()
    assert (3 * x).lc == 3


def test_ring_mismatch():
    a = PolyRing(("x", "y")).variable(0)
    b = PolyRing(("x", "z")).variable(0)
    with pytest.raises(AmbientMismatch):
        a + b


def test_exponent_overflow_guard():
    ring = PolyRing(("x",))
    with pytest.raises(OverflowError):
        ring.encode((300,))
    x = ring.variable(0)
    with pytest.raises(OverflowError):
        (x**70) * (x**70)
