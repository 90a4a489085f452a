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


def _grevlex_tuple_key(exps):
    # degree first; ties broken so the last nonzero entry of a - b decides
    return (sum(exps), tuple(-e for e in reversed(exps)))


def tuple_key(order, exps):
    """The exponent-tuple key each order encodes: the reference for the int keys."""
    if order == grevlex():
        return _grevlex_tuple_key(exps)
    if order == lex():
        return tuple(exps)
    k = order.block
    return (_grevlex_tuple_key(exps[:k]), _grevlex_tuple_key(exps[k:]))


def random_exps(rng, nvars, top):
    """An exponent vector, with 0 and top made likely."""
    return tuple(rng.choice((0, top, rng.randint(0, top))) for _ in range(nvars))


@pytest.mark.parametrize("order", [grevlex(), lex(), elimination_block(2)])
def test_order_is_total_and_multiplicative(order):
    ring = PolyRing(("a", "b", "c", "d"), order=order)
    rng = random.Random(9)
    monos = [tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(40)]

    def key(exps):
        return ring.key(ring.encode(exps))

    for a in monos:
        for b in monos:
            ka, kb = key(a), key(b)
            assert (ka < kb) + (ka == kb) + (ka > kb) == 1
            if ka < kb:
                for c in monos:
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert key(ac) < key(bc)
    one = (0, 0, 0, 0)
    for a in monos:
        if a != one:
            assert key(a) > key(one)


@pytest.mark.parametrize(
    "order", [grevlex(), lex(), elimination_block(1), elimination_block(2)], ids=str
)
def test_int_keys_match_tuple_keys(order):
    rng = random.Random(31)
    for nvars in range(2, 7):
        ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), order=order)
        for _ in range(300):
            a = random_exps(rng, nvars, 127)
            b = random_exps(rng, nvars, 127) if rng.random() < 0.7 else a
            ka, kb = ring.key(ring.encode(a)), ring.key(ring.encode(b))
            ta, tb = tuple_key(order, a), tuple_key(order, b)
            assert (ka < kb, ka == kb, ka > kb) == (ta < tb, ta == tb, ta > tb)
        for _ in range(30):
            f = random_poly(ring, rng, max_deg=6, max_terms=8)
            by_tuples = sorted(f.mapping(), key=lambda m: tuple_key(order, ring.decode(m)), reverse=True)
            assert [m for m, _ in f.terms] == by_tuples


def test_lcm_is_bytewise_max():
    rng = random.Random(32)
    for nvars in range(1, 9):
        ring = PolyRing(tuple(f"x{i}" for i in range(nvars)))
        for _ in range(200):
            a, b = random_exps(rng, nvars, 127), random_exps(rng, nvars, 127)
            expected = tuple(max(x, y) for x, y in zip(a, b))
            assert ring.decode(ring.lcm(ring.encode(a), ring.encode(b))) == expected


def test_elimination_block_dominates():
    ring = PolyRing(("a", "b", "c", "d"), order=elimination_block(2))
    rng = random.Random(4)
    for _ in range(100):
        front = tuple(rng.randint(0, 4) for _ in range(2))
        if sum(front) == 0:
            continue
        involving = front + tuple(rng.randint(0, 4) for _ in range(2))
        pure_back = (0, 0) + tuple(rng.randint(0, 9) for _ in range(2))
        assert ring.key(ring.encode(involving)) > ring.key(ring.encode(pure_back))


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
