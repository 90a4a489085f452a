import random

import pytest

from oracles import membership_oracle

from jstretch.errors import DegreeBoundExceeded, ExactDivisionError
from jstretch.groebner import (
    buchberger,
    dimension_from_leading_terms,
    eliminate,
    exact_divide,
    normal_form,
    reduce_by,
    reducer_table,
    s_polynomial,
)
from jstretch.orders import elimination_block, grevlex, lex
from jstretch.poly import PolyRing


def random_poly(ring, rng, max_deg=3, max_terms=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ring.nvars)] += 1
        terms.append((tuple(exps), rng.randrange(1, ring.field.p)))
    return ring.from_exp_terms(terms)


def test_normal_form_single_rewrite():
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    assert normal_form(x**2, [x**2 - y]) == y


def test_normal_form_self_reduction():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.variables()
    G = buchberger([x**2 - y, x * z + y**2, y**3 - z])
    for g in G:
        assert normal_form(g, G).is_zero


def test_normal_form_substitution_case():
    # y^3 - z^2 vanishes under y -> x^2, z -> x^3 (substitution oracle), so it
    # must reduce to zero against the lex basis of (x^2 - y, x^3 - z)
    one_var = PolyRing(("x",))
    t = one_var.variable(0)
    assert ((t**2) ** 3 - (t**3) ** 2).is_zero
    ring = PolyRing(("x", "y", "z"), order=lex())
    x, y, z = ring.variables()
    G = buchberger([x**2 - y, x**3 - z])
    assert normal_form(y**3 - z**2, G).is_zero


def test_buchberger_monomial_inputs():
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    assert buchberger([x, y]) == (y, x) or set(buchberger([x, y])) == {x, y}
    ring3 = PolyRing(("x", "y", "z"))
    x, y, z = ring3.variables()
    assert set(buchberger([x**4, x * z, y * z])) == {x**4, x * z, y * z}


def test_buchberger_idempotent():
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(21)
    for _ in range(10):
        gens = [random_poly(ring, rng) for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens)
        assert buchberger(gb) == gb


def test_product_reduces_to_zero():
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(22)
    for _ in range(25):
        f = random_poly(ring, rng, max_deg=4)
        g = random_poly(ring, rng, max_deg=4)
        if f.is_zero:
            continue
        gb = buchberger([f])
        assert normal_form(f * g, gb).is_zero


def test_membership_matches_linear_algebra_oracle():
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(23)
    for _ in range(12):
        gens = [random_poly(ring, rng, max_deg=3) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        gb = buchberger(gens)
        member = ring.zero()
        for g in gens:
            member = member + random_poly(ring, rng, max_deg=2) * g
        outsider = random_poly(ring, rng, max_deg=4)
        for h in (member, outsider):
            assert normal_form(h, gb).is_zero == membership_oracle(ring, h, gens)


def naive_remainder(f, basis):
    """Division by repeated cancellation of the highest reducible term."""
    ring = f.ring
    rest, out = f, ring.zero()
    while not rest.is_zero:
        m, c = rest.terms[0]
        g = next((g for g in basis if ring.divides(g.lm, m)), None)
        if g is None:
            out = out + ring.from_dict({m: c})
            rest = rest - ring.from_dict({m: c})
        else:
            rest = rest - g.mono_multiple(m - g.lm, c * ring.field.inv(g.lc))
    return out


def criterion_free_buchberger(gens):
    """Reduced Groebner basis with every S-pair reduced: the reference."""
    ring = gens[0].ring
    basis = [g for g in gens if not g.is_zero]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # the pair of least lcm degree first, which keeps degrees low under lex
        i, j = min(pairs, key=lambda ij: ring.deg(ring.lcm(basis[ij[0]].lm, basis[ij[1]].lm)))
        pairs.remove((i, j))
        f, g = basis[i], basis[j]
        lcm = ring.lcm(f.lm, g.lm)
        s = f.mono_multiple(lcm - f.lm, ring.field.inv(f.lc)) - g.mono_multiple(
            lcm - g.lm, ring.field.inv(g.lc)
        )
        r = naive_remainder(s, basis)
        if not r.is_zero:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r)
    minimal = []
    for g in sorted(basis, key=lambda g: ring.key(g.lm)):
        if not any(ring.divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    return sorted(
        (naive_remainder(g, [h for h in minimal if h is not g]).monic() for g in minimal),
        key=lambda g: ring.key(g.lm),
    )


def random_near_homogeneous(ring, rng):
    """Two or three terms of degree d or d - 1, for d = 2 or 3: many pairs,
    and seldom the unit ideal."""
    d = rng.randint(2, 3)
    terms = []
    for _ in range(rng.randint(2, 3)):
        exps = [0] * ring.nvars
        for _ in range(d - (rng.random() < 0.3)):
            exps[rng.randrange(ring.nvars)] += 1
        terms.append((tuple(exps), rng.randrange(1, ring.field.p)))
    return ring.from_exp_terms(terms)


@pytest.mark.parametrize("order", [grevlex(), lex(), elimination_block(1)], ids=str)
def test_buchberger_matches_criterion_free_reference(order):
    ring = PolyRing(("t", "x", "y", "z"), order=order)
    rng = random.Random(24)
    for _ in range(25):
        gens = [random_near_homogeneous(ring, rng) for _ in range(rng.randint(2, 4))]
        gb = buchberger(gens)
        assert list(gb) == criterion_free_buchberger(gens)
        table = reducer_table(gb)
        for j in range(len(gb)):
            for i in range(j):
                assert reduce_by(s_polynomial(gb[i], gb[j]), table).is_zero


def test_eliminate_semigroup_relations():
    ring = PolyRing(("t", "a", "b", "c"))
    t, a, b, c = ring.variables()
    out = eliminate([a - t**3, b - t**4, c - t**5], 1)
    small = out[0].ring
    aa, bb, cc = small.variables()
    known = [bb**2 - aa * cc, cc**2 - aa**2 * bb, aa**3 - bb * cc]
    # substitution oracle: each computed generator vanishes at (t^3, t^4, t^5)
    curve = PolyRing(("t",))
    tt = curve.variable(0)
    powers = {0: curve.one()}
    def substitute(p):
        total = curve.zero()
        for m, coef in p.mapping().items():
            e = small.decode(m)
            total = total + coef * tt ** (3 * e[0] + 4 * e[1] + 5 * e[2])
        return total
    for g in out:
        assert substitute(g).is_zero
    # mutual membership against the known generators
    gb_out = buchberger(list(out))
    gb_known = buchberger(known)
    assert all(normal_form(k, gb_out).is_zero for k in known)
    assert all(normal_form(g, gb_known).is_zero for g in out)


def test_eliminate_no_relation():
    ring = PolyRing(("t", "x", "y"))
    t, x, y = ring.variables()
    assert eliminate([t * x - y], 1) == ()


def test_eliminate_zero_ideal():
    ring = PolyRing(("t", "x"))
    t, x = ring.variables()
    assert eliminate([t * x - t * x], 1) == ()


def test_degree_cap():
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    with pytest.raises(DegreeBoundExceeded):
        buchberger([x**3 - y, y**3 - x], degree_cap=2)


def test_exact_divide():
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    f = (x + y) * (x**2 - y)
    assert exact_divide(f, x + y) == x**2 - y
    with pytest.raises(ExactDivisionError):
        exact_divide(x**2 + y, x + y)


def test_dimension_from_leading_terms():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.variables()
    assert dimension_from_leading_terms([], ring) == 3
    gb = buchberger([x**4, x * z, y * z])
    assert dimension_from_leading_terms([g.lm for g in gb], ring) == 1
    ring2 = PolyRing(("x", "y"))
    gb2 = buchberger(list(ring2.variables()))
    assert dimension_from_leading_terms([g.lm for g in gb2], ring2) == 0
