"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Where a criterion rests on a value that the engine alone would
vouch for, the test also carries a certificate that does not use the
engine: dense linear algebra mod p from `oracles.py`, or an explicit
witness re-multiplied exactly.

Three invariants are kept apart throughout.  The containment index c_J
(`index_of_nilpotency`) is the least n with I^(n+1) inside J at the
origin.  The Hilbert bound K = lambda(Ibar^2/x_d Ibar) + 1 (`hilbert_K`)
equals c_J only when J cap I^2 = JI; in general
lambda((J cap I^2)/JI) = K - c_J.  The paper's index of nilpotency s_J is
c_J when I is m-primary.  For ideals that are not m-primary the abstract
does not say whether s_J is c_J, so a criterion that states s_J for such
an ideal is asserted as stated, next to the certified value of c_J.

- Criterion 6: r_J = 2 and s_J = 2 as stated, and K = 2, on all six cases
  (none is m-primary).  The sub-checks `s_J = 2` fail: c_J = 1, certified
  by I^2 inside J, found by `graded_membership_oracle` (homogeneous J, as
  on all six: points-p3 lists a redundant cubic, but J is drawn over its
  five quadrics) or by `local_membership_oracle` (inhomogeneous J),
  together with I not inside J, which holds because mu(I) > d
  (`initial_rank`).  They stay failing until the paper's definition of
  s_J for such ideals is known.
- Criterion 7: at t = 0, I = (x, z) and gr_I(R) = k[y,T1,T2]/(y T1^2), a
  hypersurface with depth = dim = 2; the presentation is also compared
  with the hand-derived one by the oracle.  At t = 1 (where G_2 fails)
  the depth is 1 < 2; the witness is the class of x^2, which is nonzero
  and killed by the dimension-one prime (x, y, z, T1).
- Criterion 8: the criterion's K is lambda(Ibar^2/x_d Ibar) + 1 = 2.
  I is m-primary, so s_J = c_J = 1; the witness is the unit
  u = alpha^3 + beta^3 a with u I^2 inside (x) + H, where
  x = alpha a + beta b.  The class c* is nonzero in gr_0 = k[c]/(c^2) and
  killed by gr_1, so gr_I(R) is not Cohen-Macaulay, as r_J = 2 != s_J
  predicts; read as s_J, "K = 2" would predict the opposite.
- Criterion 9: nu_1 = (c_J - 1) + lambda((J cap I^2)/JI); where c_J
  differs from K, c_J = 1 carries the certificate of criterion 6.  The
  boundary biconditional is the verdict of `almost_cm_check`, which
  evaluates it at c_J.  There it reads "I^2 inside J <=> lambda(I/J) = 1"
  and fails on mixed-monomial-a/b, quartic-monomial, rn2-mon-b and
  rn2-mon-wide, where lambda(I/J) counts surplus generators; those
  sub-checks stay failing as a fault of `almost_cm_check`.
"""

import random

import pytest

from oracles import (
    graded_membership_oracle,
    initial_rank,
    local_membership_oracle,
    membership_oracle,
    monomial_intersection,
    monomial_quotient_length,
)

from jstretch.analysis import almost_cm_check, hilbert_K, properties_audit, vv_equalities
from jstretch.fibercone import analytic_spread, gr_presentation, graded_depth
from jstretch.groebner import buchberger, normal_form
from jstretch.ideals import AmbientRing
from jstretch.lengths import quotient_length
from jstretch.poly import PolyRing
from jstretch.reductions import (
    GeneralSampler,
    index_of_nilpotency,
    reduction_number,
    sample_reduction,
)
from jstretch.registry import build_case, middle_length, run_registry
from jstretch.speclab import QUANTITIES, fixed_vs_general, stability_trials

SEED = 1
TRIALS = 5
# cofactor degree at which local_membership_oracle certifies I^2 inside J
# for an inhomogeneous reduction (semigroup-345 needs 2)
LOCAL_COFACTOR_DEGREE = 3


@pytest.fixture(scope="module")
def cache():
    reports = {}
    rds = {}
    squares = {}

    class Cache:
        def report(self, cid, **kw):
            key = (cid, tuple(sorted(kw.items())))
            if key not in reports:
                reports[key] = run_registry(cid, seed=SEED, trials=TRIALS, **kw)
            return reports[key]

        def rd(self, cid, **kw):
            key = (cid, tuple(sorted(kw.items())))
            if key not in rds:
                case = build_case(cid, **kw)
                sampler = GeneralSampler(SEED, case.ambient.ring.field)
                rds[key] = (case, sample_reduction(case.ideal, sampler))
            return rds[key]

        def square_in_J(self, cid, **kw):
            key = (cid, tuple(sorted(kw.items())))
            if key not in squares:
                squares[key] = square_inside_J(*self.rd(cid, **kw))
            return squares[key]

    return Cache()


def square_inside_J(case, rd):
    """I^2 inside J at the origin, decided by linear algebra alone.

    I is generated by its lowest-degree generators once the others lie in
    their span (points-p3 lists a redundant cubic), so I^2 is generated by
    their pairwise products.  When J + H has homogeneous generators, graded
    membership decides it (and global membership implies local); this is
    the case for points-p3 too, whose J combines the quadrics only.
    Otherwise each product g is shown to lie in J + H + m*g, which puts it
    in J at the origin.
    """
    ring = case.ambient.ring
    relations = list(case.ambient.relations)
    gens = case.ideal.generators
    low = min(g.degree for g in gens)
    base = [g for g in gens if g.degree == low]
    spanned = all(
        membership_oracle(ring, g, base + relations, g.degree - low)
        for g in gens
        if g.degree > low
    )
    products = [g * h for i, g in enumerate(base) for h in base[i:]]
    J_gens = list(rd.xs) + relations
    if all(f.is_homogeneous for f in J_gens):
        inside = all(graded_membership_oracle(ring, f, J_gens) for f in products)
    else:
        inside = all(
            local_membership_oracle(ring, f, rd.xs, relations, LOCAL_COFACTOR_DEGREE)
            for f in products
        )
    return spanned and inside


def mu_exceeds_d(case, rd):
    """mu(I) > d, so I is not inside the d-generated J (else I = J)."""
    ambient = case.ambient
    return initial_rank(ambient.ring, case.ideal.generators, ambient.relations) > rd.d


def vv_defect(rd):
    """lambda((J cap I^2)/JI), the failure of J cap I^2 = JI."""
    return quotient_length(rd.J.intersect(rd.Ipow(2)), rd.JIpow(1), check=False).value


def finish(number, checks):
    bad = [name for name, ok in checks if not ok]
    print(f"[ACCEPTANCE] criterion {number}: {'PASS' if not bad else 'FAIL'}")
    for name in bad:
        print(f"    failed sub-check: {name}")
    assert not bad, f"criterion {number} failed: {bad}"


def test_criterion_1_thickline_family(cache):
    checks = []
    for r in (2, 3, 4):
        report, diffs, case = cache.report("thickline", r=r)
        _, rd = cache.rd("thickline", r=r)
        x, y, z = case.ambient.ring.variables()
        checks += [
            (f"r={r}: r_J", report.r_J == r),
            (f"r={r}: s_J", report.s_J == r),
            (f"r={r}: j-stretched", report.flags.j_stretched),
            (f"r={r}: lambda(I2bar/xdIbar) = r-1", report.hilbert_K - 1 == r - 1),
            (f"r={r}: almost-minimal flag", report.flags.almost_minimal_j == (r <= 2)),
            (f"r={r}: saturation", rd.sat == case.ambient.ideal(x ** (r + 1), z)),
        ]
    finish(1, checks)


def test_criterion_2_intersection_curve(cache):
    checks = []
    for r in (2, 3):
        report, diffs, case = cache.report("noncm-curve", r=r)
        _, rd = cache.rd("noncm-curve", r=r)
        for t in range(2, r + 1):
            checks.append(
                (f"r={r}: middle length t={t}", middle_length(rd, t, use_full_J=True) == 1)
            )
        checks.append((f"r={r}: j-stretched", report.flags.j_stretched))
    finish(2, checks)


def test_criterion_3_mixed_monomials(cache):
    checks = []
    for cid in ("mixed-monomial-a", "mixed-monomial-b"):
        case, rd = cache.rd(cid)
        for t in (2, 3, 4):
            checks.append((f"{cid}: middle length t={t}", middle_length(rd, t) == 1))
        checks.append((f"{cid}: spread", analytic_spread(case.ideal) == 3))
    finish(3, checks)


def test_criterion_4_quartic_monomial(cache):
    report, diffs, case = cache.report("quartic-monomial")
    checks = [
        ("js length", report.js_length == 1),
        ("j-stretched", report.flags.j_stretched),
    ]
    finish(4, checks)


def test_criterion_5_gr_presentations(cache):
    checks = []
    for r in (1, 2, 3):
        report, diffs, case = cache.report("thickline", r=r)
        pres = gr_presentation(case.ideal)
        x, y, z, T1, T2 = pres.ring.variables()
        checks += [
            (f"r={r}: predicted CM", report.predicted_cm.predicted_cm),
            (f"r={r}: gr target", pres.matches([x, y, z * T2, T1 ** (r + 1), z * T1])),
            (f"r={r}: depth = dim", graded_depth(pres) == pres.dimension()),
        ]
    finish(5, checks)


SIX = (
    ("points-p2", {}),
    ("points-p3", {}),
    ("rn2-mon-a", {}),
    ("rn2-mon-b", {}),
    ("rn2-mon-c", {}),
    ("rn2-mon-wide", {}),
)


def test_criterion_6_reduction_number_two_family(cache):
    checks = []
    for cid, kw in SIX:
        case, rd = cache.rd(cid, **kw)
        s = index_of_nilpotency(rd)
        K = hilbert_K(rd)
        checks += [
            (f"{cid}: r_J = 2", reduction_number(rd) == 2),
            (f"{cid}: s_J = 2", s == 2),
            (f"{cid}: hilbert_K = 2", K == 2),
            (f"{cid}: containment index c_J = 1", s == 1),
            (f"{cid}: I^2 inside J (oracle)", cache.square_in_J(cid, **kw)),
            (f"{cid}: I not inside J, as mu(I) > d (oracle)", mu_exceeds_d(case, rd)),
            (f"{cid}: lambda((J cap I^2)/JI) = hilbert_K - c_J", vv_defect(rd) == K - s),
        ]
    finish(6, checks)


def test_criterion_7_no_g2_family(cache):
    checks = []
    for t in (0, 1):
        report, diffs, case = cache.report("non-g2", t=t)
        checks += [
            (f"t={t}: r_J = 0", report.r_J == 0),
            (f"t={t}: minimal j", report.flags.minimal_j),
            (f"t={t}: CONDITIONAL", report.predicted_cm.status == "CONDITIONAL"),
            (f"t={t}: G_d unasserted", "G_d" in report.predicted_cm.missing),
        ]
    # t = 0: I = (x, z) and the initial form of x^3 - x^2 y is -x^2 y, so
    # gr_I(R) = k[y,T1,T2]/(y T1^2), a hypersurface: depth = dim = 2.
    pres = gr_presentation(build_case("non-g2", t=0).ideal)
    x, y, z, T1, T2 = pres.ring.variables()
    target = [x, z, y * T1**2]
    checks += [
        ("t=0: gr = k[y,T1,T2]/(y T1^2)", pres.matches(target)),
        (
            "t=0: gr presentation (oracle)",
            all(graded_membership_oracle(pres.ring, g, target) for g in pres.defining)
            and all(graded_membership_oracle(pres.ring, g, pres.defining) for g in target),
        ),
        ("t=0: depth = dim = 2", graded_depth(pres) == pres.dimension() == 2),
    ]
    # t = 1: the class of x^2 is nonzero and killed by the prime
    # P = (x, y, z, T1), so some associated prime contains P and has
    # dimension at most dim S[T]/P = 1, which bounds the depth by 1 < 2.
    pres = gr_presentation(build_case("non-g2", t=1).ideal)
    ring = pres.ring
    x, y, z, T1, T2 = ring.variables()
    Q = list(pres.defining)
    w = x**2
    nonzero = not graded_membership_oracle(ring, w, Q)
    killed = all(graded_membership_oracle(ring, v * w, Q) for v in (x, y, z, T1))
    checks += [
        ("t=1: depth strictly below dim", graded_depth(pres) < pres.dimension() == 2),
        ("t=1: x^2 nonzero, killed by (x, y, z, T1) (oracle)", nonzero and killed),
    ]
    finish(7, checks)


def test_criterion_8_semigroup(cache):
    report, diffs, case = cache.report("semigroup-345")
    _, rd = cache.rd("semigroup-345")
    ring = case.ambient.ring
    a, b, c = ring.variables()
    H = list(case.ambient.relations)
    I2 = [a * a, a * b, b * b]
    # J = (x), x = alpha a + beta b.  In k[[t^3,t^4,t^5]], x = t^3 (alpha + beta t)
    # and u = alpha^3 + beta^3 t^3 is divisible by alpha + beta t, so u I^2 lies
    # in (x); u is a unit at the origin, hence I^2 inside J and c_J = 1, which is
    # s_J because I is m-primary.
    alpha, beta = rd.lam[0]
    (x,) = rd.xs
    u = ring.constant(alpha**3) + beta**3 * a
    unit_witness = bool(u.constant_term) and all(
        membership_oracle(ring, u * g, [x] + H, 2) for g in I2
    )
    # I + H = (a, b, c^2), a monomial ideal that misses c, so c* != 0 in
    # gr_0 = R/I = k[c]/(c^2); ca = b^2 and cb = a^3 mod H put c I inside I^2,
    # so gr_1 kills c*: the depth of gr is 0 < 1 = dim, gr is not CM.
    residue = membership_oracle(ring, c**2, [a, b] + H, 2) and all(
        membership_oracle(ring, h, [a, b, c**2], h.degree) for h in H
    )
    killed = all(membership_oracle(ring, c * g, I2 + H, 1) for g in (a, b))
    checks = [
        ("j-stretched", report.flags.j_stretched),
        ("not stretched", report.flags.stretched is False),
        ("lambda(I2bar/xdIbar) = 1", report.hilbert_K - 1 == 1),
        ("K = 2", report.hilbert_K == 2),
        ("I + H = (a, b, c^2), so I is m-primary (oracle)", residue),
        ("s_J = c_J = 1", report.s_J == 1 and index_of_nilpotency(rd) == 1),
        ("u I^2 inside (x) + H for the unit u (witness)", unit_witness),
        ("I not inside J, as mu(I) = 2 > d = 1 (oracle)", mu_exceeds_d(case, rd)),
        ("gr_1 kills the nonzero class c* (oracle)", residue and killed),
        ("predicted not CM (r_J = 2 != s_J = 1)", report.predicted_cm.predicted_cm is False),
    ]
    finish(8, checks)


SUITE9 = (
    ("thickline", {"r": 2}),
    ("thickline", {"r": 3}),
    ("thickline", {"r": 4}),
    ("noncm-curve", {"r": 2}),
    ("noncm-curve", {"r": 3}),
    ("mixed-monomial-a", {}),
    ("mixed-monomial-b", {}),
    ("quartic-monomial", {}),
    ("points-p2", {}),
    ("points-p3", {}),
    ("rn2-mon-a", {}),
    ("rn2-mon-b", {}),
    ("rn2-mon-c", {}),
    ("rn2-mon-wide", {}),
    ("semigroup-345", {}),
)


def test_criterion_9_property_suites(cache):
    from jstretch.analysis import classify, nu_sequence

    checks = []
    for cid, kw in SUITE9:
        label = cid if not kw else f"{cid}({kw})"
        case, rd = cache.rd(cid, **kw)
        flags = classify(rd)
        if not flags.j_stretched or flags.minimal_j:
            checks.append((f"{label}: expected j-stretched non-minimal", False))
            continue
        r = reduction_number(rd)
        c = index_of_nilpotency(rd)
        nu, nubar = nu_sequence(rd, r)
        checks.append((f"{label}: nu non-increasing", all(nu[n] <= nu[n - 1] for n in range(2, r + 1))))
        checks.append((f"{label}: nubar1 = nu1", r < 1 or nubar[1] == nu[1]))
        checks.append(
            (f"{label}: nu1 = (c_J-1) + lambda((J cap I^2)/JI)", r < 1 or nu[1] == c - 1 + vv_defect(rd))
        )
        if c != hilbert_K(rd):
            checks.append(
                (
                    f"{label}: c_J = 1 by I^2 inside J and mu(I) > d (oracle)",
                    c == 1 and cache.square_in_J(cid, **kw) and mu_exceeds_d(case, rd),
                )
            )
        checks.append((f"{label}: I^c_J not inside J", not rd.J.contains_locally(rd.Ipow(c)) if c >= 1 else True))
        checks.append((f"{label}: I^(c_J+1) inside J", rd.J.contains_locally(rd.Ipow(c + 1))))
        audit = properties_audit(rd)
        checks.append((f"{label}: audit a-d", all(audit.items.values())))
        vv = vv_equalities(rd, c)
        checks.append((f"{label}: power/equality biconditional", vv.biconditional_ok))
        acm = almost_cm_check(rd)
        checks.append((f"{label}: boundary biconditional", acm.biconditional_ok))
    finish(9, checks)


def test_criterion_10_stability_and_fixed_comparisons(cache):
    checks = []
    quantity_cases = SUITE9 + (("non-g2", {"t": 0}),)
    for cid, kw in quantity_cases:
        case = build_case(cid, **kw)
        label = cid if not kw else f"{cid}({kw})"
        for quantity in QUANTITIES:
            rep = stability_trials(case.ideal, quantity, trials=20)
            checks.append((f"{label}/{quantity}: stability >= 0.9", rep.stability >= 0.9))
    thick = build_case("thickline", r=3)
    x, y, z = thick.ambient.ring.variables()
    semi = build_case("semigroup-345")
    a, b, c = semi.ambient.ring.variables()
    fixed_cases = [
        ("thickline H=(y)", thick.ideal, thick.ambient.ideal(y)),
        ("thickline H=(x+y)", thick.ideal, thick.ambient.ideal(x + y)),
        ("semigroup H=(a)", semi.ideal, semi.ambient.ideal(a)),
        ("semigroup H=(a+b)", semi.ideal, semi.ambient.ideal(a + b)),
    ]
    for label, ideal, fixed in fixed_cases:
        for quantity in QUANTITIES:
            got = fixed_vs_general(ideal, fixed, quantity, trials=TRIALS)
            checks.append((f"{label}/{quantity}: general <= fixed", got.general_le_fixed))
    # the hand-picked reduction (y) computes the same value as a general one
    got = fixed_vs_general(thick.ideal, thick.ambient.ideal(y), "I2/JI", trials=TRIALS)
    checks.append(("thickline H=(y): I2/JI equality", got.fixed_value == got.general_modal))
    finish(10, checks)


def test_criterion_11_engine_oracles():
    checks = []
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(41)

    def random_poly(max_deg=3, max_terms=4):
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * 3
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(3)] += 1
            terms.append((tuple(exps), rng.randrange(1, ring.field.p)))
        return ring.from_exp_terms(terms)

    agree = 0
    for k in range(50):
        gens = [g for g in (random_poly() for _ in range(rng.randint(2, 3))) if not g.is_zero]
        if not gens:
            continue
        gb = buchberger(gens)
        if k % 2 == 0:
            h = ring.zero()
            for g in gens:
                h = h + random_poly(max_deg=2) * g
        else:
            h = random_poly(max_deg=4)
        agree += normal_form(h, gb).is_zero == membership_oracle(ring, h, gens)
    checks.append(("membership agrees on 50 random ideals", agree == 50))

    amb = AmbientRing(ring)
    ok_len = 0
    for _ in range(100):
        gens = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            gens.append(ring.from_exp_terms([(exps, 1)]))
        A = amb.ideal(gens)
        B = A * (amb.maximal_ideal ** rng.randint(1, 2))
        expected = monomial_quotient_length(
            [ring.decode(g.lm) for g in A.generators],
            [ring.decode(g.lm) for g in B.generators],
            3,
        )
        ok_len += quotient_length(A, B).value == expected
    checks.append(("quotient_length agrees on 100 monomial pairs", ok_len == 100))

    ok_cap = 0
    for _ in range(100):
        def mono_ideal():
            return amb.ideal(
                [
                    ring.from_exp_terms([(tuple(rng.randint(0, 4) for _ in range(3)), 1)])
                    for _ in range(rng.randint(1, 4))
                ]
            )

        A, B = mono_ideal(), mono_ideal()
        expected_gens = monomial_intersection(
            [ring.decode(g.lm) for g in A.generators],
            [ring.decode(g.lm) for g in B.generators],
        )
        expected = amb.ideal([ring.from_exp_terms([(e, 1)]) for e in expected_gens])
        ok_cap += A.intersect(B) == expected
    checks.append(("intersect agrees on 100 monomial pairs", ok_cap == 100))
    finish(11, checks)
