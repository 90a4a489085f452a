"""Output checks, made apart from the engine.

Containments are decided by dense linear algebra mod p from
`tests/oracles.py`, never by the engine's Groebner bases:

- where J, the relations H and the target are homogeneous for some
  positive weights, membership is graded, and cofactors of weight
  W(target) - W(g) have ordinary degree at most that, so
  `membership_oracle` at that cofactor degree is complete: False
  certifies non-membership;
- otherwise `local_membership_oracle` solves target in J + H + m*target,
  which certifies membership at the origin by the unit argument.

Each check returns a list of (name, ok) pairs.  The reduction J checked
is the one of the first analysis trial, drawn again here from the same
sampler stream (seed * 1000), so the engine's sampling code is not
trusted either.
"""

from itertools import combinations_with_replacement, product

from oracles import initial_rank, local_membership_oracle, membership_oracle

from jstretch.reductions import GeneralSampler
from jstretch.report import report_from_json, report_to_json

# cofactor degree for the local unit argument; points-p3 needs 3
LOCAL_COFACTOR_DEGREE = 3
MAX_WEIGHT = 4


def general_elements(case, d, trial_seed):
    """The d general elements analyze draws for one trial, from the sampler alone."""
    ring = case.ambient.ring
    gens = case.ideal.generators
    sampler = GeneralSampler(trial_seed, ring.field)
    rows = [sampler.row(len(gens)) for _ in range(d)]
    out = []
    for row in rows:
        x = ring.zero()
        for c, g in zip(row, gens):
            x = x + c * g
        out.append(x)
    return out


def grading(ring, polys):
    """Positive weights making every poly homogeneous, or None."""
    exps = [[ring.decode(m) for m in f.mapping()] for f in polys if not f.is_zero]
    for weights in product(range(1, MAX_WEIGHT + 1), repeat=ring.nvars):
        if all(len({sum(w * e for w, e in zip(weights, x)) for x in terms}) == 1 for terms in exps):
            return weights
    return None


def _weight(ring, weights, f):
    return sum(w * e for w, e in zip(weights, ring.decode(f.lm)))


def graded_member(ring, weights, target, gens):
    """Decides target in (gens) for input homogeneous under `weights`."""
    gens = [g for g in gens if _weight(ring, weights, g) <= _weight(ring, weights, target)]
    if not gens:
        return target.is_zero
    low = min(_weight(ring, weights, g) for g in gens)
    return membership_oracle(ring, target, gens, _weight(ring, weights, target) - low)


def essential_generators(case):
    """Generators of I with those dropped that lie in (lower-degree generators) + H.

    A generator is dropped only on a membership certificate, so the kept
    ones still generate I modulo H.
    """
    ring = case.ambient.ring
    relations = list(case.ambient.relations)
    gens = sorted(case.ideal.generators, key=lambda g: g.degree)
    kept = []
    for g in gens:
        lower = [h for h in kept if h.degree < g.degree]
        if lower and membership_oracle(ring, g, lower + relations, g.degree - min(h.degree for h in lower)):
            continue
        kept.append(g)
    return kept


def containment_checks(case, xs, c):
    """I^(c+1) inside J and I^c not inside J at the origin, J = (xs)."""
    ring = case.ambient.ring
    relations = list(case.ambient.relations)
    gens = essential_generators(case)
    J = list(xs) + relations
    weights = grading(ring, J + gens)

    def inside(f):
        if weights is not None:
            return graded_member(ring, weights, f, J)
        return local_membership_oracle(ring, f, xs, relations, LOCAL_COFACTOR_DEGREE)

    def power(n):
        out = []
        for combo in combinations_with_replacement(gens, n):
            f = combo[0]
            for g in combo[1:]:
                f = f * g
            out.append(f)
        return out

    checks = [(f"I^{c + 1} inside J (oracle)", all(inside(f) for f in power(c + 1)))]
    if c == 0:
        # J and H vanish at the origin, so J is proper and I^0 = R is not inside
        outside = all(not f.constant_term for f in J)
        checks.append(("I^0 not inside J, as J lies in m", outside))
    elif c == 1:
        d = len(xs)
        checks.append(("I not inside J, as mu(I) > d (oracle)", initial_rank(ring, gens, relations) > d))
    elif weights is not None:
        checks.append((f"I^{c} not inside J (oracle)", not all(inside(f) for f in power(c))))
    else:
        checks.append((f"I^{c} not inside J: no certificate for inhomogeneous J", False))
    return checks


def registry_checks(case, result, seed):
    report, diffs, _ = result
    checks = [
        ("golden diff empty", not diffs),
        ("json round trip", report_from_json(report_to_json(report)) == report),
    ]
    if case.id == "thickline":
        r = case.params["r"]
        checks.append((
            "thickline closed forms r_J = s_J = r, j = r+1, nu = (r..0)",
            report.r_J == r
            and report.s_J == r
            and report.j_mult == r + 1
            and report.nu == tuple(range(r, -1, -1)),
        ))
    if not isinstance(report.s_J, int):
        return checks + [("s_J computed", False)]
    xs = general_elements(case, report.d, seed * 1000)
    return checks + containment_checks(case, xs, report.s_J)


def speclab_checks(results, seeds):
    """Checks of the six stability reports of one case, by quantity.

    For each seed, with n = 2: In/Jn >= I2/JI >= max(JcapI2/JI,
    In/JIn-1+In+1), since J^2 inside JI inside J cap I^2 inside I^2 and
    JI inside JI + I^3.  Every quantity is stable on at least 0.9 of
    the seeds.  Returns {quantity: [(name, ok), ...]}.
    """
    by_seed = {}
    for quantity, rep in results.items():
        failed = {s for s, _ in rep.errors}
        by_seed[quantity] = dict(zip([s for s in seeds if s not in failed], rep.values))
    out = {q: [("stability >= 0.9", rep.stability >= 0.9)] for q, rep in results.items()}
    chain = ("In/Jn", "I2/JI", "JcapI2/JI", "In/JIn-1+In+1")
    ordered = True
    for s in seeds:
        v = [by_seed.get(q, {}).get(s) for q in chain]
        if None in v:
            continue
        ordered = ordered and v[0] >= v[1] >= max(v[2], v[3])
    for q in chain:
        out.setdefault(q, []).append(("In/Jn >= I2/JI >= max(JcapI2/JI, In/JIn-1+In+1) per seed", ordered))
    return out
