"""Normal forms, Buchberger's algorithm, elimination, exact division."""

import heapq
from collections import deque
from itertools import combinations

from .errors import DegreeBoundExceeded, ExactDivisionError
from .orders import elimination_block
from .poly import Polynomial

DEFAULT_DEGREE_CAP = 40


def reducer_table(basis):
    """The (lm, 1/lc, terms) rows that reduce_by divides by, zeros dropped."""
    return [(g.lm, g.ring.field.inv(g.lc), g.terms) for g in basis if not g.is_zero]


def normal_form(f, basis):
    """Full remainder of f under multivariate division by basis.

    Deterministic: the highest remaining monomial is cancelled by the
    first basis element whose leading monomial divides it.
    """
    return reduce_by(f, reducer_table(basis))


def reduce_by(f, reducers):
    """normal_form(f, basis) for reducers = reducer_table(basis).

    Callers that reduce many polynomials by one basis build the table once.
    """
    if f.is_zero or not reducers:
        return f
    ring = f.ring
    p = ring.field.p
    divides = ring.divides
    negkey = ring.negkey
    work = dict(f.mapping())
    out = {}
    heap = [(negkey(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        hit = None
        for lm, inv_lc, terms in reducers:
            if divides(lm, m):
                hit = (lm, inv_lc, terms)
                break
        if hit is None:
            out[m] = c
            continue
        lm, inv_lc, terms = hit
        shift = m - lm
        factor = (c * inv_lc) % p
        for mg, cg in terms:
            t = shift + mg
            if t == m:
                continue
            v = (work.get(t, 0) - factor * cg) % p
            if v:
                if t not in work:
                    heapq.heappush(heap, (negkey(t), t))
                work[t] = v
            else:
                work.pop(t, None)
    return Polynomial(ring, out)


def s_polynomial(f, g, lcm=None):
    ring = f.ring
    if lcm is None:
        lcm = ring.lcm(f.lm, g.lm)
    inv = ring.field.inv
    return f.mono_multiple(lcm - f.lm, inv(f.lc)) - g.mono_multiple(lcm - g.lm, inv(g.lc))


def _reduce_basis(basis):
    """Interreduce a basis whose S-pairs all reduce to zero: unique reduced GB."""
    ring = basis[0].ring
    polys = sorted((g.monic() for g in basis if not g.is_zero), key=lambda g: ring.key(g.lm))
    minimal = []
    for g in polys:
        if not any(ring.divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    table = reducer_table(minimal)
    reduced = []
    for i, g in enumerate(minimal):
        reduced.append(reduce_by(g, table[:i] + table[i + 1 :]).monic())
    return tuple(reduced)


def buchberger(gens, degree_cap=DEFAULT_DEGREE_CAP):
    """The unique reduced Groebner basis of the input generators.

    Pair selection follows the normal strategy (minimal lcm degree,
    ties broken by the monomial order, then indices), with the coprime
    and chain criteria pruning the queue.  Raises DegreeBoundExceeded
    when an intermediate element passes degree_cap.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    ring = gens[0].ring

    basis = []
    table = []  # reducer_table(basis), grown with it
    lms = []
    pending = set()
    heap = []
    candidates = deque(sorted(gens, key=lambda g: ring.key(g.lm)))

    def add_element(h):
        if h.degree > degree_cap:
            raise DegreeBoundExceeded(h.degree, degree_cap)
        h = h.monic()
        t = len(basis)
        basis.append(h)
        table.append((h.lm, 1, h.terms))  # h is monic
        lms.append(h.lm)
        for i in range(t):
            lcm = ring.lcm(lms[i], h.lm)
            pending.add((i, t))
            heapq.heappush(heap, (ring.deg(lcm), ring.key(lcm), i, t))

    while candidates or heap:
        if candidates:
            h = reduce_by(candidates.popleft(), table)
            if not h.is_zero:
                add_element(h)
            continue
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lcm = ring.lcm(lms[i], lms[j])
        if lcm == lms[i] + lms[j]:
            continue
        chain = False
        for t, lmt in enumerate(lms):
            if t == i or t == j:
                continue
            if (
                ring.divides(lmt, lcm)
                and (min(i, t), max(i, t)) not in pending
                and (min(j, t), max(j, t)) not in pending
            ):
                chain = True
                break
        if chain:
            continue
        s = reduce_by(s_polynomial(basis[i], basis[j], lcm), table)
        if not s.is_zero:
            add_element(s)

    return _reduce_basis(basis)


def eliminate(gens, k, degree_cap=DEFAULT_DEGREE_CAP, target_ring=None):
    """Generators of the contraction to the subring without the first k variables."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    ring = gens[0].ring
    elim_ring = ring.with_order(elimination_block(k))
    gb = buchberger([elim_ring.transplant(g) for g in gens], degree_cap)
    mask = (1 << (8 * k)) - 1
    out_ring = target_ring if target_ring is not None else ring.restricted(k)
    kept = []
    for g in gb:
        if all((m & mask) == 0 for m in g.mapping()):
            kept.append(out_ring.project_front(g, k))
    return tuple(kept)


def exact_divide(f, g):
    """Quotient f/g when g divides f exactly; anything else is an engine bug."""
    ring = f.ring
    if g.is_zero:
        raise ExactDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    p = ring.field.p
    inv_lc = ring.field.inv(g.lc)
    glm = g.lm
    gterms = g.terms
    rest = dict(f.mapping())
    quot = {}
    while rest:
        m = max(rest, key=ring.key)
        c = rest.pop(m)
        if not ring.divides(glm, m):
            raise ExactDivisionError("inexact polynomial division")
        qm = m - glm
        qc = (c * inv_lc) % p
        quot[qm] = qc
        for mg, cg in gterms:
            if mg == glm:
                continue
            t = qm + mg
            v = (rest.get(t, 0) - qc * cg) % p
            if v:
                rest[t] = v
            else:
                rest.pop(t, None)
    return Polynomial(ring, quot)


def dimension_from_leading_terms(lead_monomials, ring):
    """Krull dimension of S/I from the leading monomials of a GB of I.

    The dimension equals the largest size of a variable subset touching
    no leading monomial's support (independent-set method).
    """
    if any(m == 0 for m in lead_monomials):
        return -1
    supports = []
    for m in set(lead_monomials):
        exps = ring.decode(m)
        supports.append(frozenset(i for i, e in enumerate(exps) if e))
    nvars = ring.nvars
    for size in range(nvars, 0, -1):
        for subset in combinations(range(nvars), size):
            sub = set(subset)
            if all(not s <= sub for s in supports):
                return size
    return 0
