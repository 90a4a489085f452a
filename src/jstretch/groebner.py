"""Normal forms, Buchberger's algorithm, elimination, exact division."""

import heapq
from collections import deque
from itertools import chain, combinations

from .errors import DegreeBoundExceeded, ExactDivisionError
from .orders import elimination_block
from .poly import Polynomial

DEFAULT_DEGREE_CAP = 40


def reducer_table(basis):
    """The (lm, 1/lc, tail terms) rows that reduce_by divides by, zeros dropped."""
    return [(g.lm, g.ring.field.inv(g.lc), g.terms[1:]) for g in basis if not g.is_zero]


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
    high = ring.high
    key = ring.key
    pop, push = heapq.heappop, heapq.heappush
    work = dict(f.mapping())
    out = {}
    heap = [(-key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = pop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        # lm divides m: no byte of (m | high) - lm borrows from its 0x80 bit
        mh = m | high
        for lm, inv_lc, tail in reducers:
            if (mh - lm) & high == high:
                break
        else:
            out[m] = c
            continue
        shift = m - lm
        factor = p - (c * inv_lc) % p
        for mg, cg in tail:
            t = shift + mg
            v = (work.get(t, 0) + factor * cg) % p
            if v:
                if t not in work:
                    push(heap, (-key(t), t))
                work[t] = v
            else:
                work.pop(t, None)
    return Polynomial(ring, out)


def s_polynomial(f, g, lcm=None):
    """lcm/lt(f)·f − lcm/lt(g)·g, built in one pass over the two tails."""
    ring = f.ring
    if lcm is None:
        lcm = ring.lcm(f.lm, g.lm)
    p = ring.field.p
    inv = ring.field.inv
    shift, factor = lcm - f.lm, inv(f.lc)
    d = {m + shift: c * factor % p for m, c in f.terms[1:]}
    shift, factor = lcm - g.lm, p - inv(g.lc)
    for m, c in g.terms[1:]:
        t = m + shift
        v = (d.get(t, 0) + c * factor) % p
        if v:
            d[t] = v
        else:
            d.pop(t, None)
    return Polynomial(ring, d)


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

    Pair selection follows the normal strategy (minimal lcm degree, ties
    broken by the monomial order, then indices).  Pairs are pruned once,
    by the Gebauer–Möller update (J. Symb. Comp. 6, 1988), when an
    element h is inserted:

    - criterion B_k drops a pending pair whose lcm the leading monomial
      of h divides, unless its lcm with h equals the lcm of either half;
    - among the new pairs with h, criterion M drops one whose lcm
      another new lcm divides, and criterion F keeps one of each equal
      lcm; a pair with coprime leading monomials is never reduced
      (product criterion), nor is any of equal lcm;
    - an element whose leading monomial that of h divides forms no more
      pairs, but stays a reducer.

    A popped pair is reduced with no further test.  Raises
    DegreeBoundExceeded when an intermediate element passes degree_cap.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    ring = gens[0].ring
    high = ring.high
    lcm_of = ring.lcm

    basis = []
    table = []  # reducer_table(basis), grown with it
    lms = []
    active = []  # indices of the elements that still form pairs
    pending = {}  # (i, j) -> lcm of the pairs left to reduce
    heap = []
    candidates = deque(sorted(gens, key=lambda g: ring.key(g.lm)))

    def add_element(h):
        if h.degree > degree_cap:
            raise DegreeBoundExceeded(h.degree, degree_cap)
        h = h.monic()
        t = len(basis)
        lm = h.lm
        lcms = [lcm_of(g, lm) for g in lms]
        # criterion B_k on the pending pairs
        for (i, j), lcm in list(pending.items()):
            if ((lcm | high) - lm) & high == high and lcms[i] != lcm and lcms[j] != lcm:
                del pending[i, j]
        new = [lcms[i] for i in active]
        kept = []  # lcms of the new pairs that criteria M and F leave
        for pos, i in enumerate(active):
            lcm = new[pos]
            if lcm == lms[i] + lm:  # coprime: never reduced, but still a divisor
                kept.append(lcm)
                continue
            lh = lcm | high
            for d in chain(new[pos + 1 :], kept):
                if (lh - d) & high == high:
                    break
            else:
                pending[i, t] = lcm
                heapq.heappush(heap, (ring.deg(lcm), ring.key(lcm), i, t))
                kept.append(lcm)
        # an element whose leading monomial lm divides forms no more pairs
        active[:] = [i for i in active if ((lms[i] | high) - lm) & high != high]
        active.append(t)
        basis.append(h)
        table.append((lm, 1, h.terms[1:]))  # h is monic
        lms.append(lm)

    while candidates or heap:
        if candidates:
            h = reduce_by(candidates.popleft(), table)
            if not h.is_zero:
                add_element(h)
            continue
        _, _, i, j = heapq.heappop(heap)
        lcm = pending.pop((i, j), None)
        if lcm is None:
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
