"""Local lengths lambda((A/B)_m) and Hilbert functions.

The length of (A/B) localized at the origin is obtained from truncated
colengths: for N large,

    lambda((A/B)_m) = dim_k S/(B + H + m^N) - dim_k S/(A + H + m^N).

Why this works: S/(X + m^N) is supported only at the origin, so its
k-dimension equals the local length of S_m/(X_m + m^N).  From the exact
sequence 0 -> (A + m^N)/(B + m^N) -> S/(B + m^N) -> S/(A + m^N) -> 0 the
difference equals lambda(A_m/(B_m + A_m cap m^N)) (the modular law
applies because B_m is contained in A_m).  When (A/B)_m has finite
length, m^t A_m falls inside B_m for t large, and the Artin-Rees lemma
pushes A_m cap m^N below m^{N-c} A_m, so the difference stabilizes at
lambda((A/B)_m).  The sequence is non-decreasing in N; two consecutive
schedule values agreeing is the stabilization test, and running past the
cap without agreement reports the length as INFINITE.

For homogeneous X the truncated colength needs no new Groebner basis:
(X + m^N)_d = X_d for d < N, and in(X) has the same Hilbert function as
X, so dim_k S/(X + m^N) is the staircase count of the leading monomials
of the cached basis of X below N (the pivot recursion of Bayer and
Stillman).  Inhomogeneous X adjoins x_i^N and runs Buchberger.
"""

from dataclasses import dataclass
from math import comb

from .errors import NotLocallyContained
from .groebner import buchberger

INFINITE = float("inf")

TRUNCATION_STEP = 4
TRUNCATION_CAP = 60

_COLENGTH_CACHE = {}
_LENGTH_CACHE = {}
_STAIRCASE_CACHE = {}


@dataclass(frozen=True)
class LocalLength:
    """A local colength: value is a nonnegative int, or INFINITE."""

    value: object
    stabilized_at: object = None

    @property
    def is_finite(self):
        return self.value != INFINITE

    def __int__(self):
        if not self.is_finite:
            raise ValueError("length is infinite")
        return int(self.value)


def _minimalize(gens):
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    kept = []
    for g in gens:
        if not any(all(x <= y for x, y in zip(h, g)) for h in kept):
            kept.append(g)
    return tuple(kept)


def count_standard_below(lead_exps, bound, nvars):
    """Number of monomials of degree < bound outside the monomial ideal.

    Pivot recursion: splitting on a variable x gives
    |std(M)_{<N}| = |std(M + (x))_{<N}| + |std(M : x)_{<N-1}|.
    Base cases are the empty ideal and ideals of pure variable powers.
    """
    if bound <= 0:
        return 0
    gens = _minimalize(tuple(tuple(e) for e in lead_exps))
    return _count(gens, bound, nvars)


def _count(gens, bound, nvars):
    if bound <= 0:
        return 0
    if any(sum(g) == 0 for g in gens):
        return 0
    if not gens:
        return comb(bound - 1 + nvars, nvars)
    key = (gens, bound)
    got = _STAIRCASE_CACHE.get(key)
    if got is not None:
        return got
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        caps = [bound] * nvars
        for g in gens:
            for i, e in enumerate(g):
                if e:
                    caps[i] = min(caps[i], e)
        ways = [0] * bound
        ways[0] = 1
        for cap in caps:
            prefix = [0] * (bound + 1)
            for d in range(bound):
                prefix[d + 1] = prefix[d] + ways[d]
            new = [0] * bound
            for d in range(bound):
                lo = max(0, d - (cap - 1))
                new[d] = prefix[d + 1] - prefix[lo]
            ways = new
        got = sum(ways)
    else:
        counts = [0] * nvars
        for g in mixed:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
        j = counts.index(max(counts))
        pivot = tuple(1 if i == j else 0 for i in range(nvars))
        with_pivot = _minimalize(tuple(g for g in gens if g[j] == 0) + (pivot,))
        quotient = _minimalize(
            tuple(tuple(max(e - 1, 0) if i == j else e for i, e in enumerate(g)) for g in gens)
        )
        got = _count(with_pivot, bound, nvars) + _count(quotient, bound - 1, nvars)
    _STAIRCASE_CACHE[key] = got
    return got


def truncated_colength(handle, bound, homogeneous=True):
    """dim_k of S modulo the handle plus an origin-primary truncation ideal.

    Homogeneous data uses m^bound: the count is read off the leading
    monomials of the cached basis, which is exact because the reduced
    basis of a homogeneous ideal is homogeneous, so the standard
    monomials of degree d span (S/X)_d.  Inhomogeneous data instead
    adjoins the pure powers x_i^bound, a cofinal family with the same
    stabilized differences, and runs Buchberger on them.
    """
    key = (handle.ambient, handle.gb, bound, homogeneous)
    got = _COLENGTH_CACHE.get(key)
    if got is None:
        ring = handle.ambient.ring
        if homogeneous:
            if not handle.is_homogeneous:
                raise ValueError("homogeneous truncation of an inhomogeneous ideal")
            got = count_standard_below([ring.decode(g.lm) for g in handle.gb], bound, ring.nvars)
        else:
            powers = [ring.variable(i) ** bound for i in range(ring.nvars)]
            gb = buchberger(list(handle.gb) + powers, degree_cap=10**6)
            lead = [ring.decode(g.lm) for g in gb]
            got = count_standard_below(lead, ring.nvars * bound + 1, ring.nvars)
        _COLENGTH_CACHE[key] = got
    return got


def quotient_length(big, small, check=True):
    """lambda((big/small)_m) for ideals small <= big locally at the origin.

    Truncation exponents run N0, N0+4, ... with N0 six above the largest
    generator degree; agreement of two consecutive values is the
    stabilization test.  INFINITE (no stabilization by TRUNCATION_CAP) is a
    legitimate result, not an error.
    """
    if big.ambient != small.ambient:
        raise NotLocallyContained("ideals over different ambient rings")
    if check and not big.contains_locally(small):
        raise NotLocallyContained("quotient_length needs local containment")
    key = (big.ambient, big.gb, small.gb)
    got = _LENGTH_CACHE.get(key)
    if got is not None:
        return got
    start = (
        max(
            big.max_generator_degree(),
            small.max_generator_degree(),
            max((r.degree for r in big.ambient.relations), default=0),
        )
        + 6
    )
    homogeneous = big.is_homogeneous and small.is_homogeneous
    prev = None
    prev_n = None
    n = start
    while n <= TRUNCATION_CAP:
        val = truncated_colength(small, n, homogeneous) - truncated_colength(big, n, homogeneous)
        if val == prev:
            got = LocalLength(val, prev_n)
            break
        prev = val
        prev_n = n
        n += TRUNCATION_STEP
    else:
        got = LocalLength(INFINITE, None)
    _LENGTH_CACHE[key] = got
    return got


def is_m_primary(handle):
    """Whether lambda(R/handle) is finite at the origin.

    Decided through the Krull dimension of S/(handle + H), matching the
    toolkit-wide convention that the global dimension stands in for the
    local one (all supported inputs have every component through the
    origin), so the answer needs no truncation sweep.
    """
    if handle.is_unit_locally():
        return True
    return handle.krull_dim() == 0


def hilbert_function(ideal_bar, n):
    """lambda(I^n / I^{n+1}) in the ambient of ideal_bar, which must be
    primary to the maximal ideal there (checked via a finite colength)."""
    if not is_m_primary(ideal_bar):
        raise NotLocallyContained("Hilbert function needs an m-primary ideal")
    return int(quotient_length(ideal_bar**n, ideal_bar ** (n + 1)))
