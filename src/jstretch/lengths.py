"""Local lengths lambda((A/B)_m) and Hilbert functions.

Graded input is exact.  For homogeneous B <= A the quotient A/B is a
graded module, so it is supported at the origin exactly when it has
finite length, and then its local length is its k-dimension.  A
homogeneous ideal X has the Hilbert function of the monomial ideal
in(X) spanned by the leading monomials of its cached basis, so

    HS(S/X) = N_X(t) / (1 - t)^n,    HS(A/B) = (N_B(t) - N_A(t)) / (1 - t)^n,

where the numerator N_X comes from the pivot recursion of Bayer and
Stillman.  A/B has finite length exactly when (1 - t)^n divides
N_B - N_A, and the length is the quotient's value at t = 1.  No
truncation, cap or plateau is involved, and INFINITE is exact.

Inhomogeneous input uses truncated colengths: with Q_N = (x_1^N, ...,
x_n^N), for N large

    lambda((A/B)_m) = dim_k S/(B + H + Q_N) - dim_k S/(A + H + Q_N).

Why this works: S/(X + Q_N) is supported only at the origin, so its
k-dimension equals the local length of S_m/(X_m + Q_N).  From the exact
sequence 0 -> (A + Q_N)/(B + Q_N) -> S/(B + Q_N) -> S/(A + Q_N) -> 0 the
difference equals lambda(A_m/(B_m + A_m cap Q_N)) (the modular law
applies because B_m is contained in A_m).  When (A/B)_m has finite
length, m^t A_m falls inside B_m for t large, and the Artin-Rees lemma
pushes A_m cap Q_N below m^{N-c} A_m, so the difference stabilizes at
lambda((A/B)_m).  The sequence is non-decreasing in N; two consecutive
schedule values agreeing is the stabilization test, and running past the
cap without agreement reports the length as INFINITE.  Each truncated
colength adjoins the x_i^N and runs Buchberger.
"""

from dataclasses import dataclass
from itertools import accumulate
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
    """A local colength: value is a nonnegative int, or INFINITE.

    stabilized_at is the truncation exponent at which the schedule of an
    inhomogeneous length stabilized; it is None for graded lengths, which
    are exact, and for INFINITE.
    """

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


def _plus_shifted(p, q, shift, sign=1):
    """p + sign * t^shift * q for coefficient tuples indexed from t^0."""
    out = list(p) + [0] * max(0, len(q) + shift - len(p))
    for i, c in enumerate(q):
        out[i + shift] += sign * c
    return tuple(out)


def hilbert_numerator(lead_exps):
    """N_M(t) with HS(S/M) = N_M(t)/(1 - t)^n, for the monomial ideal M
    generated by the exponent vectors, as coefficients from t^0 up.

    Pivot recursion: for a pivot p = x_j^e, the exact sequence
    0 -> S/(M : p)(-e) -> S/M -> S/(M + (p)) -> 0 gives
    N(M) = N(M + (p)) + t^e N(M : p).  Base cases: M containing 1 gives
    0, the zero ideal gives 1, and pure powers x_i^a_i give the product
    of the (1 - t^a_i).
    """
    return _numerator(_minimalize(tuple(tuple(e) for e in lead_exps)))


def _numerator(gens):
    if any(sum(g) == 0 for g in gens):
        return ()
    if not gens:
        return (1,)
    got = _STAIRCASE_CACHE.get(gens)
    if got is not None:
        return got
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        got = (1,)
        for g in gens:
            got = _plus_shifted(got, got, sum(g), -1)
    else:
        nvars = len(gens[0])
        counts = [sum(1 for g in mixed if g[i]) for i in range(nvars)]
        j = counts.index(max(counts))
        e = min(g[j] for g in mixed if g[j])
        pivot = tuple(e if i == j else 0 for i in range(nvars))
        with_pivot = _minimalize(tuple(g for g in gens if g[j] < e) + (pivot,))
        quotient = _minimalize(
            tuple(tuple(max(x - e, 0) if i == j else x for i, x in enumerate(g)) for g in gens)
        )
        got = _plus_shifted(_numerator(with_pivot), _numerator(quotient), e)
    _STAIRCASE_CACHE[gens] = got
    return got


def numerator_length(numerator, nvars):
    """The value at t = 1 of numerator / (1 - t)^nvars, or INFINITE when
    that quotient is not a polynomial (some division leaves a remainder)."""
    coeffs = list(numerator)
    for _ in range(nvars):
        if sum(coeffs) != 0:
            return INFINITE
        # p = (1 - t) q with q_i = p_0 + ... + p_i once p(1) = 0
        coeffs = list(accumulate(coeffs))[:-1]
    return sum(coeffs)


def _basis_numerator(gb, ring):
    return hilbert_numerator([ring.decode(g.lm) for g in gb])


def count_standard_below(lead_exps, bound, nvars):
    """Number of monomials of degree < bound outside the monomial ideal.

    A partial sum of the Hilbert series: sum over i < bound of
    N_i * C(bound - 1 - i + n, n), N the Hilbert-series numerator.
    """
    numerator = hilbert_numerator(lead_exps)
    return sum(c * comb(bound - 1 - i + nvars, nvars) for i, c in enumerate(numerator[: max(bound, 0)]))


def truncated_colength(handle, bound):
    """dim_k S/(X + H + (x_1^bound, ..., x_n^bound)) for the handle's X.

    Adjoins the pure powers to the cached basis and runs Buchberger; the
    resulting ideal is Artinian, so its Hilbert-series numerator gives
    the count.
    """
    key = (handle.ambient, handle.gb, bound)
    got = _COLENGTH_CACHE.get(key)
    if got is None:
        ring = handle.ambient.ring
        powers = [ring.variable(i) ** bound for i in range(ring.nvars)]
        gb = buchberger(list(handle.gb) + powers, degree_cap=10**6)
        got = numerator_length(_basis_numerator(gb, ring), ring.nvars)
        _COLENGTH_CACHE[key] = got
    return got


def quotient_length(big, small, check=True):
    """lambda((big/small)_m) for ideals small <= big locally at the origin.

    Homogeneous big and small: exact, from the Hilbert-series numerators
    of the cached bases, with stabilized_at None.  Otherwise truncation
    exponents run N0, N0+4, ... with N0 six above the largest generator
    degree; agreement of two consecutive values is the stabilization
    test, and no stabilization by TRUNCATION_CAP gives INFINITE.  INFINITE
    is a legitimate result, not an error.
    """
    if big.ambient != small.ambient:
        raise NotLocallyContained("ideals over different ambient rings")
    if check and not big.contains_locally(small):
        raise NotLocallyContained("quotient_length needs local containment")
    key = (big.ambient, big.gb, small.gb)
    got = _LENGTH_CACHE.get(key)
    if got is not None:
        return got
    if big.is_homogeneous and small.is_homogeneous:
        ring = big.ambient.ring
        difference = _plus_shifted(_basis_numerator(small.gb, ring), _basis_numerator(big.gb, ring), 0, -1)
        got = LocalLength(numerator_length(difference, ring.nvars))
    else:
        got = _truncated_length(big, small)
    _LENGTH_CACHE[key] = got
    return got


def _truncated_length(big, small):
    start = (
        max(
            big.max_generator_degree(),
            small.max_generator_degree(),
            max((r.degree for r in big.ambient.relations), default=0),
        )
        + 6
    )
    prev = None
    prev_n = None
    n = start
    while n <= TRUNCATION_CAP:
        val = truncated_colength(small, n) - truncated_colength(big, n)
        if val == prev:
            return LocalLength(val, prev_n)
        prev = val
        prev_n = n
        n += TRUNCATION_STEP
    return LocalLength(INFINITE, None)


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
