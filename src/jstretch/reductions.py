"""General minimal reductions and the invariants built from them.

A reduction datum fixes, once per analysis, a matrix of uniformly random
coefficients over the prime field: the resulting elements x_1, ..., x_d
stand in for general elements of I, the ideal J they generate for a
general minimal reduction, and R/(J_{d-1} : I^infinity) for the
one-dimensional residual quotient in which I becomes primary to the
maximal ideal.  Every downstream invariant (reduction number, index of
nilpotency, j-multiplicity, the nu-sequence, ...) refers to the same
fixed datum; re-randomizing between operations would silently compare
different reductions.  Randomness over F_p approximates membership in a
dense open set; the sampler seed and the characteristic are exposed so
callers can rerun trials.
"""

import random

from .errors import CapExceeded
from .field import PrimeField
from .ideals import AmbientRing, IdealHandle
from .lengths import quotient_length

SEARCH_CAP = 20


class GeneralSampler:
    """Deterministic stream of uniform coefficients: same seed, same stream."""

    def __init__(self, seed, field=None):
        self.seed = seed
        self.field = field if field is not None else PrimeField()
        self._rng = random.Random(seed)

    def coeff(self):
        return self._rng.getrandbits(31) % self.field.p

    def row(self, n):
        """A length-n coefficient row, resampled until it is nonzero."""
        if n == 0:
            return ()
        while True:
            row = tuple(self.coeff() for _ in range(n))
            if any(row):
                return row

    def combination(self, polys):
        """A random linear combination of the given polynomials."""
        row = self.row(len(polys))
        result = polys[0].ring.zero()
        for c, g in zip(row, polys):
            result = result + c * g
        return result


class ReductionData:
    """A sampled general minimal reduction J of I with its residual data.

    The saturation sat = J_{d-1} : I^infinity is built on first use, so
    callers that only read J never pay for it.
    """

    def __init__(self, I, seed, lam, xs):
        ambient = I.ambient
        d = ambient.dimension
        self.I = I
        self.ambient = ambient
        self.d = d
        self.seed = seed
        self.lam = lam
        self.xs = xs
        self.J = IdealHandle(ambient, xs)
        self.Jd1 = IdealHandle(ambient, xs[: d - 1])
        self._sat = None
        self.xd = xs[-1] if xs else ambient.ring.zero()
        self._rbar = None
        self._ipow = {0: ambient.unit_ideal(), 1: I}
        self._ibarpow = {}
        self._ji = {}
        self._jibar = {}

    def __eq__(self, other):
        if not isinstance(other, ReductionData):
            return NotImplemented
        return self.I == other.I and self.lam == other.lam

    # The residual quotient only exists when the spread is maximal, so all
    # Rbar-side data is built on first use rather than at sampling time.

    @property
    def sat(self):
        if self._sat is None:
            self._sat = self.Jd1.saturate(self.I)
        return self._sat

    @property
    def Rbar(self):
        if self._rbar is None:
            if self.sat.is_unit_locally():
                raise ValueError("residual quotient is zero: analytic spread below d")
            self._rbar = AmbientRing(self.ambient.ring, self.sat.gb, self.ambient.gb_cap)
        return self._rbar

    @property
    def Ibar(self):
        return self.Rbar.ideal(self.I.generators)

    @property
    def Jbar(self):
        return self.Rbar.ideal(self.xs)

    @property
    def xd_bar(self):
        return self.Rbar.ideal((self.xd,))

    def Ipow(self, n):
        got = self._ipow.get(n)
        if got is None:
            got = IdealHandle(self.ambient, (self.I ** n).generators)
            self._ipow[n] = got
        return got

    def Ibarpow(self, n):
        got = self._ibarpow.get(n)
        if got is None:
            got = self.Rbar.ideal((self.Ibar**n).generators)
            self._ibarpow[n] = got
        return got

    def JIpow(self, n):
        """J * I^n."""
        got = self._ji.get(n)
        if got is None:
            got = self.J * self.Ipow(n)
            self._ji[n] = got
        return got

    def JIbarpow(self, n):
        got = self._jibar.get(n)
        if got is None:
            got = self.Jbar * self.Ibarpow(n)
            self._jibar[n] = got
        return got


def sample_reduction(I, sampler):
    """Sample d general elements of I and assemble the reduction datum."""
    ambient = I.ambient
    d = ambient.dimension
    if d < 1:
        raise ValueError("ambient ring must have positive dimension")
    gens = I.generators
    lam = tuple(sampler.row(len(gens)) for _ in range(d))
    xs = []
    for row in lam:
        x = ambient.ring.zero()
        for c, g in zip(row, gens):
            x = x + c * g
        xs.append(x)
    return ReductionData(I, sampler.seed, lam, tuple(xs))


def max_spread_check(rd):
    """Whether the residual quotient ring is nonzero locally, i.e. l(I) = d."""
    return not rd.sat.is_unit_locally()


def _require_spread(rd):
    if not max_spread_check(rd):
        raise ValueError("operation needs maximal analytic spread (Rbar nonzero)")


def reduction_number(rd, cap=SEARCH_CAP):
    """Least r with I^{r+1} = J I^r locally at the origin."""
    _require_spread(rd)
    for r in range(cap + 1):
        if rd.JIpow(r).contains_locally(rd.Ipow(r + 1)):
            return r
    raise CapExceeded(f"no reduction number found up to {cap}")


def index_of_nilpotency(rd, cap=SEARCH_CAP):
    """Least n with I^{n+1} contained in J locally at the origin."""
    _require_spread(rd)
    for n in range(cap + 1):
        if rd.J.contains_locally(rd.Ipow(n + 1)):
            return n
    raise CapExceeded(f"no nilpotency index found up to {cap}")


class JMultiplicity(int):
    """The j-multiplicity, carrying its split lambda(I/I^2) + lambda(I^2/x_d I)."""

    def __new__(cls, value, split):
        self = super().__new__(cls, value)
        self.split = split
        return self


def j_multiplicity(rd):
    """lambda(Ibar / x_d Ibar) in the residual quotient, with its split.

    The total must equal lambda(Ibar/Ibar^2) + lambda(Ibar^2/x_d Ibar);
    a mismatch would mean the truncation stabilized on a wrong plateau,
    so it is asserted rather than trusted.
    """
    _require_spread(rd)
    xdI = rd.xd_bar * rd.Ibar
    total = quotient_length(rd.Ibar, xdI)
    first = quotient_length(rd.Ibar, rd.Ibarpow(2))
    second = quotient_length(rd.Ibarpow(2), xdI)
    if total.value != first.value + second.value:
        raise ArithmeticError(
            f"j-multiplicity split mismatch: {total.value} != {first.value} + {second.value}"
        )
    return JMultiplicity(int(total), (int(first), int(second)))
