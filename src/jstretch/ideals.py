"""Ideal calculus in an ambient quotient ring R = S/H localized at the origin.

Every ideal of R is represented by preimage generators in the polynomial
ring S; the relations H are adjoined to every Groebner basis computation,
so a single engine serves both S and R.  Handles are immutable, their
reduced Groebner basis is computed once and shared, and all derived
operations are memoized on the canonical basis, so repeated queries
across an analysis are free.

Intersections eliminate a fresh scalar t from t*A + (1-t)*B; colons
intersect the element colons (A cap (b)) / b.  Saturation A : B^infinity
uses the Rabinowitsch trick: for each generator f of B,
A : f^infinity = (A + H + (1 - u*f)) cap S for a fresh variable u, one
elimination per generator, and the parts are intersected.
"""

from itertools import combinations_with_replacement

from .errors import AmbientMismatch, NotContainedInMaximal
from .groebner import (
    DEFAULT_DEGREE_CAP,
    buchberger,
    dimension_from_leading_terms,
    eliminate,
    exact_divide,
    normal_form,
)
from .orders import elimination_block
from .poly import Polynomial

_GB_CACHE = {}
_OP_CACHE = {}


def _fresh_name(names):
    name = "_t"
    while name in names:
        name = "_" + name
    return name


class AmbientRing:
    """A polynomial ring S plus relations H presenting R = S/H at the origin.

    All relations must vanish at the origin, so the variables generate a
    maximal ideal of R and localization there is meaningful.
    """

    def __init__(self, ring, relations=(), gb_cap=DEFAULT_DEGREE_CAP):
        relations = tuple(r for r in relations if not r.is_zero)
        for r in relations:
            if r.ring != ring:
                raise AmbientMismatch("relation over a different ring")
            if r.constant_term:
                raise ValueError("relations must vanish at the origin")
        self.ring = ring
        self.relations = relations
        self.gb_cap = gb_cap
        self._sig = (ring, frozenset(relations))
        self._dimension = None

    def __eq__(self, other):
        return isinstance(other, AmbientRing) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        return f"AmbientRing({self.ring!r}, {len(self.relations)} relations)"

    def ideal(self, *gens):
        if len(gens) == 1 and isinstance(gens[0], (tuple, list)):
            gens = tuple(gens[0])
        return IdealHandle(self, tuple(gens))

    def parse_ideal(self, *texts):
        return self.ideal(tuple(self.ring.parse(t) for t in texts))

    def zero_ideal(self):
        return self.ideal(())

    def unit_ideal(self):
        return self.ideal((self.ring.one(),))

    @property
    def maximal_ideal(self):
        return self.ideal(self.ring.variables())

    @property
    def dimension(self):
        """Krull dimension of R = S/H."""
        if self._dimension is None:
            self._dimension = self.zero_ideal().krull_dim()
        return self._dimension


class IdealHandle:
    """An ideal of R, held as preimage generators in S with a cached GB."""

    def __init__(self, ambient, generators):
        gens = []
        for g in generators:
            if isinstance(g, int):
                g = ambient.ring.constant(g)
            if g.ring != ambient.ring:
                raise AmbientMismatch("generator over a different ring")
            if not g.is_zero:
                gens.append(g)
        self.ambient = ambient
        self.generators = tuple(gens)
        self._gb = None

    @property
    def gb(self):
        """The reduced Groebner basis of (generators) + H; canonical."""
        if self._gb is None:
            key = (self.ambient, self.ambient.gb_cap, frozenset(self.generators))
            got = _GB_CACHE.get(key)
            if got is None:
                got = buchberger(
                    list(self.generators) + list(self.ambient.relations),
                    self.ambient.gb_cap,
                )
                _GB_CACHE[key] = got
            self._gb = got
        return self._gb

    def __eq__(self, other):
        if not isinstance(other, IdealHandle):
            return NotImplemented
        return self.ambient == other.ambient and self.gb == other.gb

    __hash__ = None

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators[:6])
        if len(self.generators) > 6:
            inside += ", ..."
        return f"ideal({inside})"

    def _check(self, other):
        if not isinstance(other, IdealHandle):
            raise TypeError("expected an ideal handle")
        if self.ambient != other.ambient:
            raise AmbientMismatch("ideals over different ambient rings")

    def _memo(self, op, other_key):
        return (op, self.ambient, self.ambient.gb_cap, self.gb, other_key)

    # -- basic algebra ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return IdealHandle(self.ambient, self.generators + other.generators)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            other = IdealHandle(self.ambient, (other,))
        self._check(other)
        if not self.generators or not other.generators:
            return self.ambient.zero_ideal()
        gens = tuple(a * b for a in self.generators for b in other.generators)
        return IdealHandle(self.ambient, gens)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative ideal power")
        if n == 0:
            return self.ambient.unit_ideal()
        gens = tuple(
            _product(combo) for combo in combinations_with_replacement(self.generators, n)
        )
        return IdealHandle(self.ambient, gens)

    # -- membership ------------------------------------------------------

    def contains(self, element_or_ideal):
        """Global containment in R (normal form against the cached GB)."""
        if isinstance(element_or_ideal, IdealHandle):
            self._check(element_or_ideal)
            return all(self.contains(g) for g in element_or_ideal.generators)
        return normal_form(element_or_ideal, self.gb).is_zero

    def is_unit_locally(self):
        """Whether the ideal is the unit ideal after localizing at the origin."""
        return any(g.constant_term for g in self.gb)

    @property
    def is_homogeneous(self):
        """Whether the ideal (with relations) admits homogeneous generators."""
        return all(g.is_homogeneous for g in self.gb)

    def contains_locally(self, other):
        """Whether other is contained in self in the localization at m.

        Three exact tiers, the first that applies decides:

        1. global containment (normal form against the cached basis)
           proves local containment;
        2. for homogeneous self and other the local and global answers
           coincide (a unit multiple u*b in self forces its lowest-degree
           component b in by gradedness), so a global failure is final;
        3. otherwise b lies in self locally iff the element colon
           (self : b) holds a local unit, tested for each generator b.
        """
        self._check(other)
        key = self._memo("contains_locally", other.gb)
        got = _OP_CACHE.get(key)
        if got is None:
            if self.contains(other):
                got = True
            elif self.is_homogeneous and other.is_homogeneous:
                got = False
            else:
                # no need to intersect the element colons for a containment test
                got = all(
                    IdealHandle(self.ambient, self._element_colon(b)).is_unit_locally()
                    for b in self._colon_generating_set(other)
                )
            _OP_CACHE[key] = got
        return got

    def locally_equal(self, other):
        return self.contains_locally(other) and other.contains_locally(self)

    # -- intersection, colon, saturation ----------------------------------

    def intersect(self, other):
        """A cap B via elimination of a fresh scalar: (t*A + (1-t)*B) cap S.

        The cached reduced bases stand in for the raw generators (plus
        relations): same ideals, far fewer elimination inputs.
        """
        self._check(other)
        key = self._memo("intersect", other.gb)
        got = _OP_CACHE.get(key)
        if got is None:
            got = _intersect_raw(self.ambient, self.gb, other.gb)
            _OP_CACHE[key] = got
        return IdealHandle(self.ambient, got)

    def colon(self, other):
        """(self : other) in R, as the intersection of the element colons."""
        self._check(other)
        key = self._memo("colon", other.gb)
        got = _OP_CACHE.get(key)
        if got is None:
            got = self._colon_gens(other)
            _OP_CACHE[key] = got
        return IdealHandle(self.ambient, got)

    def _colon_generating_set(self, other):
        """Generators of other's image ideal: the smaller of its raw
        generators and its GB with relations-members dropped."""
        relations_gb = self.ambient.zero_ideal().gb
        reduced = [g for g in other.gb if not normal_form(g, relations_gb).is_zero]
        return reduced if len(reduced) < len(other.generators) else list(other.generators)

    def _element_colon(self, b):
        """(self : b) as generators, via (self cap (b)) / b."""
        inter = _intersect_raw(self.ambient, self.gb, (b,))
        return tuple(exact_divide(g, b) for g in inter)

    def _colon_gens(self, other):
        parts = [self._element_colon(b) for b in self._colon_generating_set(other)]
        return _intersect_all(self.ambient, parts)

    def saturate(self, other):
        """(self : other^infinity) by one Rabinowitsch elimination per generator.

        For each generator f of other's image, (self : f^infinity) is
        (self + H + (1 - u*f)) cap S for a fresh variable u, read off one
        elimination; the saturation by other is the intersection of these
        parts, and the unit ideal when other is zero in R.
        """
        self._check(other)
        key = self._memo("saturate", other.gb)
        got = _OP_CACHE.get(key)
        if got is None:
            parts = [self._element_saturation(f) for f in self._colon_generating_set(other)]
            got = _intersect_all(self.ambient, parts)
            _OP_CACHE[key] = got
        return IdealHandle(self.ambient, got)

    def _element_saturation(self, f):
        """(self : f^infinity) as generators, via (self + H + (1 - u*f)) cap S."""
        ring = self.ambient.ring
        ext = ring.extended_front((_fresh_name(ring.names),), elimination_block(1))
        u = ext.variable(0)
        lifted = [ext.lift_front(g, 1) for g in self.gb]
        lifted.append(ext.one() - u * ext.lift_front(f, 1))
        return eliminate(lifted, 1, self.ambient.gb_cap, target_ring=ring)

    # -- dimension ---------------------------------------------------------

    def krull_dim(self):
        """Dimension of S/(self + H) by independent sets on the leading ideal."""
        gb = self.gb
        if any(g.constant_term for g in gb):
            raise NotContainedInMaximal("ideal meets the unit group at the origin")
        return dimension_from_leading_terms([g.lm for g in gb], self.ambient.ring)

    def max_generator_degree(self):
        return max((g.degree for g in self.generators), default=0)


def _product(polys):
    result = polys[0]
    for p in polys[1:]:
        result = result * p
    return result


def _intersect_all(ambient, parts):
    """Generators of the intersection of the ideals generated by parts; R for none."""
    if not parts:
        return (ambient.ring.one(),)
    result = IdealHandle(ambient, parts[0])
    for gens in parts[1:]:
        result = result.intersect(IdealHandle(ambient, gens))
    return result.generators


def _intersect_raw(ambient, gens_a, gens_b):
    """Generators of (gens_a) cap (gens_b) as ideals of S."""
    ring = ambient.ring
    gens_a = [g for g in gens_a if not g.is_zero]
    gens_b = [g for g in gens_b if not g.is_zero]
    if not gens_a or not gens_b:
        return ()
    ext = ring.extended_front((_fresh_name(ring.names),), elimination_block(1))
    t = ext.variable(0)
    one_minus_t = ext.one() - t
    lifted = [t * ext.lift_front(g, 1) for g in gens_a]
    lifted += [one_minus_t * ext.lift_front(g, 1) for g in gens_b]
    return eliminate(lifted, 1, ambient.gb_cap, target_ring=ring)
