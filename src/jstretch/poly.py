"""Sparse multivariate polynomials over a prime field.

Monomials are exponent vectors packed into Python ints, one byte per
variable (variable 0 in the least significant byte).  Packing keeps the
hot operations cheap: monomial product is integer addition, divisibility
is one masked subtraction.  Exponents must stay below 128; the degree
caps used throughout keep actual computations far from that bound.

A polynomial is an immutable mapping packed-monomial -> nonzero
coefficient together with its ring; term sequences sorted by the active
monomial order are materialized lazily and cached.
"""

from .errors import AmbientMismatch
from .field import PrimeField
from .orders import MonomialOrder, grevlex, negate_key

_SHIFT = 8
_MAX_EXP = 127


class PolyRing:
    """A polynomial ring: variable names, coefficient field, monomial order."""

    def __init__(self, names, field=None, order=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if not names:
            raise ValueError("need at least one variable")
        self.names = names
        self.nvars = len(names)
        self.field = field if field is not None else PrimeField()
        self.order = order if order is not None else grevlex()
        if not isinstance(self.order, MonomialOrder):
            raise TypeError("order must be a MonomialOrder")
        self._high = sum(0x80 << (_SHIFT * i) for i in range(self.nvars))
        self._deg_cache = {}
        self._key_cache = {}
        self._negkey_cache = {}
        self._sig = (self.names, self.field.p, self.order)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; p={self.field.p}; {self.order})"

    # -- packed monomials ------------------------------------------------

    def encode(self, exps):
        m = 0
        for i, e in enumerate(exps):
            if not 0 <= e <= _MAX_EXP:
                raise OverflowError(f"exponent {e} out of packed range")
            m |= e << (_SHIFT * i)
        return m

    def decode(self, m):
        return tuple(m.to_bytes(self.nvars, "little"))

    def deg(self, m):
        d = self._deg_cache.get(m)
        if d is None:
            d = sum(m.to_bytes(self.nvars, "little"))
            self._deg_cache[m] = d
        return d

    def key(self, m):
        k = self._key_cache.get(m)
        if k is None:
            k = self.order.key(self.decode(m))
            self._key_cache[m] = k
        return k

    def negkey(self, m):
        k = self._negkey_cache.get(m)
        if k is None:
            k = negate_key(self.key(m))
            self._negkey_cache[m] = k
        return k

    def divides(self, a, b):
        """Whether monomial a divides monomial b (componentwise <=)."""
        return ((b | self._high) - a) & self._high == self._high

    def lcm(self, a, b):
        ea = a.to_bytes(self.nvars, "little")
        eb = b.to_bytes(self.nvars, "little")
        return int.from_bytes(bytes(max(x, y) for x, y in zip(ea, eb)), "little")

    def mono_str(self, m):
        if m == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.decode(m)):
            if e == 1:
                parts.append(self.names[i])
            elif e > 1:
                parts.append(f"{self.names[i]}^{e}")
        return "*".join(parts)

    # -- polynomial constructors -----------------------------------------

    def from_dict(self, d):
        p = self.field.p
        clean = {}
        for m, c in d.items():
            c %= p
            if c:
                clean[m] = c
        return Polynomial(self, clean)

    def from_exp_terms(self, terms):
        d = {}
        p = self.field.p
        for exps, c in terms:
            m = self.encode(exps)
            d[m] = (d.get(m, 0) + c) % p
        return self.from_dict(d)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.from_dict({0: c})

    def variable(self, which):
        if isinstance(which, str):
            which = self.names.index(which)
        return Polynomial(self, {1 << (_SHIFT * which): 1})

    def variables(self):
        return tuple(self.variable(i) for i in range(self.nvars))

    def parse(self, text):
        from .parsing import parse_polynomial

        return parse_polynomial(self, text)

    # -- derived rings -----------------------------------------------------

    def with_order(self, order):
        return PolyRing(self.names, self.field, order)

    def extended_front(self, new_names, order=None):
        """Ring with new_names prepended; old variables shift up."""
        return PolyRing(tuple(new_names) + self.names, self.field, order or self.order)

    def restricted(self, k, order=None):
        """Ring keeping the variables after the first k."""
        return PolyRing(self.names[k:], self.field, order or grevlex())

    def transplant(self, poly):
        """Reinterpret a polynomial from a ring with identical names/field."""
        if poly.ring.names != self.names or poly.ring.field != self.field:
            raise AmbientMismatch("cannot transplant between different variable sets")
        return Polynomial(self, dict(poly.mapping()))

    def lift_front(self, poly, k):
        """View a polynomial in this ring, which has k extra leading variables."""
        shift = _SHIFT * k
        return Polynomial(self, {m << shift: c for m, c in poly.mapping().items()})

    def project_front(self, poly, k):
        """Drop the first k variables (which must not occur in poly)."""
        shift = _SHIFT * k
        mask = (1 << shift) - 1
        d = {}
        for m, c in poly.mapping().items():
            if m & mask:
                raise ValueError("polynomial involves an eliminated variable")
            d[m >> shift] = c
        return Polynomial(self, d)


class Polynomial:
    """Immutable sparse polynomial; term order follows the ring's order."""

    __slots__ = ("ring", "_d", "_terms", "_deg")

    def __init__(self, ring, d):
        self.ring = ring
        self._d = d
        self._terms = None
        self._deg = None

    def mapping(self):
        return self._d

    @property
    def terms(self):
        """Terms as ((monomial, coeff), ...) strictly descending in the order."""
        if self._terms is None:
            ring = self.ring
            self._terms = tuple(
                (m, self._d[m]) for m in sorted(self._d, key=ring.key, reverse=True)
            )
        return self._terms

    @property
    def is_zero(self):
        return not self._d

    @property
    def lm(self):
        if not self._d:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lc(self):
        return self.terms[0][1]

    @property
    def degree(self):
        """Total degree (max over terms); -1 for the zero polynomial."""
        if self._deg is None:
            ring = self.ring
            self._deg = max((ring.deg(m) for m in self._d), default=-1)
        return self._deg

    @property
    def min_degree(self):
        ring = self.ring
        return min((ring.deg(m) for m in self._d), default=-1)

    @property
    def is_homogeneous(self):
        return self.is_zero or self.degree == self.min_degree

    @property
    def constant_term(self):
        return self._d.get(0, 0)

    def monic(self):
        if self.is_zero:
            return self
        inv = self.ring.field.inv(self.lc)
        if inv == 1:
            return self
        p = self.ring.field.p
        return Polynomial(self.ring, {m: (c * inv) % p for m, c in self._d.items()})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise AmbientMismatch("polynomials over different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.field.p
        d = dict(self._d)
        for m, c in other._d.items():
            v = (d.get(m, 0) + c) % p
            if v:
                d[m] = v
            else:
                d.pop(m, None)
        return Polynomial(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, {m: p - c for m, c in self._d.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.field.p
            if c == 0:
                return self.ring.zero()
            p = self.ring.field.p
            return Polynomial(self.ring, {m: (v * c) % p for m, v in self._d.items()})
        self._check(other)
        if self.degree + other.degree > _MAX_EXP - 1:
            raise OverflowError("product degree exceeds packed exponent range")
        p = self.ring.field.p
        d = {}
        a, b = self._d, other._d
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                v = (d.get(m, 0) + c1 * c2) % p
                if v:
                    d[m] = v
                else:
                    d.pop(m, None)
        return Polynomial(self.ring, d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def mono_multiple(self, m, c=1):
        """self * (c * monomial m) with m packed."""
        p = self.ring.field.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {mm + m: (cc * c) % p for mm, cc in self._d.items()})

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self._d == ({0: other % self.ring.field.p} if other % self.ring.field.p else {})
            return NotImplemented
        return self.ring == other.ring and self._d == other._d

    def __hash__(self):
        return hash((self.ring, frozenset(self._d.items())))

    def __str__(self):
        if self.is_zero:
            return "0"
        p = self.ring.field.p
        parts = []
        for m, c in self.terms:
            balanced = c if c <= p // 2 else c - p
            sign = "-" if balanced < 0 else "+"
            mag = abs(balanced)
            if m == 0:
                body = str(mag)
            elif mag == 1:
                body = self.ring.mono_str(m)
            else:
                body = f"{mag}*{self.ring.mono_str(m)}"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<{self}>"
