"""Monomial orders as integer sort keys on packed monomials.

A monomial is an exponent vector packed into a Python int, one byte per
variable with variable 0 in the least significant byte (see `poly`).  An
order on n variables is realized by `MonomialOrder.packed_key(n)`, a
function from packed monomials to ints: monomial a exceeds monomial b
exactly when key(a) > key(b).  With every exponent below 128:

- grevlex: deg(m) << 8n | (low7 - m), where low7 holds 0x7F in every
  byte.  The low part compares 127 - e_i from the last variable down, so
  at equal degree the smaller exponent of the last differing variable
  wins.
- lex: the bytes of m reversed, so variable 0 is the most significant.
- elim(k): the grevlex key of the first k variables, shifted above the
  grevlex key of the rest.

All three orders are total, multiplicative and well-orders (1 is
minimal), which the test suite checks on random samples against the
exponent-tuple keys they encode.
"""

from dataclasses import dataclass

GREVLEX = "grevlex"
LEX = "lex"
ELIM = "elim"


def _grevlex_key(n):
    low7 = int.from_bytes(b"\x7f" * n, "little")
    shift = 8 * n

    def key(m):
        return sum(m.to_bytes(n, "little")) << shift | (low7 - m)

    return key


def _lex_key(n):
    def key(m):
        return int.from_bytes(m.to_bytes(n, "little"), "big")

    return key


def _elim_key(k, n):
    front, back = _grevlex_key(k), _grevlex_key(n - k)
    shift = 8 * k
    mask = (1 << shift) - 1
    # the back key is below 2**width, as its degree is at most 0x7F per variable
    width = 8 * (n - k) + (0x7F * (n - k)).bit_length()

    def key(m):
        return front(m & mask) << width | back(m >> shift)

    return key


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    block: int = 0

    def packed_key(self, nvars):
        """The int sort key on packed monomials in nvars variables."""
        if self.kind == GREVLEX:
            return _grevlex_key(nvars)
        if self.kind == LEX:
            return _lex_key(nvars)
        return _elim_key(self.block, nvars)

    def __str__(self):
        if self.kind == ELIM:
            return f"elim({self.block})"
        return self.kind


def grevlex():
    return MonomialOrder(GREVLEX)


def lex():
    return MonomialOrder(LEX)


def elimination_block(k):
    """Order making any monomial in the first k variables beat all others."""
    if k < 1:
        raise ValueError("elimination block needs k >= 1")
    return MonomialOrder(ELIM, k)
