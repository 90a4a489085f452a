"""Rees algebra and special fiber by elimination; analytic spread; the
presentation of the associated graded ring; graded depth.

Depth is measured at the irrelevant maximal ideal of the standard total
grading (all variables weight 1) by the length of a maximal regular
sequence of random linear forms, with regularity tested through
colon-stability.  That is sufficient for the graded desk cases this
toolkit verifies; inhomogeneous presentations are rejected rather than
guessed at.
"""

from dataclasses import dataclass

from .errors import NotHomogeneous
from .groebner import buchberger, dimension_from_leading_terms, eliminate
from .ideals import AmbientRing
from .poly import PolyRing
from .reductions import GeneralSampler
from .report import mode


def _fiber_names(ring, count):
    names = []
    k = 1
    while len(names) < count:
        name = f"T{k}"
        while name in ring.names or name in names:
            name = "_" + name
        names.append(name)
        k += 1
    return tuple(names)


def rees_ideal(I):
    """Defining ideal of the Rees algebra in S[T]: eliminate t from
    H S[t,T] + (T_i - t a_i); returns (generators, S[T] ring)."""
    ambient = I.ambient
    ring = ambient.ring
    s = len(I.generators)
    st_ring = PolyRing(ring.names + _fiber_names(ring, s), ring.field)
    work = st_ring.extended_front(("_t",))
    t = work.variable(0)
    n = ring.nvars
    lifted = [work.lift_front(rel, 1) for rel in ambient.relations]
    for i, a in enumerate(I.generators):
        Ti = work.variable(1 + n + i)
        lifted.append(Ti - t * work.lift_front(a, 1))
    gens = eliminate(lifted, 1, ambient.gb_cap, target_ring=st_ring)
    return gens, st_ring


@dataclass(frozen=True)
class GradedPresentation:
    """gr_I(R) presented as S[T]/Q with the T-grading recorded."""

    ring: PolyRing
    defining: tuple
    base_vars: int  # count of original S-variables (T-weight 0)

    def t_degree(self, mono):
        exps = self.ring.decode(mono)
        return sum(exps[self.base_vars:])

    def handle(self):
        return AmbientRing(self.ring, ()).ideal(self.defining)

    def dimension(self):
        gb = self.handle().gb
        return dimension_from_leading_terms([g.lm for g in gb], self.ring)

    def matches(self, target_gens):
        """Ideal equality against user-supplied generators (mutual membership)."""
        ambient = AmbientRing(self.ring, ())
        return self.handle() == ambient.ideal(tuple(target_gens))


def analytic_spread(I):
    """Dimension of the special fiber k[T]/((rees + m S[T]) cap k[T])."""
    gens, st_ring = rees_ideal(I)
    n = I.ambient.ring.nvars
    fiber_input = list(gens) + [st_ring.variable(i) for i in range(n)]
    tring = st_ring.restricted(n)
    fiber = eliminate(fiber_input, n, I.ambient.gb_cap, target_ring=tring)
    if not fiber:
        return tring.nvars
    gb = buchberger(fiber, I.ambient.gb_cap)
    return dimension_from_leading_terms([g.lm for g in gb], tring)


def gr_presentation(I):
    """Defining ideal of gr_I(R) = (rees ideal) + I S[T], as a quotient of S[T]."""
    gens, st_ring = rees_ideal(I)
    lifted_I = [st_ring.lift_front(g, 0) for g in I.generators]
    ambient = AmbientRing(st_ring, ())
    handle = ambient.ideal(tuple(gens) + tuple(lifted_I))
    pres = GradedPresentation(ring=st_ring, defining=handle.gb, base_vars=I.ambient.ring.nvars)
    for g in pres.defining:
        degs = {pres.t_degree(m) for m in g.mapping()}
        if len(degs) > 1:
            raise AssertionError("Rees-derived ideal must be homogeneous in the T-grading")
    return pres


def graded_depth(pres, seed=1, draws=5, votes=3):
    """Length of a maximal regular sequence of random linear forms on S[T]/Q.

    Regularity of the next form l on the current quotient is the test
    colon(Q, l) == Q; a draw failing does not end the stage until `draws`
    forms fail there.  The depth is the majority over `votes` seeds.
    Requires the defining ideal to be homogeneous for the total grading.
    """
    for g in pres.defining:
        if not g.is_homogeneous:
            raise NotHomogeneous("graded depth needs a totally homogeneous defining ideal")
    return mode([_depth_once(pres, seed + k, draws) for k in range(votes)])[0]


def _depth_once(pres, seed, draws):
    ring = pres.ring
    ambient = AmbientRing(ring, ())
    sampler = GeneralSampler(seed, ring.field)
    current = ambient.ideal(pres.defining)
    depth = 0
    variables = ring.variables()
    while True:
        if current.contains(ring.one()):
            break
        advanced = False
        for _ in range(draws):
            form = sampler.combination(variables)
            if current.colon(ambient.ideal(form)) == current:
                current = current + ambient.ideal(form)
                depth += 1
                advanced = True
                break
        if not advanced:
            break
    return depth
