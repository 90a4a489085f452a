"""j-stretchedness, invariant classification, and executable structure checks.

Every operation takes a fixed ReductionData so all invariants refer to one
general minimal reduction.  The analyze() driver repeats the full battery
over several independently sampled reductions and majority-votes each
field: a single unlucky specialization over F_p must not corrupt a
verdict, so dissent is recorded, never silently dropped.

Verdicts about the Cohen-Macaulayness of the associated graded ring are
numerical predictions whose supporting theory additionally needs residual
hypotheses (G_d, the Artin-Nagata property, a depth bound on R/I).  Those
are never computed here -- deciding them needs prime-by-prime localization
-- so every verdict carries ASSERTED or CONDITIONAL status depending on
the user's assertions, and the unasserted hypotheses are listed.
"""

from dataclasses import dataclass

from .errors import NotMPrimary, WitnessNotFound
from .lengths import is_m_primary, quotient_length
from .reductions import GeneralSampler, index_of_nilpotency, j_multiplicity, reduction_number

ASSERTED = "ASSERTED"
CONDITIONAL = "CONDITIONAL"


@dataclass(frozen=True)
class AssertedHypotheses:
    G_d: bool = False
    AN_minus: bool = False
    depth_RI: object = None  # asserted value of depth(R/I), or None

    def missing(self, dim_ri):
        out = []
        if not self.G_d:
            out.append("G_d")
        if not self.AN_minus:
            out.append("AN_minus")
        need = min(dim_ri, 1)
        if self.depth_RI is None or self.depth_RI < need:
            out.append(f"depth_RI>={need}")
        return tuple(out)


@dataclass(frozen=True)
class Flags:
    j_stretched: bool
    minimal_j: bool
    almost_minimal_j: bool
    almost_almost_minimal_j: bool
    stretched: object = None  # bool for m-primary inputs, else None


@dataclass(frozen=True)
class CmPrediction:
    predicted_cm: bool
    r_J: int
    K: int
    status: str
    missing: tuple


@dataclass(frozen=True)
class SallyCondition:
    p: object  # first p satisfying both conditions, or None
    min_depth: object  # d-1 when p exists
    status: str
    missing: tuple


@dataclass(frozen=True)
class AlmostCmCheck:
    containment: bool  # I^{K+1} inside J I^{K-1} locally
    length_is_one: bool  # lambda(I^K / J I^{K-1}) == 1
    biconditional_ok: bool
    min_depth: object
    status: str


@dataclass(frozen=True)
class SmallTypeCheck:
    tau: int
    h: int
    colength: int  # lambda(Rbar/Ibar)
    applicable: bool  # tau < h + 1 - colength
    nu2_matches: object  # nu_2 == K - 2, when applicable
    vv3_holds: object  # J cap I^3 == J I^2 locally, when applicable


@dataclass(frozen=True)
class AuditReport:
    witness: tuple  # the spanning pair (a, b) as polynomials
    items: dict  # "a".."d" -> bool

    def witness_strings(self):
        return tuple(str(w) for w in self.witness)


@dataclass(frozen=True)
class VVReport:
    equalities: tuple  # J cap I^{t+1} == J I^t locally, t = 0..n
    containment: bool  # I^{K+1} inside J I^n locally
    biconditional_ok: bool


@dataclass(frozen=True)
class StretchedResult:
    intersection_ok: bool  # J cap I^2 == J I locally
    hf2: int  # lambda(I^2 / (J cap I^2) + I^3)
    value: bool

    def __bool__(self):
        return self.value


@dataclass(frozen=True)
class FixedReductionResult:
    length: int
    implies_j_stretched: bool
    status: str
    intersection_ok: object  # condition (i) when I is m-primary, else None
    agrees_with_general: object


def is_j_stretched(rd):
    """(verdict, witnessing length): lambda(Ibar^2/(x_d Ibar + Ibar^3)) <= 1."""
    lam = quotient_length(rd.Ibarpow(2), rd.xd_bar * rd.Ibar + rd.Ibarpow(3))
    return (lam.value <= 1, lam.value)


def classify(rd):
    """Extremality flags from lambda(Ibar^2 / x_d Ibar): 0 / <=1 / <=2."""
    lam = quotient_length(rd.Ibarpow(2), rd.xd_bar * rd.Ibar).value
    stretched_flag, _ = is_j_stretched(rd)
    return Flags(
        j_stretched=stretched_flag,
        minimal_j=lam == 0,
        almost_minimal_j=lam <= 1,
        almost_almost_minimal_j=lam <= 2,
    )


def hilbert_K(rd):
    """K from the j-multiplicity formula: lambda(Ibar^2/x_d Ibar) + 1.

    Coincides with the index of nilpotency when the degree-2
    Valabrega-Valla equality holds for the sampled reduction; the report
    carries both so a discrepancy is visible.
    """
    return int(quotient_length(rd.Ibarpow(2), rd.xd_bar * rd.Ibar)) + 1


def nu_sequence(rd, r=None):
    """nu_n = lambda(I^{n+1}/J I^n) for n = 0..r_J, and the same in Rbar."""
    if r is None:
        r = reduction_number(rd)
    nu = tuple(
        quotient_length(rd.Ipow(n + 1), rd.JIpow(n), check=False).value for n in range(r + 1)
    )
    nubar = tuple(
        quotient_length(rd.Ibarpow(n + 1), rd.JIbarpow(n), check=False).value
        for n in range(r + 1)
    )
    return nu, nubar


def _witness_candidates(rd, extra_draws=25):
    gens = rd.I.generators
    pairs = [
        (gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i, len(gens))
    ]
    pairs.sort(key=lambda ab: (ab[0] * ab[1]).degree)
    yield from pairs
    sampler = GeneralSampler(rd.seed ^ 0x5EED, rd.ambient.ring.field)
    for _ in range(extra_draws):
        a = sampler.combination(gens)
        b = sampler.combination(gens)
        yield (a, b)


def _colength_and_h(rd):
    """lambda(Rbar/Ibar) and the embedding codimension
    h = lambda(Ibar/Ibar^2) - lambda(Rbar/Ibar)."""
    lam_ri = int(quotient_length(rd.Rbar.unit_ideal(), rd.Ibar))
    return lam_ri, int(quotient_length(rd.Ibar, rd.Ibarpow(2))) - lam_ri


def properties_audit(rd):
    """Locate a spanning pair (a, b) for I^2/(JI + I^3) and verify the
    cyclic-structure statements it controls.

    Items: (a) j(I) >= lambda(Rbar/Ibar) + h + 1; (b) I^{n+1} = JI^n +
    (a^n b) locally for n <= K; (c) (a^n b) m inside I^{n+2} + JI^n; (d)
    I = (b) + (J : a) cap I locally.  Preconditions: j-stretched and not
    of minimal j-multiplicity (the quotient must be exactly one-dimensional).
    """
    flags = classify(rd)
    if not flags.j_stretched or flags.minimal_j:
        raise ValueError("audit needs a j-stretched ideal without minimal j-multiplicity")
    ambient = rd.ambient
    base = rd.JIpow(1) + rd.Ipow(3)
    witness = None
    for a, b in _witness_candidates(rd):
        w = a * b
        if w.is_zero:
            continue
        if (base + ambient.ideal(w)).contains_locally(rd.Ipow(2)):
            witness = (a, b)
            break
    if witness is None:
        raise WitnessNotFound("no product of I-elements spans I^2/(JI + I^3)")
    a, b = witness
    K = index_of_nilpotency(rd)
    items = {}
    ok_b = True
    ok_c = True
    m = ambient.maximal_ideal
    for n in range(1, max(K, 1) + 1):
        anb = ambient.ideal(a**n * b)
        ok_b = ok_b and (rd.JIpow(n) + anb).contains_locally(rd.Ipow(n + 1))
        ok_c = ok_c and (rd.Ipow(n + 2) + rd.JIpow(n)).contains_locally(anb * m)
    items["b"] = ok_b
    items["c"] = ok_c
    rhs = ambient.ideal(b) + rd.J.colon(ambient.ideal(a)).intersect(rd.I)
    items["d"] = rhs.locally_equal(rd.I)
    j = j_multiplicity(rd)
    lam_ri, h = _colength_and_h(rd)
    items["a"] = int(j) >= lam_ri + h + 1
    return AuditReport(witness=(a, b), items=items)


def vv_equalities(rd, n):
    """Valabrega-Valla equalities J cap I^{t+1} = J I^t for t <= n, and the
    power containment I^{K+1} inside J I^n; reports whether the predicted
    biconditional between the two actually held."""
    eqs = tuple(
        rd.J.intersect(rd.Ipow(t + 1)).locally_equal(rd.JIpow(t)) for t in range(n + 1)
    )
    K = index_of_nilpotency(rd)
    containment = rd.JIpow(n).contains_locally(rd.Ipow(K + 1))
    return VVReport(equalities=eqs, containment=containment, biconditional_ok=containment == all(eqs))


def cm_prediction(rd, asserted=None):
    """Predicts Cohen-Macaulayness of gr_I(R) from r_J == K.

    The prediction is only a theorem under the residual hypotheses, so the
    verdict is CONDITIONAL whenever any of them is unasserted.
    """
    asserted = asserted or AssertedHypotheses()
    stretched_flag, _ = is_j_stretched(rd)
    if not stretched_flag:
        raise ValueError("CM prediction needs a j-stretched ideal")
    r = reduction_number(rd)
    K = index_of_nilpotency(rd)
    missing = asserted.missing(rd.I.krull_dim())
    return CmPrediction(
        predicted_cm=r == K,
        r_J=r,
        K=K,
        status=ASSERTED if not missing else CONDITIONAL,
        missing=missing,
    )


def sally_condition(rd, asserted=None):
    """First p with J cap I^{n+1} = J I^n for n < p and lambda(I^{p+1}/JI^p) <= 1.

    When such p exists the supporting theory yields depth gr_I(R) >= d-1,
    conditionally on the residual hypotheses.
    """
    asserted = asserted or AssertedHypotheses()
    stretched_flag, _ = is_j_stretched(rd)
    if not stretched_flag:
        raise ValueError("the depth condition search needs a j-stretched ideal")
    K = index_of_nilpotency(rd)
    missing = asserted.missing(rd.I.krull_dim())
    status = ASSERTED if not missing else CONDITIONAL
    found = None
    for p in range(1, max(K, 1) + 1):
        if not all(
            rd.J.intersect(rd.Ipow(n + 1)).locally_equal(rd.JIpow(n)) for n in range(p)
        ):
            continue
        lam = quotient_length(rd.Ipow(p + 1), rd.JIpow(p), check=False)
        if lam.is_finite and lam.value <= 1:
            found = p
            break
    return SallyCondition(
        p=found,
        min_depth=rd.d - 1 if found is not None else None,
        status=status,
        missing=missing,
    )


def almost_cm_check(rd, asserted=None):
    """Evaluates both sides of: I^{K+1} inside J I^{K-1} iff
    lambda(I^K/J I^{K-1}) = 1, and reports whether they agreed.

    K is index_of_nilpotency, the containment index c_J (least n with
    I^{n+1} inside J locally), not hilbert_K; whether c_J is the index
    the theorem means is ROADMAP open item 7."""
    asserted = asserted or AssertedHypotheses()
    K = index_of_nilpotency(rd)
    if K < 1:
        raise ValueError("check needs K >= 1")
    containment = rd.JIpow(K - 1).contains_locally(rd.Ipow(K + 1))
    lam = quotient_length(rd.Ipow(K), rd.JIpow(K - 1), check=False)
    length_is_one = lam.is_finite and lam.value == 1
    missing = asserted.missing(rd.I.krull_dim())
    return AlmostCmCheck(
        containment=containment,
        length_is_one=length_is_one,
        biconditional_ok=containment == length_is_one,
        min_depth=rd.d - 1 if containment else None,
        status=ASSERTED if not missing else CONDITIONAL,
    )


def type_and_codim(rd):
    """General Cohen-Macaulay type tau = lambda((J:I) cap I / J), embedding
    codimension h, and the small-type check: when tau < h + 1 - lambda(Rbar/Ibar),
    verify nu_2 = K - 2 and J cap I^3 = J I^2.

    tau can come out INFINITE when the residual hypotheses backing the
    type theory fail; that is reported, not raised.
    """
    tau = quotient_length(rd.J.colon(rd.I).intersect(rd.I), rd.J).value
    lam_ri, h = _colength_and_h(rd)
    applicable = tau < h + 1 - lam_ri
    nu2_matches = None
    vv3 = None
    if applicable:
        K = index_of_nilpotency(rd)
        nu2 = quotient_length(rd.Ipow(3), rd.JIpow(2), check=False)
        nu2_matches = nu2.is_finite and nu2.value == K - 2
        vv3 = rd.J.intersect(rd.Ipow(3)).locally_equal(rd.JIpow(2))
    return SmallTypeCheck(
        tau=tau,
        h=h,
        colength=lam_ri,
        applicable=applicable,
        nu2_matches=nu2_matches,
        vv3_holds=vv3,
    )


def stretched_test(rd):
    """Classical stretchedness of an m-primary ideal, tested against the
    sampled general reduction: J cap I^2 = JI and lambda(I^2/(J cap I^2)+I^3) <= 1.

    A false answer certifies non-stretchedness for every minimal
    reduction: stretchedness with respect to any single minimal reduction
    propagates to all general ones, so failing on a general reduction
    rules them all out.
    """
    if not is_m_primary(rd.I):
        raise NotMPrimary("stretchedness is defined for m-primary ideals")
    cap = rd.J.intersect(rd.Ipow(2))
    intersection_ok = cap.locally_equal(rd.JIpow(1))
    hf2 = int(quotient_length(rd.Ipow(2), cap + rd.Ipow(3), check=False))
    return StretchedResult(
        intersection_ok=intersection_ok,
        hf2=hf2,
        value=intersection_ok and hf2 <= 1,
    )


def fixed_reduction_test(I, H, rd=None):
    """j-stretchedness certificate from an explicit reduction H = (y_1..y_d):
    evaluates lambda(I^2/[y_d I + I^3 + (H_{d-1}:I^inf) cap I^2]) for the
    given generator ordering.  A length <= 1 implies j-stretchedness,
    conditionally on the residual hypotheses; cross-validated against the
    general-reduction test when a ReductionData is supplied."""
    ambient = I.ambient
    if len(H.generators) != ambient.dimension:
        raise ValueError("explicit reduction must have exactly d generators")
    yd = H.generators[-1]
    Hd1 = ambient.ideal(H.generators[:-1])
    satH = Hd1.saturate(I)
    I2 = I**2
    B = ambient.ideal(yd) * I + I**3 + satH.intersect(I2)
    length = int(quotient_length(I2, B, check=False))
    intersection_ok = None
    if is_m_primary(I):
        intersection_ok = H.intersect(I2).locally_equal(H * I)
    agrees = None
    if rd is not None:
        agrees = is_j_stretched(rd)[0] == (length <= 1)
    return FixedReductionResult(
        length=length,
        implies_j_stretched=length <= 1,
        status=CONDITIONAL,
        intersection_ok=intersection_ok,
        agrees_with_general=agrees,
    )
