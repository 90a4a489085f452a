"""Built-in example registry: constructions, verified golden values, diffs.

Each case records the values this toolkit computes and has verified (by
independent oracles where the construction allows one); `run_registry`
rebuilds the example, runs the full analysis, and returns the report
together with any deviations from the golden record.
"""

from dataclasses import dataclass

from .analysis import AssertedHypotheses
from .errors import UnknownExample
from .fibercone import analytic_spread, gr_presentation, graded_depth
from .field import PrimeField
from .ideals import AmbientRing
from .lengths import quotient_length
from .poly import PolyRing
from .reductions import GeneralSampler, sample_reduction
from .report import analyze

POINT_CONSTRUCTION_SEED = 97


@dataclass(frozen=True)
class RegistryCase:
    id: str
    params: dict
    ambient: AmbientRing
    ideal: object
    asserted: AssertedHypotheses
    golden: dict  # report-field path -> verified expected value
    extras: tuple = ()  # names of extra check routines


def _field_get(report, path):
    value = report
    for part in path.split("."):
        value = getattr(value, part)
    return value


def registry_ids():
    return tuple(sorted(_BUILDERS))


def build_case(example_id, r=None, t=None, char=32003):
    builder = _BUILDERS.get(example_id)
    if builder is None:
        raise UnknownExample(f"unknown example {example_id!r}; known: {', '.join(registry_ids())}")
    return builder(r, t, PrimeField(char))


def run_registry(example_id, r=None, t=None, seed=1, trials=5, char=32003):
    """Build, analyze, and diff an example against its golden record."""
    case = build_case(example_id, r, t, char)
    report = analyze(case.ideal, asserted=case.asserted, seed=seed, trials=trials)
    diffs = []
    for path, expected in case.golden.items():
        got = _field_get(report, path)
        if got != expected:
            diffs.append((path, expected, got))
    rd = sample_reduction(case.ideal, GeneralSampler(seed * 1000, case.ambient.ring.field))
    for extra in case.extras:
        diffs.extend(_EXTRA_CHECKS[extra](case, report, rd))
    return report, diffs, case


# -- constructions -----------------------------------------------------------


def _ring3(field, names=("x", "y", "z")):
    return PolyRing(names, field)


def _thickline(r, t, field):
    r = 3 if r is None else r
    ring = _ring3(field)
    x, y, z = ring.variables()
    ambient = AmbientRing(ring, (x ** (r + 1), x * z, y * z))
    I = ambient.ideal(x, y)
    golden = {
        "d": 1,
        "ell_is_d": True,
        "r_J": r,
        "s_J": r,
        "hilbert_K": r,
        "j_mult": r + 1,
        "js_length": 1 if r >= 2 else 0,
        "flags.j_stretched": True,
        "flags.minimal_j": r == 1,
        "flags.almost_minimal_j": r <= 2,
        "h": 1,
        "nu": tuple(range(r, -1, -1)),
        "predicted_cm.predicted_cm": True,
        "predicted_cm.status": "ASSERTED",
    }
    return RegistryCase(
        id="thickline",
        params={"r": r},
        ambient=ambient,
        ideal=I,
        asserted=AssertedHypotheses(G_d=True, AN_minus=True, depth_RI=1),
        golden=golden,
        extras=("thickline_sat", "thickline_gr", "spread_is_one"),
    )


def _noncm_curve(r, t, field):
    r = 2 if r is None else r
    ring = _ring3(field)
    x, y, z = ring.variables()
    plain = AmbientRing(ring)
    part_a = plain.ideal(x**r - y * z, y**r - x * z, x * y * z)
    part_b = plain.ideal(x ** (r + 1) - y ** (r + 1), z)
    relations = part_a.intersect(part_b).gb
    ambient = AmbientRing(ring, relations)
    I = ambient.ideal(x, y)
    golden = {
        "d": 1,
        "ell_is_d": True,
        "r_J": r,
        "s_J": r,
        "hilbert_K": r,
        "flags.j_stretched": True,
        "flags.almost_minimal_j": r <= 2,
    }
    return RegistryCase(
        id="noncm-curve",
        params={"r": r},
        ambient=ambient,
        ideal=I,
        asserted=AssertedHypotheses(G_d=True, AN_minus=True, depth_RI=1),
        golden=golden,
        extras=("noncm_sat", "middle_lengths_full"),
    )


def _mixed_monomial(gens_builder, case_id):
    def build(r, t, field):
        ring = PolyRing(("a", "b", "c"), field)
        ambient = AmbientRing(ring)
        I = ambient.ideal(gens_builder(ring))
        golden = {
            "d": 3,
            "ell_is_d": True,
            "s_J": 1,
            "hilbert_K": 2,
            "js_length": 1,
            "flags.j_stretched": True,
            "flags.almost_minimal_j": True,
            "flags.minimal_j": False,
        }
        return RegistryCase(
            id=case_id,
            params={},
            ambient=ambient,
            ideal=I,
            asserted=AssertedHypotheses(AN_minus=True),
            golden=golden,
            extras=("middle_lengths_xd", "spread_is_three"),
        )

    return build


def _mm_a(ring):
    a, b, c = ring.variables()
    return (a**2 * b**2, a**2 * c**2, a * b * c**2, b**3 * c)


def _mm_b(ring):
    a, b, c = ring.variables()
    return (a**3, a**2 * b, b**2 * c, a * c**2)


def _quartic_monomial(r, t, field):
    ring = PolyRing(("a", "b", "c"), field)
    a, b, c = ring.variables()
    ambient = AmbientRing(ring)
    I = ambient.ideal(a**2 * b**2, a**2 * c**2, a * b * c**2, b**2 * c**2, a**2 * b * c)
    golden = {
        "d": 3,
        "ell_is_d": True,
        "r_J": 2,
        "s_J": 1,
        "hilbert_K": 2,
        "js_length": 1,
        "flags.j_stretched": True,
    }
    return RegistryCase(
        id="quartic-monomial",
        params={},
        ambient=ambient,
        ideal=I,
        asserted=AssertedHypotheses(AN_minus=True),
        golden=golden,
        extras=("spread_is_three",),
    )


def _point_ideal(ambient, coords):
    ring = ambient.ring
    vs = ring.variables()
    gens = []
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            gens.append(coords[j] * vs[i] - coords[i] * vs[j])
    return ambient.ideal(gens)


def _generic_points(ambient, npoints, field):
    sampler = GeneralSampler(POINT_CONSTRUCTION_SEED, field)
    result = None
    for _ in range(npoints):
        P = _point_ideal(ambient, sampler.row(ambient.ring.nvars))
        result = P if result is None else result.intersect(P)
    return result


def _points_p2(r, t, field):
    ring = PolyRing(("a", "b", "c"), field)
    ambient = AmbientRing(ring)
    I = ambient.ideal(_generic_points(ambient, 6, field).gb)
    golden = {"d": 3, "ell_is_d": True, "r_J": 2, "s_J": 1, "hilbert_K": 2,
              "flags.j_stretched": True}
    return RegistryCase(
        id="points-p2", params={"n": 6}, ambient=ambient, ideal=I,
        asserted=AssertedHypotheses(AN_minus=True), golden=golden,
    )


def _points_p3(r, t, field):
    ring = PolyRing(("a", "b", "c", "d"), field)
    ambient = AmbientRing(ring)
    n = 5 if t is None else t
    I = ambient.ideal(_generic_points(ambient, n, field).gb)
    golden = {"d": 4, "ell_is_d": True, "r_J": 2, "s_J": 1, "hilbert_K": 2,
              "flags.j_stretched": True}
    return RegistryCase(
        id="points-p3", params={"n": n}, ambient=ambient, ideal=I,
        asserted=AssertedHypotheses(AN_minus=True), golden=golden,
    )


def _rn2_monomial(gens_builder, case_id, names=("a", "b", "c", "d")):
    def build(r, t, field):
        ring = PolyRing(names, field)
        ambient = AmbientRing(ring)
        I = ambient.ideal(gens_builder(ring))
        golden = {
            "d": len(names),
            "ell_is_d": True,
            "r_J": 2,
            "s_J": 1,
            "hilbert_K": 2,
            "flags.j_stretched": True,
        }
        return RegistryCase(
            id=case_id, params={}, ambient=ambient, ideal=I,
            asserted=AssertedHypotheses(AN_minus=True), golden=golden,
        )

    return build


def _rn2_a(ring):
    a, b, c, d = ring.variables()
    return (a**2, a * c, b * c, b * d, c * d)


def _rn2_b(ring):
    a, b, c, d = ring.variables()
    return (a * b, a * c, a * d, b * c, b * d, c * d)


def _rn2_c(ring):
    a, b, c, d = ring.variables()
    return (a**2, b**2, a * d, b * d, c * d)


def _rn2_wide(ring):
    a, b, c, d, e = ring.variables()
    return (a**2, b**2, c**2, a * b, b * c, c * d, d * e)


def _non_g2(r, t, field):
    t = 0 if t is None else t
    ring = _ring3(field)
    x, y, z = ring.variables()
    ambient = AmbientRing(ring, (x**3 - x**2 * y,))
    I = ambient.ideal(x * y**t if t else x, z)
    golden = {
        "d": 2,
        "ell_is_d": True,
        "r_J": 0,
        "s_J": 0,
        "flags.minimal_j": True,
        "flags.j_stretched": True,
        "predicted_cm.status": "CONDITIONAL",
    }
    return RegistryCase(
        id="non-g2", params={"t": t}, ambient=ambient, ideal=I,
        asserted=AssertedHypotheses(),  # G_d genuinely fails; never asserted
        golden=golden,
        extras=("non_g2_missing", "non_g2_depth"),
    )


def _semigroup(r, t, field):
    ring = PolyRing(("a", "b", "c"), field)
    a, b, c = ring.variables()
    ambient = AmbientRing(ring, (b**2 - a * c, c**2 - a**2 * b, a**3 - b * c))
    I = ambient.ideal(a, b)
    golden = {
        "d": 1,
        "ell_is_d": True,
        "r_J": 2,
        "s_J": 1,
        "hilbert_K": 2,
        "js_length": 1,
        "flags.j_stretched": True,
        "flags.almost_minimal_j": True,
        "flags.stretched": False,
        "j_mult": 3,
    }
    return RegistryCase(
        id="semigroup-345", params={}, ambient=ambient, ideal=I,
        asserted=AssertedHypotheses(G_d=True, AN_minus=True, depth_RI=0),
        golden=golden,
        extras=("semigroup_vv",),
    )


_BUILDERS = {
    "thickline": _thickline,
    "noncm-curve": _noncm_curve,
    "mixed-monomial-a": _mixed_monomial(_mm_a, "mixed-monomial-a"),
    "mixed-monomial-b": _mixed_monomial(_mm_b, "mixed-monomial-b"),
    "quartic-monomial": _quartic_monomial,
    "points-p2": _points_p2,
    "points-p3": _points_p3,
    "rn2-mon-a": _rn2_monomial(_rn2_a, "rn2-mon-a"),
    "rn2-mon-b": _rn2_monomial(_rn2_b, "rn2-mon-b"),
    "rn2-mon-c": _rn2_monomial(_rn2_c, "rn2-mon-c"),
    "rn2-mon-wide": _rn2_monomial(_rn2_wide, "rn2-mon-wide", names=("a", "b", "c", "d", "e")),
    "non-g2": _non_g2,
    "semigroup-345": _semigroup,
}


# -- extra checks beyond plain report fields ---------------------------------


def middle_length(rd, t_exp, use_full_J=False):
    """lambda(Ibar^t / x_d Ibar^{t-1} + Ibar^{t+1}) in the residual quotient
    (with the full reduction instead of x_d when use_full_J)."""
    front = rd.JIbarpow(t_exp - 1) if use_full_J else rd.xd_bar * rd.Ibarpow(t_exp - 1)
    return quotient_length(rd.Ibarpow(t_exp), front + rd.Ibarpow(t_exp + 1), check=False).value


def _check_thickline_sat(case, report, rd):
    ring = case.ambient.ring
    x, y, z = ring.variables()
    r = case.params["r"]
    expected = case.ambient.ideal(x ** (r + 1), z)
    return [] if rd.sat == expected else [("saturation", "(x^(r+1), z)", [str(g) for g in rd.sat.gb])]


def _check_thickline_gr(case, report, rd):
    pres = gr_presentation(case.ideal)
    ST = pres.ring
    x, y, z, T1, T2 = ST.variables()
    r = case.params["r"]
    target = [x, y, z * T2, T1 ** (r + 1), z * T1]
    out = []
    if not pres.matches(target):
        out.append(("gr_presentation", "(x, y, zT2, T1^(r+1), zT1)", [str(g) for g in pres.defining]))
    depth = graded_depth(pres)
    if depth != pres.dimension():
        out.append(("gr_depth", pres.dimension(), depth))
    return out


def _check_spread(expected):
    def check(case, report, rd):
        got = analytic_spread(case.ideal)
        return [] if got == expected else [("analytic_spread", expected, got)]

    return check


def _check_noncm_sat(case, report, rd):
    ring = case.ambient.ring
    x, y, z = ring.variables()
    r = case.params["r"]
    expected = case.ambient.ideal(x ** (r + 1) - y ** (r + 1), z)
    return [] if rd.sat == expected else [("saturation", "(x^(r+1)-y^(r+1), z)", [str(g) for g in rd.sat.gb])]


def _check_middle_full(case, report, rd):
    r = case.params["r"]
    out = []
    for t_exp in range(2, r + 1):
        got = middle_length(rd, t_exp, use_full_J=True)
        if got != 1:
            out.append((f"middle_length(t={t_exp})", 1, got))
    return out


def _check_middle_xd(case, report, rd):
    out = []
    for t_exp in (2, 3, 4):
        got = middle_length(rd, t_exp)
        if got != 1:
            out.append((f"middle_length(t={t_exp})", 1, got))
    return out


def _check_non_g2_missing(case, report, rd):
    missing = report.predicted_cm.missing if report.predicted_cm else ()
    return [] if "G_d" in missing else [("predicted_cm.missing", "G_d unasserted", missing)]


def _check_non_g2_depth(case, report, rd):
    pres = gr_presentation(case.ideal)
    depth = graded_depth(pres)
    dim = pres.dimension()
    expected = 2 if case.params["t"] == 0 else 1
    return [] if depth == expected and dim == 2 else [("gr_depth", (expected, 2), (depth, dim))]


def _check_semigroup_vv(case, report, rd):
    got = quotient_length(rd.J.intersect(rd.Ipow(2)), rd.JIpow(1), check=False).value
    return [] if got == 1 else [("lambda(JcapI2/JI)", 1, got)]


_EXTRA_CHECKS = {
    "thickline_sat": _check_thickline_sat,
    "thickline_gr": _check_thickline_gr,
    "spread_is_one": _check_spread(1),
    "spread_is_three": _check_spread(3),
    "noncm_sat": _check_noncm_sat,
    "middle_lengths_full": _check_middle_full,
    "middle_lengths_xd": _check_middle_xd,
    "non_g2_missing": _check_non_g2_missing,
    "non_g2_depth": _check_non_g2_depth,
    "semigroup_vv": _check_semigroup_vv,
}
