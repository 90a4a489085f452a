"""Analysis reports: the full invariant battery with majority voting.

One trial = one sampled general reduction and every invariant computed
from it.  The driver runs several trials and majority-votes each field;
dissenting counts land in the provenance block so an unstable field is
never silently reported.  Reports serialize to JSON and back losslessly.
"""

import json
from dataclasses import dataclass, replace
from dataclasses import fields as dataclass_fields

from .analysis import (
    AlmostCmCheck,
    AssertedHypotheses,
    CmPrediction,
    Flags,
    SallyCondition,
    SmallTypeCheck,
    almost_cm_check,
    classify,
    cm_prediction,
    hilbert_K,
    is_j_stretched,
    nu_sequence,
    sally_condition,
    stretched_test,
    type_and_codim,
)
from .errors import ComputationError
from .groebner import DEFAULT_DEGREE_CAP
from .lengths import INFINITE, TRUNCATION_CAP, is_m_primary
from .reductions import (
    SEARCH_CAP,
    GeneralSampler,
    index_of_nilpotency,
    j_multiplicity,
    max_spread_check,
    reduction_number,
    sample_reduction,
)


@dataclass(frozen=True)
class Caps:
    """The caps an analysis ran under; only gb_degree is configurable.

    truncation caps the truncation schedule of inhomogeneous lengths
    only; graded lengths are exact and reach no cap.
    """

    gb_degree: int = DEFAULT_DEGREE_CAP
    truncation: int = TRUNCATION_CAP
    search: int = SEARCH_CAP


@dataclass(frozen=True)
class Provenance:
    seed: int
    p: int
    trials: int
    failed_trials: int
    caps: Caps
    dissent: dict


@dataclass(frozen=True)
class AnalysisReport:
    d: int
    ell_is_d: bool
    j_mult: object = None
    j_split: object = None
    r_J: object = None
    s_J: object = None  # index of nilpotency; the K used by the CM criteria
    hilbert_K: object = None  # lambda(Ibar^2/x_d Ibar) + 1; equals s_J when Cor-3.6-type identification applies
    js_length: object = None  # lambda(Ibar^2/(x_d Ibar + Ibar^3))
    nu: object = None
    nubar: object = None
    h: object = None
    tau: object = None
    flags: object = None
    predicted_cm: object = None  # CmPrediction
    almost_cm: object = None  # AlmostCmCheck
    sally_p: object = None  # SallyCondition
    small_type: object = None  # SmallTypeCheck
    asserted: AssertedHypotheses = AssertedHypotheses()
    provenance: object = None


def _single_trial(I, trial_seed, asserted):
    rd = sample_reduction(I, GeneralSampler(trial_seed, I.ambient.ring.field))
    out = {"d": rd.d, "ell_is_d": max_spread_check(rd)}
    if not out["ell_is_d"]:
        return out
    j = j_multiplicity(rd)
    out["j_mult"] = int(j)
    out["j_split"] = j.split
    r = reduction_number(rd)
    out["r_J"] = r
    out["s_J"] = index_of_nilpotency(rd)
    out["hilbert_K"] = hilbert_K(rd)
    stretched_flag, js_len = is_j_stretched(rd)
    out["js_length"] = js_len
    nu, nubar = nu_sequence(rd, r)
    out["nu"] = nu
    out["nubar"] = nubar
    st = type_and_codim(rd)
    out["h"] = st.h
    out["tau"] = st.tau
    out["small_type"] = st
    stretched = None
    if is_m_primary(I):
        stretched = stretched_test(rd).value
    out["flags"] = replace(classify(rd), stretched=stretched)
    if stretched_flag:
        out["predicted_cm"] = cm_prediction(rd, asserted)
        out["sally_p"] = sally_condition(rd, asserted)
        if out["s_J"] >= 1:
            out["almost_cm"] = almost_cm_check(rd, asserted)
    return out


def mode(values):
    """(most frequent value under ==, its count); the earliest value wins
    ties.  The one majority vote of the toolkit; values need not hash."""
    best = None
    best_count = -1
    for v in values:
        count = sum(1 for w in values if w == v)
        if count > best_count:
            best = v
            best_count = count
    return best, best_count


def analyze(I, asserted=None, seed=1, trials=5):
    """Full analysis of I with majority voting across `trials` reductions."""
    asserted = asserted or AssertedHypotheses()
    snapshots = []
    failures = 0
    last_error = None
    for k in range(trials):
        try:
            snapshots.append(_single_trial(I, seed * 1000 + k, asserted))
        except ComputationError as exc:  # recorded, not fatal, unless all fail
            failures += 1
            last_error = exc
    if not snapshots:
        raise last_error
    keys = [
        "d", "ell_is_d", "j_mult", "j_split", "r_J", "s_J", "hilbert_K",
        "js_length", "nu", "nubar", "h", "tau", "flags",
        "predicted_cm", "almost_cm", "sally_p", "small_type",
    ]
    voted = {}
    dissent = {}
    for key in keys:
        values = [snap.get(key) for snap in snapshots]
        winner, count = mode(values)
        voted[key] = winner
        if count < len(values):
            dissent[key] = len(values) - count
    prov = Provenance(
        seed=seed,
        p=I.ambient.ring.field.p,
        trials=trials,
        failed_trials=failures,
        caps=Caps(gb_degree=I.ambient.gb_cap),
        dissent=dissent,
    )
    return AnalysisReport(asserted=asserted, provenance=prov, **voted)


# -- serialization ----------------------------------------------------------


_KINDS = {
    cls.__name__: cls
    for cls in (CmPrediction, AlmostCmCheck, SallyCondition, SmallTypeCheck,
                Flags, AssertedHypotheses, Provenance, Caps)
}


def _freeze(value):
    if value == INFINITE:
        return "INFINITE"
    if isinstance(value, tuple(_KINDS.values())):
        body = {f.name: _freeze(getattr(value, f.name)) for f in dataclass_fields(value)}
        return {"__kind__": type(value).__name__, **body}
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_freeze(v) for v in value]
    return value


def _thaw(value):
    """Inverse of _freeze; reads the input without changing it."""
    if value == "INFINITE":
        return INFINITE
    if isinstance(value, dict):
        thawed = {k: _thaw(v) for k, v in value.items() if k != "__kind__"}
        kind = value.get("__kind__")
        return thawed if kind is None else _KINDS[kind](**thawed)
    if isinstance(value, list):
        return tuple(_thaw(v) for v in value)
    return value


def report_to_dict(report):
    return {f.name: _freeze(getattr(report, f.name)) for f in dataclass_fields(report)}


def report_to_json(report, indent=2):
    return json.dumps(report_to_dict(report), indent=indent)


def report_from_dict(data):
    return AnalysisReport(**{key: _thaw(value) for key, value in data.items()})


def report_from_json(text):
    return report_from_dict(json.loads(text))


def render_human(report, title="analysis"):
    """Plain-text rendering with the same numeric content as the JSON form."""
    lines = [f"== {title} =="]

    def emit(label, value, depth=1):
        pad = "  " * depth
        if value is None:
            lines.append(f"{pad}{label} = -")
        elif isinstance(value, dict):
            lines.append(f"{pad}{label}:")
            for k, v in value.items():
                if k != "__kind__":
                    emit(k, v, depth + 1)
        else:
            lines.append(f"{pad}{label} = {value}")

    for key, value in report_to_dict(report).items():
        emit(key, value)
    return "\n".join(lines)
