"""Monte Carlo stability of general-reduction invariants, and comparison of
general reductions against user-fixed ones.

The statistical reading: a quantity attached to a general reduction should
take a single value on a dense open set of coefficient choices, so across
independent samples the modal value should dominate; re-randomizing the
coefficients stands in for respecializing the generic construction.  For a
fixed reduction H the general value can only be smaller or equal, which
fixed_vs_general checks and reports.
"""

from dataclasses import dataclass

from .errors import CapExceeded, ComputationError, NotAReduction
from .lengths import quotient_length
from .reductions import SEARCH_CAP, GeneralSampler, containment_search, sample_reduction
from .report import mode

QUANTITIES = ("In/Jn", "In/JIn-1+In+1", "I2/JI", "JcapI2/JI", "tau", "sJ")


def evaluate_quantity(quantity, I, J, n=2):
    """Evaluate one tracked quantity for the pair (I, J); J may be any
    d-generated reduction-like ideal, sampled or user-fixed."""
    if quantity == "In/Jn":
        return quotient_length(I**n, J**n, check=False).value
    if quantity == "In/JIn-1+In+1":
        return quotient_length(I**n, J * I ** (n - 1) + I ** (n + 1), check=False).value
    if quantity == "I2/JI":
        return quotient_length(I**2, J * I, check=False).value
    if quantity == "JcapI2/JI":
        return quotient_length(J.intersect(I**2), J * I, check=False).value
    if quantity == "tau":
        return quotient_length(J.colon(I).intersect(I), J, check=False).value
    if quantity == "sJ":
        return containment_search(lambda k: J, lambda k: I**k, "nilpotency index")
    raise ValueError(f"unknown quantity {quantity!r}; choose from {QUANTITIES}")


@dataclass(frozen=True)
class TrialReport:
    quantity: str
    n: int
    values: tuple
    modal: object
    stability: float
    errors: tuple  # (seed, message) for trials that failed


@dataclass(frozen=True)
class FixedComparison:
    quantity: str
    n: int
    fixed_value: object
    general_modal: object
    general_stability: float
    general_le_fixed: bool
    note: str = ""


def stability_trials(I, quantity, trials=20, seeds=None, n=2):
    """Evaluate the quantity under `trials` independent general reductions."""
    if seeds is None:
        seeds = tuple(range(1, trials + 1))
    seeds = tuple(seeds)[:trials]
    values = []
    errors = []
    for seed in seeds:
        try:
            rd = sample_reduction(I, GeneralSampler(seed, I.ambient.ring.field))
            values.append(evaluate_quantity(quantity, I, rd.J, n))
        except ComputationError as exc:
            errors.append((seed, str(exc)))
    if not values:
        raise CapExceeded(f"all {trials} trials failed for {quantity}")
    modal, count = mode(values)
    return TrialReport(
        quantity=quantity,
        n=n,
        values=tuple(values),
        modal=modal,
        stability=count / len(seeds),
        errors=tuple(errors),
    )


def _check_reduction(I, H):
    if len(H.generators) != I.ambient.dimension:
        raise NotAReduction("fixed reduction must have exactly d generators")
    if not I.contains(H):
        raise NotAReduction("fixed reduction must sit inside the ideal")
    try:
        return containment_search(lambda r: H * I**r, lambda r: I**r, "reduction number")
    except CapExceeded as exc:
        raise NotAReduction(f"no r <= {SEARCH_CAP} with I^(r+1) inside H I^r locally") from exc


def fixed_vs_general(I, H, quantity, trials=5, seeds=None, n=2):
    """Evaluate a quantity at a fixed reduction H and at the general modal
    value, asserting general <= fixed (general reductions minimize)."""
    _check_reduction(I, H)
    fixed_value = evaluate_quantity(quantity, I, H, n)
    general = stability_trials(I, quantity, trials=trials, seeds=seeds, n=n)
    note = ""
    if quantity == "sJ":
        note = "comparison for sJ presumes the degree-2 intersection equality J cap I^2 = JI"
    return FixedComparison(
        quantity=quantity,
        n=n,
        fixed_value=fixed_value,
        general_modal=general.modal,
        general_stability=general.stability,
        general_le_fixed=general.modal <= fixed_value,
        note=note,
    )
