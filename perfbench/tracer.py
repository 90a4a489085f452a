"""Outside-in span tracer for the jstretch engine.

The tracer replaces public functions of the engine modules by wrappers
that record one span per call: its name, its start and end on
`time.perf_counter`, and the span that was open when it began.  A
module that bound a function by name at import time (`ideals`,
`lengths` and `fibercone` bind `buchberger`, `eliminate` and
`normal_form` from `groebner`) keeps its own reference, so every
`jstretch` module attribute that *is* the original function is
replaced, not only the one in the defining module.  Methods of
`IdealHandle` are replaced on the class.

Spans stay in memory in flat lists and are written out once, at the
end.  Nothing inside `src/` changes; the wrappers are installed after
`import jstretch` and live for the life of the process.

`poly` is left untraced: its arithmetic runs millions of times per
workload and a wrapper would cost more than the work it measures.  Its
cost shows in the self time of `groebner`.  `session`, `parsing` and
`cli` lie outside the workloads.
"""

import gzip
import inspect
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = [-1]
        self.counts = Counter()
        self.max_degree = 0
        self.origin = time.perf_counter()

    def wrap(self, fn, name, after=None):
        """A wrapper of fn recording one span per call.

        `name` is a string, or a callable taking (args, kwargs) and
        returning the span name.  `after(args, kwargs, result)` runs once
        the call has returned, outside the span.
        """
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name(args, kwargs) if callable(name) else name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def write(self, path):
        """Write every span as gzip'd tab-separated text, times from the start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                out.write(
                    f"{sid}\t{parent}\t{name}\t{start - self.origin:.9f}\t{end - self.origin:.9f}\n"
                )

    # -- aggregation ---------------------------------------------------------

    def calls(self, name):
        return sum(1 for n in self.names if n == name)

    def inclusive(self, name):
        """Time covered by spans of `name`, nested spans of the same name
        counted once through their outermost ancestor."""
        return self._covered(lambda sid: self.names[sid] == name)

    def inclusive_under(self, name, ancestor):
        """Time covered by spans of `name` that run beneath an `ancestor` span."""
        under = self._flag_descendants(ancestor)
        return self._covered(lambda sid: self.names[sid] == name and under[sid])

    def self_time(self, name):
        """Sum over spans of `name` of their duration minus their children's."""
        child_time = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[sid] - self.starts[sid]
        return sum(
            self.ends[sid] - self.starts[sid] - child_time[sid]
            for sid, n in enumerate(self.names)
            if n == name
        )

    def count_under(self, name, ancestor):
        under = self._flag_descendants(ancestor)
        return sum(1 for sid, n in enumerate(self.names) if n == name and under[sid])

    def spans_with_child(self, name, child):
        """How many spans of `name` have a span of `child` beneath them."""
        has = [False] * len(self.names)
        for sid in range(len(self.names) - 1, -1, -1):
            parent = self.parents[sid]
            if parent >= 0 and (has[sid] or self.names[sid] == child):
                has[parent] = True
        return sum(1 for sid, n in enumerate(self.names) if n == name and has[sid])

    def _flag_descendants(self, ancestor):
        # ids are handed out at span start, so a parent precedes its children
        under = [False] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                under[sid] = under[parent] or self.names[parent] == ancestor
        return under

    def _covered(self, selected):
        marked = [False] * len(self.names)
        total = 0.0
        for sid, parent in enumerate(self.parents):
            inside = parent >= 0 and marked[parent]
            if selected(sid) and not inside:
                total += self.ends[sid] - self.starts[sid]
            marked[sid] = inside or selected(sid)
        return total


def quantity_slug(quantity):
    """A metric-name form of a speclab quantity: In/JIn-1+In+1 -> In_JIn-1_In_1."""
    return quantity.replace("/", "_").replace("+", "_")


# (module, attribute) of each traced module-level function; the span name
# is "<module>.<attribute>".
FUNCTIONS = (
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "eliminate"),
    ("lengths", "quotient_length"),
    ("lengths", "truncated_colength"),
    ("lengths", "count_standard_below"),
    ("reductions", "sample_reduction"),
    ("reductions", "reduction_number"),
    ("reductions", "index_of_nilpotency"),
    ("reductions", "j_multiplicity"),
    ("analysis", "is_j_stretched"),
    ("analysis", "classify"),
    ("analysis", "hilbert_K"),
    ("analysis", "nu_sequence"),
    ("analysis", "type_and_codim"),
    ("analysis", "stretched_test"),
    ("analysis", "cm_prediction"),
    ("analysis", "sally_condition"),
    ("analysis", "almost_cm_check"),
    ("fibercone", "rees_ideal"),
    ("fibercone", "gr_presentation"),
    ("fibercone", "graded_depth"),
    ("fibercone", "analytic_spread"),
    ("report", "analyze"),
    ("speclab", "stability_trials"),
    ("registry", "build_case"),
    ("registry", "middle_length"),
)

# IdealHandle methods; span name "ideals.<method>"
METHODS = ("contains_locally", "intersect", "colon", "saturate")


def _argument(fn, parameter):
    """A reader of one named argument of fn from a call's (args, kwargs)."""
    signature = inspect.signature(fn)

    def read(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[parameter]

    return read


def install(tracer):
    """Replace every traced function in every loaded jstretch module."""
    import jstretch.ideals

    modules = [m for n, m in sorted(sys.modules.items()) if n == "jstretch" or n.startswith("jstretch.")]
    counts = tracer.counts

    def note_degree(args, kwargs, result):
        if result:
            tracer.max_degree = max(tracer.max_degree, max(g.degree for g in result))

    def note_zero(args, kwargs, result):
        if result.is_zero:
            counts["groebner.normal_form.zero"] += 1

    def note_infinite(args, kwargs, result):
        if not result.is_finite:
            counts["lengths.quotient_length.infinite"] += 1

    for module_name, attr in FUNCTIONS:
        module = sys.modules[f"jstretch.{module_name}"]
        original = getattr(module, attr)
        span = f"{module_name}.{attr}"
        after = {
            "groebner.buchberger": note_degree,
            "groebner.normal_form": note_zero,
            "lengths.quotient_length": note_infinite,
        }.get(span)
        if span == "report.analyze":
            trials = _argument(original, "trials")

            def after(args, kwargs, result, trials=trials):
                counts["report.trials"] += trials(args, kwargs)

        elif span == "speclab.stability_trials":
            quantity = _argument(original, "quantity")

            def span(args, kwargs, quantity=quantity):
                return "speclab." + quantity_slug(quantity(args, kwargs))

        wrapper = tracer.wrap(original, span, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    handle = jstretch.ideals.IdealHandle
    for method in METHODS:
        setattr(handle, method, tracer.wrap(getattr(handle, method), f"ideals.{method}"))


def layer_metrics(tracer, caches, quantities):
    """The per-layer metrics of one traced round, by name."""
    t = tracer
    out = {
        "groebner.buchberger.calls": t.calls("groebner.buchberger"),
        "groebner.buchberger.self_s": t.self_time("groebner.buchberger"),
        "groebner.buchberger.max_degree": t.max_degree,
        "groebner.normal_form.calls": t.calls("groebner.normal_form"),
        "groebner.normal_form.zero": t.counts["groebner.normal_form.zero"],
        "groebner.normal_form.self_s": t.self_time("groebner.normal_form"),
        "groebner.eliminate.calls": t.calls("groebner.eliminate"),
        "groebner.eliminate.s": t.inclusive("groebner.eliminate"),
        "ideals.contains_locally.calls": t.calls("ideals.contains_locally"),
        "ideals.contains_locally.s": t.inclusive("ideals.contains_locally"),
        "ideals.contains_locally.eliminate_s": t.inclusive_under(
            "groebner.eliminate", "ideals.contains_locally"
        ),
        "ideals.contains_locally.length_s": t.inclusive_under(
            "lengths.quotient_length", "ideals.contains_locally"
        ),
    }
    for method in ("intersect", "colon", "saturate"):
        out[f"ideals.{method}.calls"] = t.calls(f"ideals.{method}")
        out[f"ideals.{method}.s"] = t.inclusive(f"ideals.{method}")
    computed = t.spans_with_child("lengths.quotient_length", "lengths.truncated_colength")
    beneath = t.count_under("lengths.truncated_colength", "lengths.quotient_length")
    out.update({
        "lengths.quotient_length.calls": t.calls("lengths.quotient_length"),
        "lengths.quotient_length.s": t.inclusive("lengths.quotient_length"),
        "lengths.quotient_length.infinite": t.counts["lengths.quotient_length.infinite"],
        "lengths.truncated_colength.calls": t.calls("lengths.truncated_colength"),
        "lengths.truncated_colength.s": t.inclusive("lengths.truncated_colength"),
        "lengths.truncations_per_length": beneath / computed if computed else 0.0,
        "lengths.count_standard_below.calls": t.calls("lengths.count_standard_below"),
        "lengths.count_standard_below.s": t.inclusive("lengths.count_standard_below"),
    })
    for module_name, attr in FUNCTIONS:
        if module_name in ("reductions", "analysis", "fibercone"):
            out[f"{module_name}.{attr}.s"] = t.inclusive(f"{module_name}.{attr}")
    out["report.analyze.s"] = t.inclusive("report.analyze")
    out["report.trials"] = t.counts["report.trials"]
    for q in quantities:
        out[f"speclab.{quantity_slug(q)}.s"] = t.inclusive(f"speclab.{quantity_slug(q)}")
    out["registry.build_case.s"] = t.inclusive("registry.build_case")
    out["registry.middle_length.s"] = t.inclusive("registry.middle_length")
    for label, size in caches.items():
        out[f"{label}.entries"] = size
    return out
