"""Span tracer for the benchmark's traced run.

``install`` wraps every public function of the cvteleport layer modules, and
the validation of each ``CovarianceMatrix``, and patches the wrapper in
wherever the original is bound: the defining module, every module that
imported the name, and the package namespace. Each call records a span
(name, start, end, parent span, request id) in memory; ``Patches.restore``
puts the originals back. ``layer_metrics`` turns the spans of one pass over
the request list into the per-layer metrics in ``LAYER_METRICS``.

A layer's self time is its spans' time minus the time of their direct child
spans. Calls run in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import stats

LAYERS = ("cli", "gaussian", "teleport", "entanglement", "optimize", "localize", "mc")
CM_VALIDATE = "gaussian.cm_validate"  # span of CovarianceMatrix.__post_init__
CLOSED_FORMS = ("optimize.optimal_fidelity", "optimize.worst_case", "optimize.d_unbiased")


def _metric_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update({
        "gaussian.n_splitter.s": "s",
        "gaussian.n_splitter.calls": "count",
        "gaussian.n_splitter.repeat_ratio": "ratio",
        "gaussian.n_splitter.exponent": "slope",
        "gaussian.cm_validate.s": "s",
        "gaussian.cm_validate.calls": "count",
        "gaussian.symplectic_eigenvalues.s": "s",
        "gaussian.symplectic_eigenvalues.calls": "count",
        "gaussian.build_resource.self_s": "s",
        "gaussian.build_resource.calls": "count",
        "gaussian.cm_bytes": "bytes",
        "localize.localizable_eta.s": "s",
        "localize.localizable_eta.self_s": "s",
        "localize.localizable_eta.calls": "count",
        "localize.localizable_eta.exponent": "slope",
        "localize.homodyne_condition.s": "s",
        "localize.homodyne_condition.calls": "count",
        "entanglement.entanglement_report.self_s": "s",
        "entanglement.entanglement_report.calls": "count",
        "teleport.fidelity_network.self_s": "s",
        "teleport.fidelity_network.calls": "count",
        "teleport.teleported_variances.s": "s",
        "teleport.teleported_variances.calls": "count",
        "optimize.numerical_optimum.s": "s",
        "optimize.numerical_optimum.self_s": "s",
        "optimize.numerical_optimum.calls": "count",
        "optimize.objective_evals": "count",
        "optimize.closed_form.s": "s",
        "optimize.closed_form.calls": "count",
        "mc.simulate.s": "s",
        "mc.simulate.calls": "count",
        "mc.samples": "count",
        "mc.samples_per_s": "1/s",
        "cli.requests": "count",
        "trace.overhead": "ratio",
    })
    return units


LAYER_METRICS = _metric_units()


class Tracer:
    """In-memory span store; one column per field."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []  # open spans per name, to mark outermost spans
        self._stack: list[int] = []
        self.request_id = -1
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.outermost = array("b")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self.attr: dict[int, float] = {}
        self.objective_evals = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def open(self, nid: int, attr=None) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.outermost.append(self._depth[nid] == 0)
        self.ok.append(0)
        self.end.append(0.0)
        if attr is not None:
            self.attr[i] = attr
        self._depth[nid] += 1
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int, ok: bool) -> None:
        self.end[i] = self.clock()
        self._stack.pop()
        self._depth[self.name[i]] -= 1
        self.ok[i] = ok

    def wrap(self, name: str, fn, attr=None):
        """fn with a span around every call; attr(*args) labels the span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid, _safe_attr(attr, args, kwargs))
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self.close(i, ok)

        return traced

    def columns(self) -> dict:
        """The spans as numpy columns, for analysis and write-out."""
        import numpy as np

        attr = np.full(len(self), np.nan)
        for i, v in self.attr.items():
            attr[i] = v
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "request": np.array(self.request, dtype=np.int64),
            "outermost": np.array(self.outermost, dtype=bool),
            "ok": np.array(self.ok, dtype=bool),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "attr": attr,
        }


def _safe_attr(attr, args, kwargs):
    if attr is None:
        return None
    try:
        return float(attr(*args, **kwargs))
    except (AttributeError, IndexError, TypeError, ValueError):
        return None


# Span labels: the size a call's cost depends on.
ATTRS = {
    "gaussian.n_splitter": lambda N, *a, **k: N,
    "localize.localizable_eta": lambda spec, *a, **k: spec.N,
    "mc.simulate": lambda config, *a, **k: config.samples,
    CM_VALIDATE: lambda self: len(self.entries),  # 2N
}


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def public_functions(module):
    """(attribute, function) pairs defined by the module itself."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def _counting_objective(tracer: Tracer, golden_section):
    """golden_section whose objective counts its calls in tracer.objective_evals."""

    @functools.wraps(golden_section)
    def counting(fn, *args, **kwargs):
        def counted(x):
            tracer.objective_evals += 1
            return fn(x)

        return golden_section(counted, *args, **kwargs)

    return counting


def install(tracer: Tracer, package) -> Patches:
    """Wrap the public functions of package.<layer> for every layer in LAYERS."""
    # by import path: the package namespace may bind a function over a module name
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, module in zip(LAYERS, modules):
        for attr, fn in public_functions(module):
            name = f"{layer}.{attr}"
            inner = _counting_objective(tracer, fn) if name == "optimize.golden_section" else fn
            wrappers[id(fn)] = (fn, tracer.wrap(name, inner, ATTRS.get(name)))
    patches = Patches()
    for namespace in [package, *modules]:
        for attr, obj in list(vars(namespace).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.set(namespace, attr, hit[1])
    cm = getattr(package.gaussian, "CovarianceMatrix", None)
    if cm is not None and "__post_init__" in vars(cm):
        patches.set(cm, "__post_init__",
                    tracer.wrap(CM_VALIDATE, vars(cm)["__post_init__"], ATTRS[CM_VALIDATE]))
    return patches


def self_times(cols: dict):
    """Each span's duration minus the durations of its direct children."""
    import numpy as np

    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - children


def layer_metrics(cols: dict, names: list[str], objective_evals: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; keys as in LAYER_METRICS except
    trace.overhead, which needs an untraced pass."""
    import numpy as np

    dur, self_t = self_times(cols)
    name, parent, ok, outer = cols["name"], cols["parent"], cols["ok"], cols["outermost"]
    layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
    layer = layer_of_name[name]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)

    def mask(*wanted: str):
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(name, ids)

    out: dict[str, float] = {}
    for li, lname in enumerate(LAYERS):
        in_layer = layer == li
        out[f"{lname}.self_s"] = float(self_t[in_layer].sum())
        # an exception leaves the layer when the failing span's caller is elsewhere
        out[f"{lname}.errors"] = float(np.count_nonzero(in_layer & ~ok & (parent_layer != li)))

    def put(prefix: str, *wanted: str, fields=("s", "calls")):
        m = mask(*(wanted or (prefix,)))
        values = {"s": float(dur[m & outer].sum()), "self_s": float(self_t[m].sum()),
                  "calls": float(np.count_nonzero(m))}
        for f in fields:
            out[f"{prefix}.{f}"] = values[f]
        return m

    m = put("gaussian.n_splitter")
    out["gaussian.n_splitter.repeat_ratio"], out["gaussian.n_splitter.exponent"] = \
        _repeats_and_exponent(cols, m, dur)
    m = put(CM_VALIDATE)
    out["gaussian.cm_bytes"] = float(np.nansum(8.0 * cols["attr"][m] ** 2))
    put("gaussian.symplectic_eigenvalues")
    put("gaussian.build_resource", fields=("self_s", "calls"))
    m = put("localize.localizable_eta", fields=("s", "self_s", "calls"))
    out["localize.localizable_eta.exponent"] = _repeats_and_exponent(cols, m, dur)[1]
    put("localize.homodyne_condition")
    put("entanglement.entanglement_report", fields=("self_s", "calls"))
    put("teleport.fidelity_network", fields=("self_s", "calls"))
    put("teleport.teleported_variances")
    put("optimize.numerical_optimum", fields=("s", "self_s", "calls"))
    out["optimize.objective_evals"] = float(objective_evals)
    put("optimize.closed_form", *CLOSED_FORMS)
    m = put("mc.simulate")
    out["mc.samples"] = float(np.nansum(cols["attr"][m]))
    out["mc.samples_per_s"] = out["mc.samples"] / out["mc.simulate.s"] if out["mc.simulate.s"] else 0.0
    out["cli.requests"] = float(np.count_nonzero(mask("cli.main")))
    return out


def _repeats_and_exponent(cols: dict, m, dur) -> tuple[float, float]:
    """Share of calls whose size label was already seen in the same request,
    and the log-log slope of call time against size over the first calls."""
    import numpy as np

    seen: set[tuple[int, float]] = set()
    repeats = 0
    sizes, times = [], []
    for i in np.flatnonzero(m):
        key = (int(cols["request"][i]), float(cols["attr"][i]))
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
            sizes.append(key[1])
            times.append(float(dur[i]))
    calls = int(np.count_nonzero(m))
    return (repeats / calls if calls else 0.0), stats.loglog_slope(sizes, times)
