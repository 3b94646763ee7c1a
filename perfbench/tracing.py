"""Span tracing of the package's layers from outside the package.

``Tracer`` wraps the public functions and methods listed in
``FUNCTIONS`` and ``EXTRA``, and ``install`` rebinds each wrapper in every ``mehler`` module namespace
that binds the original, because ``suite.py`` and ``special.py`` import
names directly.  A wrapper records one span (name, start, end, parent, op
id) in flat in-memory arrays and, for some layers, a work count.
``uninstall`` restores every binding.  ``layer_metrics`` turns the spans
into the per-layer metrics; ``save`` writes the spans out.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children are disjoint
intervals inside their parent and that difference is exactly the part of
the span no child covers.
"""

import functools
import sys
import time
from array import array

import numpy as np

MODULES = (
    "specfun", "quadrature", "spectral", "kernels", "taylor",
    "semigroup", "special", "stft", "suite",
)

# (span name, module, attribute path, work counter)
FUNCTIONS = (
    ("specfun.hermite_eval", "specfun", "hermite_eval", "hermite_values"),
    ("specfun.hermite_log_eval", "specfun", "hermite_log_eval", "log_steps"),
    ("quadrature.gauss_legendre_rule", "quadrature", "gauss_legendre_rule", None),
    ("quadrature.gauss_hermite_rule", "quadrature", "gauss_hermite_rule", None),
    ("quadrature.plane_nodes", "quadrature", "PlaneGrid.nodes", "plane_nodes"),
    ("spectral.expand", "spectral", "expand", None),
    ("spectral.eval_entire", "spectral", "eval_entire", None),
    ("spectral.eval_grid", "spectral", "SpectralHandle.eval_grid", "eval_grid"),
    ("kernels.mehler_kernel", "kernels", "mehler_kernel", "kernel_points"),
    ("kernels.bergman_weight_dt", "kernels", "bergman_weight_dt", "z_points"),
    ("kernels.bound_log_eval", "kernels", "BoundSpec.log_eval", "x_points"),
    ("semigroup.calibrate_weight", "semigroup", "calibrate_weight", None),
    ("semigroup.bergman_norm", "semigroup", "bergman_norm", None),
    ("semigroup.reproduce", "semigroup", "reproduce", None),
    ("semigroup.envelope_ratio", "semigroup", "envelope_ratio", None),
    ("special.special_hermite_eval", "special", "special_hermite_eval", "special_points"),
    ("special.special_hermite_matrix", "special", "special_hermite_matrix", "matrix_entries"),
    ("special.twisted_conv", "special", "twisted_conv", "conv_points"),
    ("special.bergman_norm_special", "special", "bergman_norm_special", None),
    ("special.calibrate_weight_special", "special", "calibrate_weight_special", None),
    ("special.special_envelope", "special", "special_envelope", None),
    ("special.intertwine_check", "special", "intertwine_check", None),
    ("stft.gauss_stft", "stft", "gauss_stft", None),
    ("stft.bridge_residual", "stft", "bridge_residual", None),
    ("stft.pw_envelope", "stft", "pw_envelope", None),
)

# Spans that attribute time to a module without a metric of their own.
EXTRA = (
    ("semigroup.semigroup_handle", "semigroup", "semigroup_handle", None),
    ("spectral.handle_eval", "spectral", "SpectralHandle.eval", None),
    ("semigroup.MehlerSliceHandle.eval_grid", "semigroup", "MehlerSliceHandle.eval_grid", "eval_grid"),
    ("semigroup.KernelImageHandle.eval_grid", "semigroup", "KernelImageHandle.eval_grid", "eval_grid"),
    ("spectral.ClosedFormHandle.eval_grid", "spectral", "ClosedFormHandle.eval_grid", "eval_grid"),
    ("stft._StftHandle.eval_grid", "stft", "_StftHandle.eval_grid", "eval_grid"),
    ("kernels.bergman_weight", "kernels", "bergman_weight", None),
    ("kernels.twisted_bergman_weight", "kernels", "twisted_bergman_weight", None),
    ("special.twisted_eval", "special", "twisted_eval", None),
    ("special.special_semigroup_apply", "special", "special_semigroup_apply", None),
    ("special.laguerre_project", "special", "laguerre_project", None),
    ("special.composed_intertwine_residual", "special", "composed_intertwine_residual", None),
    ("stft.compact_growth_check", "stft", "compact_growth_check", None),
    ("taylor.sinh", "taylor", "sinh", None),
    ("taylor.cosh", "taylor", "cosh", None),
    ("taylor.tanh", "taylor", "tanh", None),
    ("taylor.coth", "taylor", "coth", None),
)


def _unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its suffix."""
    if name.endswith(".calls"):
        return "count", "lower"
    if name.endswith((".self_s", ".s")):
        return "s", "lower"
    if name.endswith(".distinct_ratio"):
        return "ratio", "higher"
    if name.endswith((".share", ".overhead_ratio", ".grid_passes_per_point")):
        return "ratio", "lower"
    if name.endswith(".steps_per_value"):
        return "steps", "lower"
    return "count", "lower"


def layer_metric_spec(check_names) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for span, *_ in FUNCTIONS:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [
        "specfun.hermite_eval.values",
        "specfun.hermite_log_eval.steps_per_value",
        "quadrature.plane_nodes.distinct_ratio",
        "spectral.eval_grid.points",
        "kernels.mehler_kernel.points",
        "kernels.bergman_weight_dt.points",
        "kernels.bound_log_eval.points",
        "taylor.self_s",
        "semigroup.eval_grid.distinct_ratio",
        "special.special_hermite_eval.points",
        "special.special_hermite_matrix.entries",
        "special.twisted_conv.grid_passes_per_point",
    ]
    names += [f"suite.{c}.s" for c in check_names]
    names += [f"{m}.share" for m in MODULES]
    names.append("trace.overhead_ratio")
    return [(n, *_unit(n)) for n in names]


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _arg(args, kwargs, i: int, name: str):
    """Argument ``name`` at position ``i``, passed either way."""
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """In-memory span recorder; one per traced run.

    The constructor builds every wrapper and the list of bindings to
    replace; ``install`` and ``uninstall`` only swap those bindings, so a
    run can switch tracing on and off between ops cheaply.
    """

    def __init__(self, mehler, check_names):
        self.check_names = list(check_names)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, float] = {}
        self._grids: set = set()
        self._eval_keys: set = set()
        self._eval_handles: list = []  # keeps ids in _eval_keys unique
        self._conv_points: set = set()
        self._bindings = self._plan(mehler)
        self._suite = mehler.suite
        self._checks = list(mehler.suite.CHECKS)
        self._traced_checks = [
            self.wrap(fn, f"suite.{name}", new_op=True)
            for fn, name in zip(self._checks, self.check_names)
        ]

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, fn, span: str, counter: str | None = None, new_op: bool = False):
        nid = self._id(span)
        count = getattr(self, f"_count_{counter}") if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_op:
                self.op_id += 1
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count:
                count(args, kwargs, result)
            return result

        return wrapper

    # -- work counters (args as the package functions receive them) --------

    def _count_hermite_values(self, args, kwargs, result):
        self._add("specfun.hermite_eval.values", np.size(result))

    def _count_log_steps(self, args, kwargs, result):
        self._add("specfun.hermite_log_eval.steps", _arg(args, kwargs, 0, "k"))

    def _count_plane_nodes(self, args, kwargs, result):
        self._grids.add(args[0])

    def _count_eval_grid(self, args, kwargs, result):
        handle = args[0]
        X = np.asarray(_arg(args, kwargs, 1, "X"))
        Y = np.asarray(_arg(args, kwargs, 2, "Y"))
        if type(handle).__name__ == "SpectralHandle":
            self._add("spectral.eval_grid.points", X.size)
        if self._stack and self.names[self.name[self._stack[-1]]].startswith("semigroup."):
            self._add("semigroup.eval_grid.calls", 1)
            self._eval_handles.append(handle)
            self._eval_keys.add((id(handle), hash(X.tobytes()), hash(Y.tobytes())))

    def _count_kernel_points(self, args, kwargs, result):
        self._add("kernels.mehler_kernel.points", np.size(result))

    def _count_z_points(self, args, kwargs, result):
        self._add("kernels.bergman_weight_dt.points", np.size(_arg(args, kwargs, 2, "z")))

    def _count_x_points(self, args, kwargs, result):
        self._add("kernels.bound_log_eval.points", np.size(_arg(args, kwargs, 1, "X")))

    def _count_special_points(self, args, kwargs, result):
        z, w = _arg(args, kwargs, 2, "z"), _arg(args, kwargs, 3, "w")
        self._add("special.special_hermite_eval.points", _size(z, w))

    def _count_matrix_entries(self, args, kwargs, result):
        self._add("special.special_hermite_matrix.entries", np.size(result))

    def _count_conv_points(self, args, kwargs, result):
        z, w = np.broadcast_arrays(
            np.asarray(_arg(args, kwargs, 2, "z"), complex),
            np.asarray(_arg(args, kwargs, 3, "w"), complex),
        )
        self._conv_points.update(zip(z.ravel().tolist(), w.ravel().tolist()))

    # -- installation --------------------------------------------------------

    def _plan(self, mehler) -> list:
        """(owner, attribute, original, wrapper) for every binding to swap:
        each target in the class that defines it, or in every ``mehler``
        module namespace that binds it."""
        modules = [m for k, m in sys.modules.items() if k == "mehler" or k.startswith("mehler.")]
        plan = []
        for span, mod, path, counter in FUNCTIONS + EXTRA:
            owner = getattr(mehler, mod)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, span, counter)
            if cls_path:
                plan.append((owner, attr, original, wrapper))
                continue
            for m in modules:
                for name, value in vars(m).items():
                    if value is original:
                        plan.append((m, name, original, wrapper))
        # every TaylorScalar operation is a taylor.* span
        cls = mehler.taylor.TaylorScalar
        for name, value in vars(cls).items():
            if name in ("__init__", "__slots__") or isinstance(value, property):
                continue
            if isinstance(value, classmethod):
                wrapped = classmethod(self.wrap(value.__func__, f"taylor.{name}"))
                plan.append((cls, name, value, wrapped))
            elif callable(value):
                plan.append((cls, name, value, self.wrap(value, f"taylor.{name}")))
        return plan

    def install(self) -> None:
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        self._suite.CHECKS[:] = self._traced_checks

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)
        self._suite.CHECKS[:] = self._checks

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(name id, duration, self time) of every span."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return name, dur, dur - child

    def layer_metrics(self, wall_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics over the traced interval of ``wall_s`` seconds."""
        name, dur, self_t = self.arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_t, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        ids = self._ids

        def stat(span, idx):
            i = ids.get(span)
            return float(idx[i]) if i is not None else 0.0

        out = {}
        for span, *_ in FUNCTIONS:
            out[f"{span}.calls"] = stat(span, calls)
            out[f"{span}.self_s"] = stat(span, self_s)
        c = self.counts
        log_calls = out["specfun.hermite_log_eval.calls"]
        grid_calls = out["quadrature.plane_nodes.calls"]
        sg_calls = c.get("semigroup.eval_grid.calls", 0.0)
        conv_calls = out["special.twisted_conv.calls"]
        out.update({
            "specfun.hermite_eval.values": c.get("specfun.hermite_eval.values", 0.0),
            "specfun.hermite_log_eval.steps_per_value":
                c.get("specfun.hermite_log_eval.steps", 0.0) / log_calls if log_calls else 0.0,
            "quadrature.plane_nodes.distinct_ratio":
                len(self._grids) / grid_calls if grid_calls else 0.0,
            "spectral.eval_grid.points": c.get("spectral.eval_grid.points", 0.0),
            "kernels.mehler_kernel.points": c.get("kernels.mehler_kernel.points", 0.0),
            "kernels.bergman_weight_dt.points": c.get("kernels.bergman_weight_dt.points", 0.0),
            "kernels.bound_log_eval.points": c.get("kernels.bound_log_eval.points", 0.0),
            "taylor.self_s": float(sum(
                self_s[i] for s, i in ids.items() if s.startswith("taylor."))),
            "semigroup.eval_grid.distinct_ratio":
                len(self._eval_keys) / sg_calls if sg_calls else 0.0,
            "special.special_hermite_eval.points":
                c.get("special.special_hermite_eval.points", 0.0),
            "special.special_hermite_matrix.entries":
                c.get("special.special_hermite_matrix.entries", 0.0),
            "special.twisted_conv.grid_passes_per_point":
                conv_calls / len(self._conv_points) if self._conv_points else 0.0,
        })
        for check in self.check_names:
            span = f"suite.{check}"
            k = stat(span, calls)
            out[f"{span}.s"] = stat(span, incl) / k if k else 0.0
        for mod in MODULES:
            total = sum(self_s[i] for s, i in ids.items() if s.startswith(mod + "."))
            out[f"{mod}.share"] = float(total) / wall_s if wall_s > 0 else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def save(self, path) -> None:
        """Write the spans out: names, start, end, parent index and op id."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
