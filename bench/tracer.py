"""Outside-in tracer for the ellsoule layers.

`Tracer.install()` replaces the public callables of every layer module with
wrappers that record one span per call: name, enter/start/end/exit times,
parent span and task id.  Spans stay in memory until the pass ends; then
`summary()` computes per-name call counts, self time (duration minus the part
covered by child spans) and inclusive time, and `write()` dumps them.

Besides the plain function, every `from .x import y` copy of it in another
ellsoule module (and the package namespace) is rebound to the same wrapper,
so no call reaches a layer without passing through its span.  Methods are
wrapped on the class; reflected operators such as `CycloElement.__rmul__`
are class attributes of their own and are wrapped separately.

Work counts that need the arguments (coordinate products, term pairs,
symbols in) are taken between `enter` and `start` or between `end` and
`exit`.  Children cover their whole enter..exit interval, so that counting
cost lands in no layer's self time; it shows up in the traced/untraced wall
ratio instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from bisect import bisect_left

LAYERS = (
    "numutil",
    "cyclotomic",
    "puiseux",
    "measures",
    "tsym",
    "moments",
    "bernoulli",
    "units",
    "formal",
    "serialize",
    "verify",
    "cli",
)

# Arithmetic dunders are traced under the operation's name; other dunders
# (construction, comparison, hashing, repr) are not layer calls.
OPS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__neg__": "neg",
    "__truediv__": "truediv",
    "__pow__": "pow",
    "__call__": "call",
}

# Leaf helpers called once per coordinate or per value, from inside their
# own layer: a span each would double the span count of a pass and add
# nothing to the layer split.
NOT_TRACED = frozenset({"cyclotomic.euler_phi", "formal.call"})

# Spans whose inclusive time is reported.  Inclusive time counts only the
# outermost span of a name, so recursion is not counted twice.
TOTAL_NAMES = frozenset(
    {
        "units.theta_series",
        "units.norm_check_theta",
        "units.residue_elliptic_soule",
        "units.epsilon_cusp_eval",
        "formal.psi_residue",
        "formal.dir_closed",
        "formal.dir_via_me",
        "verify.suite_dir",
        "verify.suite_moments",
        "verify.suite_tsym",
        "verify.suite_measures",
        "verify.suite_bernoulli",
    }
)


def _nonzero(coeffs) -> int:
    return sum(1 for c in coeffs if c)


class Tracer:
    """Span recorder for one pass in one process."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = {
            "cyclotomic.mul.coord_products": 0,
            "puiseux.mul.term_pairs": 0,
            "puiseux.mul.useful_pairs": 0,
            "puiseux.invert.window_sum": 0,
            "puiseux.max_window": 0,
            "formal.class_init.symbols_in": 0,
        }
        self.enabled = False
        self.task = -1
        self._stack = [-1]

    # -- recording ------------------------------------------------------
    def _wrap(self, name, fn, pre=None, post=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = clock()
            if pre is not None:
                pre(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (name, enter, start, end, end, parent, tracer.task)
                raise
            end = clock()
            stack.pop()
            if post is not None:
                post(args, result)
            spans[idx] = (name, enter, start, end, clock(), parent, tracer.task)
            return result

        return wrapper

    # -- work counts ----------------------------------------------------
    def _counts_for(self, layer: str, op: str):
        c = self.counters
        if layer == "cyclotomic" and op == "mul":
            from ellsoule.cyclotomic import CycloElement

            def pre(args, kwargs):
                a, b = args
                nb = _nonzero(b.coeffs) if isinstance(b, CycloElement) else int(bool(b))
                c["cyclotomic.mul.coord_products"] += _nonzero(a.coeffs) * nb

            return pre, None
        if layer == "puiseux" and op == "mul":

            def post(args, result):
                f, g = args
                sf, sg = result.M // f.M, result.M // g.M
                ge = sorted(n * sg for n in g.terms)
                c["puiseux.mul.term_pairs"] += len(f.terms) * len(ge)
                c["puiseux.mul.useful_pairs"] += sum(
                    bisect_left(ge, result.T - n * sf) for n in f.terms
                )
                c["puiseux.max_window"] = max(c["puiseux.max_window"], result.T)

            return None, post
        if layer == "puiseux" and op == "invert":

            def post(args, result):
                f = args[0]
                c["puiseux.invert.window_sum"] += f.T - min(f.terms)
                c["puiseux.max_window"] = max(c["puiseux.max_window"], result.T)

            return None, post
        if layer == "formal" and op == "class_init":

            def pre(args, kwargs):
                coeffs = args[1] if len(args) > 1 else kwargs.get("coeffs")
                c["formal.class_init.symbols_in"] += len(coeffs or ())

            return pre, None
        return None, None

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every public callable of every layer and rebind its copies."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ellsoule.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._install_class(layer, obj)
                elif callable(obj) and f"{layer}.{attr}" not in NOT_TRACED:
                    pre, post = self._counts_for(layer, attr)
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj, pre, post)
        for name, mod in list(sys.modules.items()):
            if name != "ellsoule" and not name.startswith("ellsoule."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if layer == "formal" and cls.__name__ == "FormalClass" and attr == "__init__":
                op = "class_init"
            elif attr in OPS:
                op = OPS[attr]
            elif attr.startswith("_") or attr.startswith("is_"):
                continue
            else:
                op = attr
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if not inspect.isfunction(fn) or f"{layer}.{op}" in NOT_TRACED:
                continue
            pre, post = self._counts_for(layer, op)
            wrapper = self._wrap(f"{layer}.{op}", fn, pre, post)
            setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    # -- task bracketing ------------------------------------------------
    def start_task(self, task: int) -> None:
        self.task = task
        self.enabled = True

    def stop_task(self) -> None:
        self.enabled = False
        self.task = -1

    # -- results ----------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s and (for TOTAL_NAMES) total_s."""
        spans = self.spans
        cover = [0.0] * len(spans)
        for s in spans:
            if s[5] >= 0:
                cover[s[5]] += s[4] - s[1]
        out: dict[str, dict] = {}
        for i, s in enumerate(spans):
            name = s[0]
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            dur = s[3] - s[2]
            row["calls"] += 1
            row["self_s"] += dur - cover[i]
            if name in TOTAL_NAMES and not self._has_ancestor(i, name):
                row["total_s"] += dur
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][5]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][5]
        return False

    def write(self, path) -> None:
        """One tab-separated line per span, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tenter\tstart\tend\texit\tparent\ttask\n")
            for name, enter, start, end, exit_, parent, task in self.spans:
                fh.write(
                    f"{name}\t{enter - t0:.9f}\t{start - t0:.9f}\t{end - t0:.9f}"
                    f"\t{exit_ - t0:.9f}\t{parent}\t{task}\n"
                )
