"""Per-layer tracing of the calls the benchmark makes into the library.

The tracer wraps each public function and method listed in ``TARGETS``.
A wrapped call is a span: it has a start, an end, the span that called it
and the task it ran in.  Self time is a span's duration minus the time of
the spans it called, kept on a stack as the calls nest.  Hot primitives
are only aggregated per name; the spans of the coarser calls in ``KEPT``
are also kept one by one, and written out when the run ends.

Library modules bind each other's functions with ``from .x import y``,
so a function is rebound under every name that holds it in every
``cluster_twist`` module, and all of them are put back by ``restore``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import wraps


def _terms(args, result):
    return len(result.terms) if result is not None else 0


def _steps(args, result):
    return len(args[1])


# (defining module, attribute, metric prefix, extra count or None)
TARGETS = (
    ("exact", "Matrix.__init__", "exact.matrix_new", None),
    ("exact", "Matrix.__mul__", "exact.matmul", None),
    ("exact", "Matrix.inverse", "exact.inverse", None),
    ("exact", "Matrix.rref", "exact.rref", None),
    ("exact", "solve_affine", "exact.solve_affine", None),
    ("seeds", "mutate_b", "seeds.mutate_b", None),
    ("seeds", "find_similarities", "seeds.find_similarities", None),
    ("laurent", "LaurentPoly.__mul__", "laurent.poly_mul", _terms),
    ("laurent", "divide_binomial", "laurent.divide_binomial", _terms),
    ("laurent", "exact_divide", "laurent.exact_divide", _terms),
    ("laurent", "RationalExpr.__init__", "laurent.rational_new", None),
    ("laurent", "pointed_decompose", "laurent.pointed_decompose", None),
    ("mutation", "mutate_expr", "mutation.mutate_expr", None),
    ("mutation", "run_trajectory", "mutation.run_trajectory", _steps),
    ("mutation", "find_t1", "mutation.find_t1", None),
    ("mutation", "expand_cluster_variable", "mutation.expand_cluster_variable", None),
    ("poisson", "solve_compatible_lambda", "poisson.solve_compatible_lambda", None),
    ("poisson", "transport_lambda", "poisson.transport_lambda", None),
    ("poisson", "poisson_bracket", "poisson.poisson_bracket", None),
    ("variation", "solve_M_variation", "variation.solve_M_variation", None),
    ("variation", "solve_N_variation", "variation.solve_N_variation", None),
    ("variation", "is_poisson", "variation.is_poisson", None),
    ("twist", "build_dt_twist", "twist.build_dt_twist", None),
    ("twist", "build_principal_twist", "twist.build_principal_twist", None),
    ("twist", "apply_twist", "twist.apply_twist", None),
    ("twist", "verify_twist", "twist.verify_twist", None),
    ("quantum", "q_mul", "quantum.q_mul", None),
    ("quantum", "poisson_limit_check", "quantum.poisson_limit_check", None),
    ("cli", "main", "cli.main", None),
    ("cli", "emit", "cli.emit", None),
)

# Calls coarse enough to keep one span each.
KEPT = frozenset(
    {
        "mutation.find_t1",
        "mutation.expand_cluster_variable",
        "poisson.solve_compatible_lambda",
        "variation.solve_M_variation",
        "variation.solve_N_variation",
        "twist.build_dt_twist",
        "twist.build_principal_twist",
        "twist.verify_twist",
        "quantum.poisson_limit_check",
        "cli.main",
    }
)

# The per-layer metrics a traced run reports, in report order.
PER_LAYER = (
    [f"{prefix}.{kind}" for _, _, prefix, _ in TARGETS if prefix != "cli.emit" for kind in ("calls", "self_s")]
    + ["cli.emit.self_s"]
    + [
        "laurent.divide_binomial.fail_ratio",
        "laurent.exact_divide.fail_ratio",
        "laurent.output_terms",
        "mutation.run_trajectory.steps",
        "trace.overhead_ratio",
    ]
)

FAIL_RATIOS = ("laurent.divide_binomial", "laurent.exact_divide")
OUTPUT_TERMS = ("laurent.poly_mul", "laurent.divide_binomial", "laurent.exact_divide")


def library_modules() -> list:
    """The loaded modules of the ``cluster_twist`` package."""
    return [m for n, m in list(sys.modules.items()) if n == "cluster_twist" or n.startswith("cluster_twist.")]


def unit(name: str) -> str:
    if name.endswith("ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Span recorder; ``clock`` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, self seconds, None returns, extra count]
        self.spans = []  # kept spans: [name, task, start, end, parent index]
        self._stack = []  # open spans: [child seconds, kept index or None]
        self._task = None
        self._patched = []

    def wrap(self, fn, name, extra=None):
        """Wrapper recording each call of ``fn`` as a span named ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0, 0])
        stack = self._stack
        clock = self.clock
        spans = self.spans if name in KEPT else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if spans is not None:
                frame[1] = len(spans)
                spans.append([name, self._task, 0.0, 0.0, self._kept_parent()])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                if spans is not None:
                    spans[frame[1]][2:4] = [start, end]
            if result is None:
                stat[2] += 1
            if extra is not None:
                stat[3] += extra(args, result)
            return result

        return wrapper

    def _kept_parent(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    @contextmanager
    def task(self, task_id):
        """Root span of one task; its children's time is subtracted from it."""
        self._task = task_id
        frame = [0.0, len(self.spans)]
        self.spans.append(["task", task_id, 0.0, 0.0, None])
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[frame[1]][2:4] = [start, end]
            self._task = None

    # -- patching ---------------------------------------------------------------

    def patch(self):
        """Install a wrapper for every target, under every name holding it."""
        if self._patched:
            raise RuntimeError("tracer is already patched")
        modules = library_modules()
        for modname, attr, name, extra in TARGETS:
            owner = sys.modules[f"cluster_twist.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, name, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, extra)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def restore(self):
        """Put every patched name back to its original object."""
        while self._patched:
            holder, binding, original = self._patched.pop()
            setattr(holder, binding, original)

    @contextmanager
    def patched(self):
        self.patch()
        try:
            yield self
        finally:
            self.restore()

    # -- report -----------------------------------------------------------------

    def layer_metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Per-layer metrics per pass over the traced task list."""
        out = {}
        for _, _, name, _ in TARGETS:
            calls, self_s, nones, _ = self.stats.get(name, (0, 0.0, 0, 0))
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
            if name in FAIL_RATIOS:
                out[f"{name}.fail_ratio"] = nones / calls if calls else 0.0
        out["laurent.output_terms"] = sum(self.stats.get(n, (0, 0, 0, 0))[3] for n in OUTPUT_TERMS) / passes
        out["mutation.run_trajectory.steps"] = self.stats.get("mutation.run_trajectory", (0, 0, 0, 0))[3] / passes
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name in PER_LAYER}
