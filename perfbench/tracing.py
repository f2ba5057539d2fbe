"""Spans recorded from outside besselbvp, around calls into its modules.

A ``Tracer`` replaces chosen public functions and methods with wrappers
that record one span per call: name, start, end, parent span, task id and
whether the call raised.  Module functions are rebound everywhere the
original object is reachable by name, so ``from .fem import galerkin_solve``
in another module is traced as well.  ``uninstall`` puts every original
object back, so an untraced pass runs the unmodified library.
"""

import functools
import sys
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent task failed")

PACKAGE = "besselbvp"

# (module, attribute) of traced functions; "Class.method" traces a method
# and a bare class name traces its constructor
TRACED = {
    "fem": ["galerkin_solve", "pencil_eig", "mass_deflated_eig",
            "first_cell_inner", "Space", "Space.matrices",
            "Space.load_vector", "Space.eval_coeffs",
            "Space.strong_residual"],
    "quadrature": ["jacobi_rule"],
    "solve": ["solve_1d", "resolvent_sweep", "solve_separable",
              "solve_dirichlet_laplacian", "operator_residual",
              "poisson_lift"],
    "modes": ["pencil_modes", "dirichlet_spectrum", "completeness_check",
              "embedding_singular_values"],
    "core": ["grid_derivative", "traces", "green_defect", "hardy_check"],
    "symbols": ["lopatinskii_sweep", "mode_solution"],
    "special": ["bessel_zeros"],
    "expansion": ["fit_expansion"],
    "kg": ["reduce", "ellipticity_verdicts"],
    "cli": ["run"],
}

# constructors that are counted without a span (called too often to time)
COUNTED = {"core": ["BranchFunction"]}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.data = {}            # filled by on_return hooks
        self.task = None
        self._stack = []
        self._hooks = {}
        self._restore = []

    # -- recording -------------------------------------------------------

    def on_return(self, name, hook):
        """Call ``hook(tracer, index, args, kwargs, result)`` after each call
        of ``name`` returns; ``index`` is the call's position in ``spans``."""
        self._hooks[name] = hook


    def span(self, name, fn):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            failed = True
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.task,
                                         failed)
            if hook is not None:
                hook(self, index, args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE
                                      or k.startswith(PACKAGE + "."))]

    def _rebind(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _patch(self, owner, attr, wrap):
        original = vars(owner)[attr]
        setattr(owner, attr, wrap(original))
        self._restore.append((owner, attr, original))

    def install(self):
        """Wrap every listed entry point; returns self for chaining."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for short, names in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                label = f"{short}.{name}"
                cls_name, _, method = name.partition(".")
                obj = getattr(module, cls_name)
                if method:
                    self._patch(obj, method,
                                lambda fn, label=label: self.span(label, fn))
                elif isinstance(obj, type):
                    self._patch(obj, "__init__",
                                lambda fn, label=label: self.span(label, fn))
                else:
                    self._rebind(obj, self.span(label, obj))
        for short, names in COUNTED.items():
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                self._patch(getattr(module, name), "__init__",
                            lambda fn, label=f"{short}.{name}":
                            self.counter(label, fn))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


# -- span arithmetic ---------------------------------------------------------

def busy(spans, name):
    """Inclusive seconds spent in spans called ``name``."""
    return sum(s.end - s.start for s in spans if s.name == name)


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    their durations add up to the covered time.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def has_ancestor(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
