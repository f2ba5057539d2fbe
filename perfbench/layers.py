"""Per-layer metrics of one traced pass, named after besselbvp's modules.

``watch`` registers the hooks that record exact work counts at the span
boundaries; ``metrics`` turns the spans of a traced pass into the numbers
listed in ``PER_LAYER`` (name, unit, which direction is better).
"""

import hashlib

import numpy as np

from tracing import busy, has_ancestor, self_times

PER_LAYER = [
    ("fem.galerkin_solve.calls", "count", "lower"),
    ("fem.galerkin_solve.busy_s", "s", "lower"),
    ("fem.galerkin_solve.failed", "count", "lower"),
    ("fem.galerkin_solve.matrix_bytes", "B", "lower"),
    ("fem.galerkin_solve.scaling_exp", "1", "lower"),
    ("fem.Space.calls", "count", "lower"),
    ("fem.Space.busy_s", "s", "lower"),
    ("fem.Space.matrices.calls", "count", "lower"),
    ("fem.Space.matrices.self_s", "s", "lower"),
    ("fem.first_cell_inner.busy_s", "s", "lower"),
    ("fem.Space.load_vector.busy_s", "s", "lower"),
    ("fem.assembly_redundant_frac", "ratio", "lower"),
    ("fem.pencil_eig.calls", "count", "lower"),
    ("fem.pencil_eig.busy_s", "s", "lower"),
    ("fem.pencil_eig.companion_dim_sum", "count", "lower"),
    ("fem.pencil_eig.scaling_exp", "1", "lower"),
    ("fem.mass_deflated_eig.busy_s", "s", "lower"),
    ("fem.Space.eval_coeffs.calls", "count", "lower"),
    ("fem.Space.eval_coeffs.busy_s", "s", "lower"),
    ("fem.Space.strong_residual.busy_s", "s", "lower"),
    ("quadrature.jacobi_rule.calls", "count", "lower"),
    ("quadrature.cache_hit_frac", "ratio", "higher"),
    ("solve.solve_1d.calls", "count", "lower"),
    ("solve.solve_1d.self_s", "s", "lower"),
    ("solve.solve_1d.spaces_per_call", "count", "lower"),
    ("solve.resolvent_sweep.self_s", "s", "lower"),
    ("solve.solve_separable.self_s", "s", "lower"),
    ("solve.solve_dirichlet_laplacian.self_s", "s", "lower"),
    ("solve.operator_residual.self_s", "s", "lower"),
    ("solve.poisson_lift.busy_s", "s", "lower"),
    ("modes.pencil_modes.self_s", "s", "lower"),
    ("modes.pencil_modes.modes_used_frac", "ratio", "higher"),
    ("modes.dirichlet_spectrum.self_s", "s", "lower"),
    ("modes.completeness_check.busy_s", "s", "lower"),
    ("modes.embedding_singular_values.busy_s", "s", "lower"),
    ("core.grid_derivative.calls", "count", "lower"),
    ("core.grid_derivative.busy_s", "s", "lower"),
    ("core.traces.busy_s", "s", "lower"),
    ("core.green_defect.busy_s", "s", "lower"),
    ("core.hardy_check.busy_s", "s", "lower"),
    ("core.BranchFunction.calls", "count", "lower"),
    ("symbols.lopatinskii_sweep.busy_s", "s", "lower"),
    ("symbols.mode_solution.busy_s", "s", "lower"),
    ("special.bessel_zeros.calls", "count", "lower"),
    ("special.bessel_zeros.busy_s", "s", "lower"),
    ("expansion.fit_expansion.busy_s", "s", "lower"),
    ("kg.reduce.busy_s", "s", "lower"),
    ("kg.ellipticity_verdicts.busy_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.artifacts_changed", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _galerkin(tracer, index, args, kwargs, result):
    A, rhs = args[0], args[1]
    tracer.data.setdefault("galerkin", []).append(
        (index, A.shape[0], A.nbytes + rhs.nbytes))


def _pencil(tracer, index, args, kwargs, result):
    lam, _, m = result
    tracer.data.setdefault("pencil", []).append((index, 2 * m, lam.size))


def _matrices(tracer, index, args, kwargs, result):
    space = args[0]
    key = hashlib.sha1(repr((space.order.nu, space.degree, space.include_minus,
                             space.dirichlet_cap)).encode()
                       + space.edges.tobytes()).hexdigest()
    tracer.data.setdefault("mesh_keys", []).append(key)


def watch(tracer):
    """Register the work-count hooks; call before ``tracer.install()``."""
    tracer.on_return("fem.galerkin_solve", _galerkin)
    tracer.on_return("fem.pencil_eig", _pencil)
    tracer.on_return("fem.Space.matrices", _matrices)
    return tracer


def _scaling_exponent(spans, sized):
    """Slope of log(busy seconds) against log(size) over the calls."""
    sizes = np.array([size for _, size in sized], dtype=float)
    if np.unique(sizes).size < 2:
        return 0.0
    secs = np.array([spans[i].end - spans[i].start for i, _ in sized])
    return float(np.polyfit(np.log(sizes), np.log(secs), 1)[0])


def metrics(tracer, tasks, cache_delta, artifacts_changed, overhead):
    """All PER_LAYER values for one traced pass over ``tasks``."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
    galerkin = tracer.data.get("galerkin", [])
    pencil = tracer.data.get("pencil", [])
    keys = tracer.data.get("mesh_keys", [])

    solve_calls = calls.get("solve.solve_1d", 0)
    spaces_in_solve = sum(1 for i, s in enumerate(spans)
                          if s.name == "fem.Space"
                          and has_ancestor(spans, i, "solve.solve_1d"))
    computed = sum(n for i, _, n in pencil
                   if has_ancestor(spans, i, "modes.pencil_modes"))
    reading = {s.task for s in spans if s.name == "modes.pencil_modes"}
    reads = sum(tasks[t].reads for t in reading)
    hits, misses = cache_delta

    out = {
        "fem.galerkin_solve.failed": sum(
            1 for s in spans if s.name == "fem.galerkin_solve" and s.failed),
        "fem.galerkin_solve.matrix_bytes": sum(b for _, _, b in galerkin),
        "fem.galerkin_solve.scaling_exp": _scaling_exponent(
            spans, [(i, n) for i, n, _ in galerkin]),
        "fem.assembly_redundant_frac": (1.0 - len(set(keys)) / len(keys)
                                        if keys else 0.0),
        "fem.pencil_eig.companion_dim_sum": sum(d for _, d, _ in pencil),
        "fem.pencil_eig.scaling_exp": _scaling_exponent(
            spans, [(i, d) for i, d, _ in pencil]),
        "quadrature.cache_hit_frac": (hits / (hits + misses)
                                      if hits + misses else 0.0),
        "solve.solve_1d.spaces_per_call": (spaces_in_solve / solve_calls
                                           if solve_calls else 0.0),
        "modes.pencil_modes.modes_used_frac": (reads / computed
                                               if computed else 0.0),
        "core.BranchFunction.calls": tracer.counts.get("core.BranchFunction",
                                                       0),
        "cli.artifacts_changed": artifacts_changed,
        "trace.overhead_frac": overhead,
    }
    for name, _, _ in PER_LAYER:
        if name in out:
            continue
        span_name, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(span_name, 0)
        elif stat == "busy_s":
            out[name] = busy(spans, span_name)
        elif stat == "self_s":
            out[name] = self_s.get(span_name, 0.0)
        else:
            raise KeyError(name)
    return out
