"""The four seeded workloads: fixed task kinds and sizes, drawn parameters.

Each workload function takes a numpy Generator and a scratch directory and
returns a list of ``Task``s.  ``Task.call`` runs the library through its API
(this is the timed part); ``Task.check`` compares the result with an
oracle from ``oracles`` and returns a list of failures, each a pair
(message, defect).  ``defect`` is None, or the label of a documented library
defect that explains that one check's miss; a labelled miss still counts as
a failed task, but as an expected one.  ``Task.raises`` likewise names an
exception, and its label, that a task is documented to raise.
"""

import configparser
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.special as ss
from numpy.polynomial import Polynomial

import besselbvp.cli as cli
import besselbvp.core as core
import besselbvp.expansion as expansion
import besselbvp.kg as kg
import besselbvp.modes as modes
import besselbvp.solve as solve
import besselbvp.special as special
import besselbvp.symbols as symbols
from besselbvp.config import DEFAULTS
from besselbvp.errors import SingularSystem

import oracles

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

# documented defects: ROADMAP item 2, and those this benchmark found; each
# labels only the checks it explains, and only where the inputs say so
ZEROS_DEFECT = "ROADMAP 2a: bessel_zeros skips zeros for nu > 5"
FIT_DEFECT = ("fit_expansion of exact pair data misses the 1e-10 of "
              "acceptance criterion 9 away from its test point, and 1e-8 "
              "near nu = 0.5")
TRACES_DEFECT = ("traces() of sampled mode solutions misses the 1e-8 of "
                 "acceptance criterion 2 for nu above ~0.7")
GAMMA_PLUS_DEFECT = ("ROADMAP 2b: gamma_+ of subcritical solves degrades as "
                     "nu -> 1 (misses 1e-8 from nu ~ 0.6)")
PENCIL_DEFECT = ("Laplace-pencil eigenvalues at n = 128 miss the 1e-6 of "
                 "acceptance criterion 7 for nu above ~0.6 (nu -> 1, as 2b)")
GATE_DEFECT = ("solve_1d's strong-residual gate is absolute when f = 0, so "
               "a resolved Robin data solve with large data raises "
               "SingularSystem")


@dataclass
class Task:
    kind: str
    size: int
    params: dict
    call: object
    check: object
    raises: tuple = None      # (exception class, defect label)
    reads: int = 0            # pencil modes the caller reads


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _expect(fails, ok, message, defect=None):
    if not ok:
        fails.append((message, defect))


def _sample(x, count=12):
    return np.unique(np.linspace(0, x.size - 1, count).astype(int))


def _mfg_rhs(nu, poly, a):
    """f = (|D_nu|^2 + a) u* for u* = x^{1/2+nu} F(x), F a polynomial."""
    d1, d2 = poly.deriv(), poly.deriv(2)

    def ustar(x):
        return x ** (0.5 + nu) * poly(x)

    def f(x):
        return (-x ** (0.5 + nu) * d2(x) - (1 + 2 * nu) * x ** (nu - 0.5) * d1(x)
                + a * x ** (0.5 + nu) * poly(x))

    return ustar, f


def _cos_mfg(nu, k, a):
    """u* = x^{1/2+nu} (1-x)^2 cos(k x) and its right-hand side."""
    def F(x):
        return (1 - x) ** 2 * np.cos(k * x)

    def F1(x):
        return -2 * (1 - x) * np.cos(k * x) - k * (1 - x) ** 2 * np.sin(k * x)

    def F2(x):
        return (2 * np.cos(k * x) + 4 * k * (1 - x) * np.sin(k * x)
                - k * k * (1 - x) ** 2 * np.cos(k * x))

    def ustar(x):
        return x ** (0.5 + nu) * F(x)

    def f(x):
        return (-x ** (0.5 + nu) * F2(x) - (1 + 2 * nu) * x ** (nu - 0.5) * F1(x)
                + a * x ** (0.5 + nu) * F(x))

    return ustar, f


def laplace_pencil(nu):
    return solve.BesselOperator(core.Order(nu), a_coeff=0.0,
                                pencil_fourier=lambda q: (float(np.dot(q, q)),
                                                          0.0, 1.0))


# -- CLI fixtures -------------------------------------------------------------

def fixture_variant(name, workdir, overrides):
    """Write ``fixtures/<name>`` with ``overrides`` {(section, key): value}.

    The copy keeps the fixture's file stem, so artifact names match.
    """
    parser = configparser.ConfigParser()
    parser.read(FIXTURES / name)
    for (section, key), value in overrides.items():
        parser[section][key] = value
    path = Path(workdir) / name
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def cli_call(command, cfg_path, outdir, seed):
    """A function that runs ``cli.run`` on the config and returns the text
    of its JSON artifact (parsed later, outside the timed call)."""
    run_cfg = cli.RunConfig(command=command, config_path=Path(cfg_path),
                            output_dir=Path(outdir), seed=seed, quiet=True)
    artifact = Path(outdir) / f"{command}_{Path(cfg_path).stem}.json"

    def call():
        code = cli.run(run_cfg)
        if code != 0:
            raise RuntimeError(f"cli.run {command} exited {code}")
        return artifact.read_text()

    return call


def cli_task(kind, command, cfg_path, outdir, seed, params, check, size,
             reads=0):
    call = cli_call(command, cfg_path, Path(outdir) / kind, seed)
    return Task(kind, size, params, call, lambda text: check(json.loads(text)),
                reads=reads)


# -- bvp ----------------------------------------------------------------------

def _robin(rng, n, lo, hi, defect=None):
    """Robin data g plus a manufactured right-hand side: u = u* + w with
    u* = x^{1/2+nu}(1-x)^2 cos(k x) (gamma_- = 0, gamma_+ = 2 nu) and w the
    homogeneous Robin solution carrying the remaining data g - 2 nu.

    Values use the Robin test's 2e-6.  gamma_+ uses the 1e-7 to which the
    tests hold the gamma_+ of a solve; for nu in [0.05, 0.15] the largest
    error seen is 1.6e-8 (n = 256, 300 draws), and from nu ~ 0.2 draws
    start to miss it.  gamma_- uses 1e-9 (largest error seen 8e-11).
    ``defect`` labels the gamma_+ and values checks; near nu = 1 the values
    miss too (up to 6e-6 for nu in [0.8, 0.9])."""
    nu, a, k = _u(rng, lo, hi), _u(rng, 0.5, 2.0), _u(rng, 2.0, 5.0)
    beta, g = _u(rng, 0.5, 2.0), _u(rng, 0.5, 1.5)
    ustar, f = _cos_mfg(nu, k, a)
    op = solve.BesselOperator(core.Order(nu), a_coeff=a)
    prob = solve.BVProblem(op=op, bc0=symbols.BoundaryOperator.robin(nu, beta),
                           bc1=solve.CapCondition.DIRICHLET, rhs=f,
                           boundary_data=g, rhs_singular_exponent=nu - 0.5)

    def check(sol):
        gm, gp, w = oracles.robin_interval(nu, a, beta, g - 2 * nu)
        gp += 2 * nu
        x = sol.u.grid.nodes
        idx = _sample(x)
        exact = np.array(w(x[idx])) + ustar(x[idx])
        err = np.max(np.abs(sol.u.values[idx] - exact))
        fails = []
        _expect(fails, err < 2e-6, f"values off by {err:.2e}", defect)
        _expect(fails, abs(sol.traces.gamma_plus - gp) < 1e-7,
                f"gamma_+ off by {abs(sol.traces.gamma_plus - gp):.2e}", defect)
        _expect(fails, abs(sol.traces.gamma_minus - gm) < 1e-9,
                f"gamma_- off by {abs(sol.traces.gamma_minus - gm):.2e}")
        return fails

    return Task("bvp.robin_data", n, dict(nu=nu, a=a, k=k, beta=beta, g=g),
                lambda: solve.solve_1d(prob, n_nodes=n), check)


def _robin_data_only(rng, n):
    """Robin data g with f = 0.  The strong-residual gate is absolute when
    f = 0 and the residual grows with g: with g in [2000, 4000] every draw
    raises (smallest residual seen 0.095, gate 1e-2), although without the
    gate every draw meets the checks below (GATE_DEFECT)."""
    nu, a = _u(rng, 0.05, 0.15), _u(rng, 0.5, 2.0)
    beta, g = _u(rng, 0.5, 2.0), _u(rng, 2000.0, 4000.0)
    op = solve.BesselOperator(core.Order(nu), a_coeff=a)
    prob = solve.BVProblem(op=op, bc0=symbols.BoundaryOperator.robin(nu, beta),
                           bc1=solve.CapCondition.DIRICHLET, rhs=0.0,
                           boundary_data=g)

    def check(sol):
        gm, gp, w = oracles.robin_interval(nu, a, beta, g)
        x = sol.u.grid.nodes
        idx = _sample(x)
        err = np.max(np.abs(sol.u.values[idx] - np.array(w(x[idx]))))
        fails = []
        _expect(fails, err < 2e-6 * g, f"values off by {err:.2e}")
        _expect(fails, abs(sol.traces.gamma_plus - gp) < 1e-7 * g,
                f"gamma_+ off by {abs(sol.traces.gamma_plus - gp):.2e}")
        _expect(fails, abs(sol.traces.gamma_minus - gm) < 1e-9 * g,
                f"gamma_- off by {abs(sol.traces.gamma_minus - gm):.2e}")
        return fails

    return Task("bvp.robin_data_only", n, dict(nu=nu, a=a, beta=beta, g=g),
                lambda: solve.solve_1d(prob, n_nodes=n), check,
                raises=(SingularSystem, GATE_DEFECT))


def _decay(rng, n, lo, hi):
    nu, a, g = _u(rng, lo, hi), _u(rng, 0.5, 2.0), _u(rng, 0.5, 1.5)
    defect = GAMMA_PLUS_DEFECT if nu >= 0.9 else None
    op = solve.BesselOperator(core.Order(nu), a_coeff=a)
    prob = solve.BVProblem(op=op, bc0=symbols.BoundaryOperator.dirichlet(nu),
                           bc1=solve.CapCondition.DECAY, rhs=0.0,
                           boundary_data=g)

    def check(sol):
        gm, gp = oracles.decaying_traces(nu, a)
        gp = g * gp / gm
        x = sol.u.grid.nodes
        idx = _sample(x)
        exact = g * np.array(oracles.decaying_profile(nu, a, x[idx]))
        err = np.max(np.abs(sol.u.values[idx] - exact))
        fails = []
        _expect(fails, err < 1e-8 * g, f"values off by {err:.2e}", defect)
        _expect(fails, abs(sol.traces.gamma_plus - gp) < 1e-7 * g,
                f"gamma_+ off by {abs(sol.traces.gamma_plus - gp):.2e}", defect)
        _expect(fails, sol.truncation_estimate < 1e-4,
                f"truncation estimate {sol.truncation_estimate:.2e}")
        return fails

    return Task("bvp.decay", n, dict(nu=nu, a=a, g=g),
                lambda: solve.solve_1d(prob, n_nodes=n), check)


def _dirichlet_mfg(rng, n, lo, hi):
    nu, k, a = _u(rng, lo, hi), _u(rng, 2.0, 5.0), _u(rng, 0.5, 2.0)
    defect = GAMMA_PLUS_DEFECT if nu >= 0.6 else None
    ustar, f = _cos_mfg(nu, k, a)
    op = solve.BesselOperator(core.Order(nu), a_coeff=a)
    prob = solve.BVProblem(op=op, bc0=symbols.BoundaryOperator.dirichlet(nu),
                           bc1=solve.CapCondition.DIRICHLET, rhs=f,
                           boundary_data=0.0, rhs_singular_exponent=nu - 0.5)

    def check(sol):
        x = sol.u.grid.nodes
        err = np.max(np.abs(sol.u.values - ustar(x)))
        fails = []
        _expect(fails, err < 1e-8, f"values off by {err:.2e}")
        _expect(fails, abs(sol.traces.gamma_plus - 2 * nu) < 1e-8,
                f"gamma_+ off by {abs(sol.traces.gamma_plus - 2 * nu):.2e}",
                defect)
        return fails

    return Task("bvp.dirichlet_manufactured", n, dict(nu=nu, k=k, a=a),
                lambda: solve.solve_1d(prob, n_nodes=n), check)


def _supercritical(rng, n):
    nu, a = _u(rng, 1.2, 2.5), _u(rng, 0.5, 2.0)
    c = rng.uniform(-1.0, 1.0, 2)
    poly = Polynomial([1.0, -1.0]) ** 2 * Polynomial([1.0, c[0], c[1]])
    ustar, f = _mfg_rhs(nu, poly, a)
    op = solve.BesselOperator(core.Order(nu), a_coeff=a)
    prob = solve.BVProblem(op=op, bc1=solve.CapCondition.DIRICHLET, rhs=f,
                           rhs_singular_exponent=nu - 0.5)

    def check(sol):
        err = np.max(np.abs(sol.u.values - ustar(sol.u.grid.nodes)))
        fails = []
        _expect(fails, err < 1e-9, f"values off by {err:.2e}")
        return fails

    return Task("bvp.supercritical_manufactured", n,
                dict(nu=nu, a=a, c=c.tolist()),
                lambda: solve.solve_1d(prob, n_nodes=n), check)


def _cli_solve(rng, workdir, seed):
    nu, a = _u(rng, 0.3, 0.5), _u(rng, 0.5, 1.5)
    cfg = fixture_variant("manufactured.cfg", workdir,
                          {("operator", "nu"): repr(nu),
                           ("operator", "a_re"): repr(a)})

    def check(body):
        fails = []
        tr = body["traces"]
        gp = complex(tr["gamma_plus"]["re"], tr["gamma_plus"]["im"])
        gm = complex(tr["gamma_minus"]["re"], tr["gamma_minus"]["im"])
        _expect(fails, abs(gp - 2 * nu) < 1e-8, f"gamma_+ off by {abs(gp - 2 * nu):.2e}")
        _expect(fails, abs(gm) < 1e-10, f"gamma_- = {abs(gm):.2e}")
        _expect(fails, body["oracle_max_error"] < 1e-10,
                f"oracle error {body['oracle_max_error']:.2e}")
        _expect(fails, body["residual"] < 1e-7, f"residual {body['residual']:.2e}")
        return fails

    return cli_task("bvp.cli_solve", "solve", cfg, workdir, seed,
                    dict(nu=nu, a=a), check, size=256)


def bvp(rng, workdir):
    tasks = [_robin(rng, n, 0.05, 0.15) for n in (256, 512, 1024, 2048)]
    tasks += [_robin(rng, 512, 0.8, 0.9, GAMMA_PLUS_DEFECT),
              _robin_data_only(rng, 256),
              _dirichlet_mfg(rng, 512, 0.2, 0.5),
              _dirichlet_mfg(rng, 512, 0.7, 0.9), _supercritical(rng, 512),
              _decay(rng, 256, 0.2, 0.4), _decay(rng, 256, 0.9, 0.99),
              _cli_solve(rng, workdir, int(rng.integers(1 << 30)))]
    return tasks


# -- sweeps -------------------------------------------------------------------

def _resolvent(rng, n):
    nu, r0 = _u(rng, 0.2, 0.45), _u(rng, 3.0, 5.0)
    radii = [r0 * 1.5 ** k for k in range(8)]
    op = laplace_pencil(nu)
    bc = symbols.BoundaryOperator.dirichlet(nu)
    seed = int(rng.integers(1 << 30))

    def call():
        return solve.resolvent_sweep(op, bc, symbols.Sector.elliptic_cone(),
                                     radii, n_nodes=n, seed=seed)

    def check(rep):
        # the uniform bound of acceptance criterion 8; its monotonicity clause
        # is not checked: at nu ~ 0.2 the ratio rises towards its limit
        ratios = rep.ratios()
        fails = []
        _expect(fails, len(ratios) == len(radii), "singular rows")
        _expect(fails, all(r < 10.0 for r in ratios), f"ratios {ratios}")
        return fails

    return Task("sweeps.resolvent", n, dict(nu=nu, r0=r0, seed=seed), call,
                check)


def _eigen_rhs(rng, nu, qs):
    """{q: amp sqrt(x) J_nu(j_m x)} with oracle zeros j_m from mpmath."""
    rhs, want = {}, {}
    for q in qs:
        m = int(rng.integers(1, 4))
        amp = _u(rng, 0.5, 1.5)
        j = oracles.jzeros(nu, m)[-1]
        rhs[q] = (lambda amp, j: lambda x: amp * np.sqrt(x) * ss.jv(nu, j * x))(amp, j)
        want[q] = (amp, j)
    return rhs, want


def _separable(rng, n, modes_count, lo, hi):
    nu = _u(rng, lo, hi)
    defect = GAMMA_PLUS_DEFECT if nu >= 0.6 else None
    qs = list(range(modes_count))
    rhs, want = _eigen_rhs(rng, nu, qs)
    op = solve.BesselOperator(core.Order(nu), a_coeff=1.0)
    bc = symbols.BoundaryOperator.dirichlet(nu)

    def check(sep):
        fails = []
        for q, (amp, j) in want.items():
            sol = sep.modes[q]
            x = sol.u.grid.nodes
            lam = 1.0 + q * q + j * j
            exact = amp * np.sqrt(x) * ss.jv(nu, j * x) / lam
            err = np.max(np.abs(sol.u.values - exact))
            _expect(fails, err < 1e-9 * amp, f"mode {q} off by {err:.2e}",
                    defect)
            # sqrt(x) J_nu(j x) = (j/2)^nu / Gamma(1+nu) x^{1/2+nu} + ...
            gp = 2 * nu * amp * (j / 2) ** nu / math.gamma(1 + nu) / lam
            gerr = abs(sol.traces.gamma_plus - gp)
            _expect(fails, gerr < 1e-8 * amp,
                    f"mode {q} gamma_+ off by {gerr:.2e}", defect)
        return fails

    return Task("sweeps.separable", n, dict(nu=nu, modes=modes_count),
                lambda: solve.solve_separable(nu, op, bc, rhs, n_nodes=n),
                check)


def _dirichlet_laplacian(rng, n, modes_count):
    nu, a = _u(rng, 0.2, 0.8), _u(rng, 0.5, 2.0)
    qs = list(range(modes_count))
    rhs, want = _eigen_rhs(rng, nu, qs)

    def check(sols):
        fails = []
        for q, (amp, j) in want.items():
            sol = sols[q]
            x = sol.u.grid.nodes
            exact = amp * np.sqrt(x) * ss.jv(nu, j * x) / (a + q * q + j * j)
            err = np.max(np.abs(sol.u.values - exact))
            _expect(fails, err < 1e-10 * amp, f"mode {q} off by {err:.2e}")
        return fails

    return Task("sweeps.dirichlet_laplacian", n,
                dict(nu=nu, a=a, modes=modes_count),
                lambda: solve.solve_dirichlet_laplacian(nu, a, rhs, n_nodes=n),
                check)


def _cli_sweep(rng, workdir, seed):
    nu = _u(rng, 0.25, 0.35)
    cfg = fixture_variant("resolvent.cfg", workdir,
                          {("operator", "nu"): repr(nu)})

    def check(body):
        rows = body["rows"]
        ratios = [r["ratio"] for r in rows]
        fails = []
        _expect(fails, body["bounded"] is True, "not bounded")
        _expect(fails, len(rows) == 4 and not any(r["singular"] for r in rows),
                "singular rows")
        _expect(fails, all(r < 10.0 for r in ratios), f"ratios {ratios}")
        return fails

    return cli_task("sweeps.cli_sweep", "sweep", cfg, workdir, seed,
                    dict(nu=nu, seed=seed), check, size=128)


def sweeps(rng, workdir):
    return [_resolvent(rng, 256), _separable(rng, 128, 9, 0.25, 0.45),
            _separable(rng, 128, 4, 0.75, 0.9),
            _dirichlet_laplacian(rng, 256, 9),
            _cli_sweep(rng, workdir, int(rng.integers(1 << 30)))]


# -- spectra ------------------------------------------------------------------

def _pencil_check(ms, nu, count, robin, defect):
    lam = ms.eigenvalues[:count]
    fails = []
    _expect(fails, lam.size == count, f"{lam.size} of {count} modes")
    for value in lam:
        step = oracles.pencil_newton_step(nu, value, 0.0, 0.0, 1.0,
                                          robin=robin)
        _expect(fails, step <= 1e-6 * abs(value),
                f"eigenvalue {value:.6g} off by ~{step:.2e}", defect)
    return fails


def _pencil(rng, kind, n, lo, hi, count, robin=False, defect=None):
    nu = _u(rng, lo, hi)
    coeff = _u(rng, 0.5, 1.5) if robin else None
    bc = symbols.BoundaryOperator.lambda_robin(nu, coeff) if robin else None
    op = laplace_pencil(nu)
    return Task(kind, n, dict(nu=nu, coeff=coeff),
                lambda: modes.pencil_modes(nu, op, bc, q=0, n_nodes=n),
                lambda ms: _pencil_check(ms, nu, count, coeff, defect),
                reads=count)


def _spectrum(rng, n, lo, hi, q_max, n_max):
    nu = _u(rng, lo, hi)
    defect = ZEROS_DEFECT if nu > 5 else None

    def check(ms):
        j = oracles.jzeros(nu, n_max)
        want = np.sort([1.0 + q * q + jj * jj for q in range(-q_max, q_max + 1)
                        for jj in j])
        got = np.sort(np.real(ms.eigenvalues))
        closed = np.sort(np.asarray(ms.closed_form, dtype=float))
        fails = []
        err = np.max(np.abs(got - want) / want)
        _expect(fails, err < 1e-6, f"eigenvalues off by {err:.2e}")
        cerr = np.max(np.abs(closed - want) / want)
        _expect(fails, cerr < 1e-10, f"closed_form off by {cerr:.2e}",
                defect)
        return fails

    return Task("spectra.dirichlet_spectrum", n,
                dict(nu=nu, q_max=q_max, n_max=n_max),
                lambda: modes.dirichlet_spectrum(nu, q_max=q_max, n_max=n_max,
                                                 n_nodes=n),
                check)


def _completeness(rng, dof):
    nu = _u(rng, 0.25, 0.75)
    op = laplace_pencil(nu)
    settings = DEFAULTS.with_overrides(fem_degree=4)

    def call():
        ms = modes.pencil_modes(nu, op, None, q=0, n_nodes=dof,
                                residual_cap=None, settings=settings)
        return ms, modes.completeness_check(ms)

    def check(out):
        ms, rep = out
        fails = []
        _expect(fails, ms.dof == dof, f"dof {ms.dof}")
        _expect(fails, rep.verdict and rep.numerical_rank == rep.ambient_dim
                == 2 * dof, f"rank {rep.numerical_rank}/{rep.ambient_dim}")
        return fails

    return Task("spectra.completeness", dof, dict(nu=nu), call, check,
                reads=2 * dof)


def _embedding(rng, dof):
    nu = _u(rng, 0.2, 0.8)

    def check(rep):
        j = np.array(oracles.jzeros(nu, 8))
        want = 1.0 / np.sqrt(1.0 + j * j)
        err = np.max(np.abs(rep.s[:8] - want) / want)
        fails = []
        _expect(fails, err < 1e-7, f"leading singular values off by {err:.2e}")
        _expect(fails, -1.1 <= rep.fitted_exponent <= -0.9,
                f"fitted exponent {rep.fitted_exponent:.4f}")
        return fails

    return Task("spectra.embedding", dof, dict(nu=nu),
                lambda: modes.embedding_singular_values(nu, dof=dof), check)


def _cli_kg(rng, workdir, seed):
    mass = _u(rng, -2.1, -1.9)
    nu = math.sqrt(mass + 9.0 / 4.0)
    count = 4
    cfg = fixture_variant("ads_static.cfg", workdir,
                          {("metric", "mass"): repr(mass)})

    def check(body):
        fails = []
        _expect(fails, abs(body["nu"] - nu) < 1e-14, f"nu {body['nu']}")
        _expect(fails, body["elliptic"] and body["parameter_elliptic"],
                "verdicts")
        lam = sorted(abs(complex(m["re"], m["im"])) for m in body["normal_modes"])
        j = oracles.jzeros(nu, count)
        want = sorted(j + j)
        _expect(fails, len(lam) == 2 * count, f"{len(lam)} modes")
        err = max(abs(a - b) / b for a, b in zip(lam, want))
        _expect(fails, err < 1e-6, f"normal modes off by {err:.2e}")
        return fails

    return cli_task("spectra.cli_kg", "kg", cfg, workdir, seed,
                    dict(mass=mass), check, size=160, reads=2 * count)


def _cli_modes(rng, workdir, seed):
    nu = _u(rng, 0.4, 0.6)
    cfg = fixture_variant("dirichlet_nu05.cfg", workdir,
                          {("operator", "nu"): repr(nu)})

    def check(body):
        j = np.array(oracles.jzeros(nu, 6))
        want = 1.0 + j * j
        got = np.array([e["re"] for e in body["eigenvalues"]])
        closed = np.array(body["closed_form"])
        fails = []
        err = np.max(np.abs(got - want) / want)
        _expect(fails, err < 1e-8, f"eigenvalues off by {err:.2e}")
        cerr = np.max(np.abs(closed - want) / want)
        _expect(fails, cerr < 1e-10, f"closed_form off by {cerr:.2e}")
        return fails

    return cli_task("spectra.cli_modes", "modes", cfg, workdir, seed,
                    dict(nu=nu), check, size=256)


def spectra(rng, workdir):
    return [
        _pencil(rng, "spectra.pencil_laplace", 128, 0.25, 0.55, 16),
        _pencil(rng, "spectra.pencil_laplace", 128, 0.7, 0.8, 16,
                defect=PENCIL_DEFECT),
        _pencil(rng, "spectra.pencil_lambda_robin", 128, 0.5, 0.6, 4,
                robin=True),
        _pencil(rng, "spectra.pencil_high_order", 112, 5.0, 6.0, 8),
        _cli_kg(rng, workdir, int(rng.integers(1 << 30))),
        _cli_modes(rng, workdir, int(rng.integers(1 << 30))),
        _spectrum(rng, 160, 0.2, 0.8, 2, 4),
        _spectrum(rng, 192, 1.2, 2.5, 0, 10),
        _spectrum(rng, 192, 8.0, 12.0, 0, 6),
        _completeness(rng, 32),
        _embedding(rng, 64),
    ]


# -- calculus -----------------------------------------------------------------

def _poisson(rng, n, q_top):
    nu = _u(rng, 0.2, 0.45)
    phis = {q: _u(rng, 0.5, 1.5) for q in range(q_top + 1)}

    def call():
        grid = core.RadialGrid.uniform(1.0, n)
        lifts = solve.poisson_lift(nu, "at_zero", phis, grid=grid)
        return {q: (gf, solve.operator_residual(gf, nu, 1.0 + q * q),
                    core.traces(gf, nu)) for q, gf in lifts.items()}

    def check(out):
        fails = []
        for q, (gf, res, tr) in out.items():
            phi = phis[q]
            _expect(fails, res < 1e-8, f"q={q} residual {res:.2e}")
            _expect(fails, abs(tr.gamma_minus - phi) < 1e-9 * phi,
                    f"q={q} gamma_- off by {abs(tr.gamma_minus - phi):.2e}")
            x = gf.grid.nodes
            idx = _sample(x, 4)
            want = phi * np.array(oracles.lift_profile(nu, q, x[idx]))
            err = np.max(np.abs(gf.values[idx] - want) / np.abs(want))
            _expect(fails, err < 1e-9, f"q={q} profile off by {err:.2e}")
        return fails

    return Task("calculus.poisson_lift", n, dict(nu=nu, q_top=q_top), call,
                check)


def _mode_traces(rng, count, lo, hi, defect=None):
    draws = [(_u(rng, lo, hi), complex(_u(rng, -2.0, 2.0), -_u(rng, 0.3, 2.5)))
             for _ in range(count)]

    def call():
        out = []
        for nu, xi in draws:
            ms = symbols.mode_solution(nu, xi)
            out.append(core.traces(ms.profile, nu))
        return out

    def check(out):
        fails = []
        for (nu, xi), tr in zip(draws, out):
            gm, gp = oracles.mode_traces(nu, xi)
            err = max(abs(tr.gamma_minus - gm), abs(tr.gamma_plus - gp))
            _expect(fails, err < 1e-8, f"nu={nu:.3f} traces off by {err:.2e}",
                    defect)
        return fails

    return Task("calculus.mode_traces", count,
                dict(draws=[(nu, [xi.real, xi.imag]) for nu, xi in draws]),
                call, check)


def _pair(rng, grid, nu, minus):
    m = (Polynomial(rng.standard_normal(2))
         * Polynomial([1.0, -1.0]) ** 2).coef if minus else []
    p = (Polynomial(rng.standard_normal(3))
         * Polynomial([1.0, 0.0, -1.0]) ** 2).coef
    return core.GridFunction.from_pair(grid, nu, m, p), m, p


def _green(rng, count):
    grid = core.RadialGrid.build(1.0, 128)
    cases = []
    for i in range(count):
        sub = i % 2 == 0
        nu = _u(rng, 0.2, 0.8) if sub else _u(rng, 1.1, 1.9)
        u, mu, pu = _pair(rng, grid, nu, sub)
        v, mv, pv = _pair(rng, grid, nu, sub)
        cases.append((nu, sub, u, v, mu, pu))

    def call():
        out = []
        for nu, sub, u, v, _, _ in cases:
            op = solve.BesselOperator(core.Order(nu), a_coeff=1.0)
            tr = core.traces(u, nu) if sub else None
            out.append((core.green_defect(op, u, v), tr))
        return out

    def check(out):
        fails = []
        for (nu, sub, _, _, mu, pu), (defect, tr) in zip(cases, out):
            _expect(fails, defect < 1e-7, f"Green defect {defect:.2e}")
            if sub:
                gm, gp = mu[0], 2 * nu * pu[0]
                err = max(abs(tr.gamma_minus - gm), abs(tr.gamma_plus - gp))
                _expect(fails, err < 1e-12 * max(1.0, abs(gm), abs(gp)),
                        f"pair traces off by {err:.2e}")
        return fails

    return Task("calculus.green", count, dict(nus=[c[0] for c in cases]),
                call, check)


def _hardy_sides(nu, p):
    """Exact ||u'||^2 and ||d_nu u||^2 for u = x^{1/2+nu} p on (0, 1).

    u' = x^{nu-1/2} ((1/2+nu) p + x p') and d_nu u = x^{nu-1/2} (2 nu p + x p'),
    so each norm is sum_k q_k / (2 nu + k) for the squared polynomial q.
    """
    xp1 = Polynomial([0.0, 1.0]) * p.deriv()

    def norm_sq(r):
        return sum(c / (2 * nu + k) for k, c in enumerate((r * r).coef))

    return norm_sq((0.5 + nu) * p + xp1), norm_sq(2 * nu * p + xp1)


def _hardy(rng, count):
    grid = core.RadialGrid.build(1.0, 128)
    cases = []
    for _ in range(count):
        nu = _u(rng, 0.2, 1.8)
        base = (Polynomial(rng.standard_normal(3)) * Polynomial([0.0, 0.0, 1.0])
                * Polynomial([1.0, -1.0]) ** 2)
        cases.append((nu, base, core.GridFunction.from_pair(grid, nu, [],
                                                            base.coef)))

    def call():
        return [core.hardy_check(u, nu) for nu, _, u in cases]

    def check(out):
        fails = []
        for (nu, base, _), (lhs, rhs, ok) in zip(cases, out):
            n_dx, n_dn = _hardy_sides(nu, base)
            want_l = 4 * nu * nu * n_dx if nu < 0.5 else n_dx
            err = max(_rel(lhs, want_l), _rel(rhs, n_dn))
            _expect(fails, err < 1e-8, f"Hardy sides off by {err:.2e}")
            _expect(fails, ok and want_l <= n_dn * (1 + 1e-12),
                    f"Hardy verdict {ok}")
        return fails

    return Task("calculus.hardy", count, dict(nus=[c[0] for c in cases]),
                call, check)


def _lopatinskii(rng):
    nu, beta = _u(rng, 0.2, 0.45), _u(rng, 0.5, 3.0)
    nu_w = _u(rng, 0.55, 0.85)
    sym = symbols.BoundarySymbol.laplace(2)
    B = symbols.BoundaryOperator
    passing = [B.dirichlet(nu), B.neumann(nu), B.robin(nu, beta)]

    def call():
        out = [symbols.lopatinskii_sweep(nu, sym, bc, sphere_samples=64)
               for bc in passing]
        out.append(symbols.lopatinskii_sweep(nu, sym, B.oblique(nu, (1j, -1j)),
                                             sphere_samples=64))
        out.append(symbols.lopatinskii_sweep(
            nu_w, symbols.BoundarySymbol.wave(2), B.lambda_robin(nu_w),
            sphere_samples=64, sector=symbols.Sector.imaginary_axis()))
        return out

    def check(out):
        fails = []
        for rep, name in zip(out, ("dirichlet", "neumann", "robin")):
            _expect(fails, rep.all_pass, f"{name} fails")
        fails_obl = [s for s in out[3].samples if not s["pass"]]
        _expect(fails, fails_obl and all(abs(s["eta"][0] - s["eta"][1]) < 1e-9
                                         for s in fails_obl),
                "oblique does not fail exactly on the diagonal")
        _expect(fails, out[4].all_pass, "lambda-robin fails")
        return fails

    return Task("calculus.lopatinskii", 64, dict(nu=nu, beta=beta, nu_w=nu_w),
                call, check)


def _cli_lopatinskii(rng, workdir, seed, name):
    nu = _u(rng, 0.2, 0.4) if name == "oblique_fail.cfg" else _u(rng, 0.55, 0.85)
    cfg = fixture_variant(name, workdir, {("operator", "nu"): repr(nu)})

    def check(body):
        fails_at = [s for s in body["samples"] if not s["pass"]]
        if name == "oblique_fail.cfg":
            ok = (body["summary"]["all_pass"] is False and len(fails_at) == 2
                  and all(abs(s["eta"][0] - s["eta"][1]) < 1e-9
                          for s in fails_at))
        else:
            ok = body["summary"]["all_pass"] is True
        fails = []
        _expect(fails, ok, f"verdict {body['summary']}")
        return fails

    return cli_task(f"calculus.cli_{Path(name).stem}", "lopatinskii", cfg,
                    workdir, seed, dict(nu=nu), check, size=64)


def _exact_pairs(rng, count):
    g = core.RadialGrid.build(1.0, 256)
    draws = [(_u(rng, 0.2, 0.5), _u(rng, 1.0, 4.0), _u(rng, 1.0, 6.0))
             for _ in range(count)]
    fields = [core.GridFunction(g, core.GridFunction.from_pair(
        g, nu, [gm], [gp]).values) for nu, gm, gp in draws]

    def check(fits):
        fails = []
        for (nu, gm, gp), fit in zip(draws, fits):
            err = max(abs(fit.g_minus - gm), abs(fit.g_plus - gp))
            _expect(fails, err < 1e-10,
                    f"nu={nu:.3f} exact pair off by {err:.2e}", FIT_DEFECT)
        return fails

    return Task("calculus.fit_exact_pairs", count, dict(draws=draws),
                lambda: [expansion.fit_expansion(u, nu)
                         for u, (nu, _, _) in zip(fields, draws)],
                check)


def _fits(rng):
    g = core.RadialGrid.build(1.0, 256)
    nu2, xi2 = _u(rng, 0.2, 0.45), -1j * _u(rng, 0.8, 1.5)
    nures = 1.5 if rng.random() < 0.5 else 2.5
    c0, glog = _u(rng, 1.0, 3.0), _u(rng, 0.3, 1.0)
    x = g.nodes
    vals = (x ** (0.5 + nures) * (c0 + 0.3 * x ** 2)
            + glog * x ** (0.5 + nures) * np.log(x))
    resonant = core.GridFunction(g, vals)

    def call():
        msol = symbols.mode_solution(nu2, xi2)
        return (expansion.fit_expansion(msol.profile, nu2),
                expansion.fit_expansion(resonant, nures))

    def check(out):
        f2, f3 = out
        _, gp2 = oracles.mode_traces(nu2, xi2)
        fails = []
        _expect(fails, abs(f2.g_minus - 1.0) < 1e-7
                and abs(2 * nu2 * f2.g_plus - gp2) < 1e-7, "mode solution fit")
        _expect(fails, abs(f3.g_log - glog) < 1e-6,
                f"resonant log off by {abs(f3.g_log - glog):.2e}")
        return fails

    return Task("calculus.fit_expansion", 256, dict(nu2=nu2, nures=nures),
                call, check)


def write_expand_input(rng, workdir, lo, hi, relative=False):
    """A pair-represented field, nu drawn in [lo, hi], as CSV plus its expand
    config in ``workdir``; returns (config path, nu, g_minus, g_plus).  With
    ``relative`` the config names the CSV relative to ``workdir``, which must
    then be the working directory of the run."""
    g = core.RadialGrid.build(1.0, 256)
    nu, gm, gp = _u(rng, lo, hi), _u(rng, 1.0, 4.0), _u(rng, 1.0, 6.0)
    u = core.GridFunction.from_pair(g, nu, [gm], [gp])
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    core.gridfunction_to_csv(core.GridFunction(g, u.values),
                             str(workdir / "expand_input.csv"))
    csv = "expand_input.csv" if relative else workdir / "expand_input.csv"
    cfg = workdir / "expand_input.cfg"
    cfg.write_text(f"[input]\ncsv = {csv}\nnu = {nu!r}\n")
    return cfg, nu, gm, gp


def _cli_expand(rng, workdir, seed, kind, lo, hi, count, defect=None):
    """``count`` runs of the expand command, each on its own field; every
    fit must return the pair to the 1e-8 of the expand round-trip test."""
    calls, draws = [], []
    for i in range(count):
        sub = Path(workdir) / kind / str(i)
        cfg, nu, gm, gp = write_expand_input(rng, sub, lo, hi)
        calls.append(cli_call("expand", cfg, sub, seed))
        draws.append((nu, gm, gp))

    def check(texts):
        fails = []
        for (nu, gm, gp), text in zip(draws, texts):
            body = json.loads(text)
            em = abs(complex(body["g_minus"]["re"], body["g_minus"]["im"]) - gm)
            ep = abs(complex(body["g_plus"]["re"], body["g_plus"]["im"]) - gp)
            _expect(fails, em < 1e-8 and ep < 1e-8,
                    f"nu={nu:.3f} fit off by {em:.2e}, {ep:.2e}", defect)
        return fails

    return Task(kind, 256, dict(draws=draws),
                lambda: [call() for call in calls], check)


def _zeros(rng, lo, hi, count):
    nu = _u(rng, lo, hi)

    def check(table):
        want = np.array(oracles.jzeros(nu, count))
        err = np.max(np.abs(table.zeros - want))
        fails = []
        _expect(fails, err < 1e-10, f"zeros off by {err:.2e}",
                ZEROS_DEFECT if nu > 5 else None)
        return fails

    return Task("calculus.bessel_zeros", count, dict(nu=nu),
                lambda: special.bessel_zeros(nu, count), check)


def _kg(rng):
    t, s1, s2 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    mass = _u(rng, -2.2, 0.0)
    boost = _u(rng, 1.2, 2.0)
    g_static = np.diag([t, -s1, -s2])
    # dt spacelike but still Lorentzian: the elliptic verdict must fail
    g_boost = np.array([[-1.0, boost, 0.0], [boost, -1.0, 0.0],
                        [0.0, 0.0, -1.0]])

    def call():
        out = []
        for g0 in (g_static, g_boost):
            metric = kg.ModelMetric(3, g0)
            red = kg.reduce(metric, mass)
            out.append((red, kg.ellipticity_verdicts(red, metric)))
        return out

    def check(out):
        fails = []
        nu = math.sqrt(mass + 9.0 / 4.0)
        for (red, rep), g0 in zip(out, (g_static, g_boost)):
            _expect(fails, abs(red.nu.nu - nu) < 1e-14, f"nu {red.nu.nu}")
            want = (g0[0, 0] > 0, np.linalg.inv(g0)[0, 0] > 0)
            _expect(fails, (rep.elliptic, rep.parameter_elliptic) == want,
                    f"verdicts {rep.elliptic, rep.parameter_elliptic} != {want}")
        return fails

    return Task("calculus.kg", 3, dict(mass=mass, boost=boost), call, check)


def calculus(rng, workdir):
    tasks = [_poisson(rng, 1024, 16), _mode_traces(rng, 8, 0.02, 0.6),
             _mode_traces(rng, 20, 0.8, 0.99, TRACES_DEFECT), _green(rng, 10),
             _hardy(rng, 10), _lopatinskii(rng),
             _cli_lopatinskii(rng, workdir, int(rng.integers(1 << 30)),
                              "oblique_fail.cfg"),
             _cli_lopatinskii(rng, workdir, int(rng.integers(1 << 30)),
                              "lambda_robin.cfg"),
             _exact_pairs(rng, 12), _fits(rng),
             _cli_expand(rng, workdir, int(rng.integers(1 << 30)),
                         "calculus.cli_expand", 0.2, 0.3, 1),
             _cli_expand(rng, workdir, int(rng.integers(1 << 30)),
                         "calculus.cli_expand_near_half", 0.45, 0.5, 8,
                         FIT_DEFECT)]
    tasks += [_zeros(rng, lo, hi, 10)
              for lo, hi in ((0.05, 1.0), (1.0, 5.0), (6.0, 30.0))]
    tasks.append(_kg(rng))
    return tasks


WORKLOADS = {"bvp": bvp, "sweeps": sweeps, "spectra": spectra,
             "calculus": calculus}
