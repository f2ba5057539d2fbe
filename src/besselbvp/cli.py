"""Command-line front end: solve, modes, lopatinskii, expand, sweep, kg.

Workflows are driven by INI-style config files with typed keys; unknown
sections or keys are a hard error.  Every run writes
``<command>_<configstem>.<ext>`` plus a ``.meta.json`` sidecar carrying the
fully resolved configuration, so artifacts are reproducible; numbers are
printed at 17 significant digits and outputs are byte-stable for a fixed
config and seed.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (the
module error is surfaced verbatim).

Config schema (sections and keys per command):

  solve:       [operator] nu, a_re, a_im?, b1_im?   (b(x) = i b1_im x)
               [boundary] type = dirichlet|neumann|robin, beta_re?, beta_im?,
                          data_re, data_im?
               [grid]     nodes?, cap = dirichlet|decay
               [rhs]      kind = zero|manufactured
  modes:       [operator] nu
               [modes]    q?, count?, pencil = none|laplace_pencil,
                          boundary = dirichlet|lambda_robin,
                          completeness?, completeness_dof?
               [grid]     nodes?
  lopatinskii: [symbol]   kind = laplace|wave|laplace_pencil, dim_eta
               [operator] nu
               [boundary] type = dirichlet|neumann|robin|oblique|lambda_robin,
                          beta_re?, beta_im?, eta_re?, eta_im?
               [sweep]    samples?, sector = none|imaginary_axis|elliptic_cone
  expand:      [input]    csv, nu
               [fit]      window_lo?, window_hi?, corrections?
  sweep:       [operator] nu
               [sweep]    radii, sector = elliptic_cone|imaginary_axis,
                          nodes?, boundary = none|dirichlet
  kg:          [metric]   n, mass, gamma0 (rows split by ';'), gamma1?, e0?
               [modes]    q?, count?   (optional normal-mode computation)

All commands accept a [tolerances] section whose keys override Settings
fields (e.g. solver_residual_tol = 1e-6).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULTS
from .core import Order, gridfunction_from_csv
from .errors import BesselBVPError, ConfigError, DomainError
from .expansion import fit_expansion
from .fem import MIN_CELLS
from .kg import ModelMetric, ellipticity_verdicts, reduce as kg_reduce
from .modes import completeness_check, dirichlet_spectrum, pencil_modes
from .solve import (
    BesselOperator,
    BVProblem,
    CapCondition,
    resolvent_sweep,
    solve_1d,
)
from .symbols import BoundaryOperator, BoundarySymbol, Sector, lopatinskii_sweep

__all__ = ["RunConfig", "run", "main"]


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def dumps(x):
    """``x`` as deterministic JSON: sorted keys, no whitespace, 17-digit
    floats, complex numbers as {"re", "im"} objects."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (float("inf"), float("-inf")):
            return '"Infinity"' if x > 0 else '"-Infinity"'
        return f"{x:.17g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, complex):
        return dumps({"re": float(x.real), "im": float(x.imag)})
    if isinstance(x, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}"
                         for k, v in sorted(x.items()))
        return "{" + inner + "}"
    if isinstance(x, np.ndarray):
        return dumps(x.tolist())
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in x) + "]"
    if isinstance(x, np.floating):
        return dumps(float(x))
    if isinstance(x, np.complexfloating):
        return dumps(complex(x))
    raise TypeError(f"cannot serialise {type(x)}")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "solve": {
        "operator": {"nu", "a_re", "a_im", "b1_im"},
        "boundary": {"type", "beta_re", "beta_im", "data_re", "data_im"},
        "grid": {"nodes", "cap"},
        "rhs": {"kind"},
    },
    "modes": {
        "operator": {"nu"},
        "modes": {"q", "count", "pencil", "boundary", "completeness",
                  "completeness_dof"},
        "grid": {"nodes"},
    },
    "lopatinskii": {
        "symbol": {"kind", "dim_eta"},
        "operator": {"nu"},
        "boundary": {"type", "beta_re", "beta_im", "eta_re", "eta_im"},
        "sweep": {"samples", "sector"},
    },
    "expand": {
        "input": {"csv", "nu"},
        "fit": {"window_lo", "window_hi", "corrections"},
    },
    "sweep": {
        "operator": {"nu"},
        "sweep": {"radii", "sector", "nodes", "boundary"},
    },
    "kg": {
        "metric": {"n", "mass", "gamma0", "gamma1", "e0"},
        "modes": {"q", "count"},
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    config_path: Path
    output_dir: Path
    format: str = "json"
    seed: int = 0
    quiet: bool = False


def _load_config(cfg):
    parser = configparser.ConfigParser()
    read = parser.read(cfg.config_path)
    if not read:
        raise ConfigError(f"cannot read config file {cfg.config_path}")
    schema = _SCHEMAS.get(cfg.command)
    if schema is None:
        raise ConfigError(f"unknown command {cfg.command!r}")
    resolved = {}
    for section in parser.sections():
        if section == "tolerances":
            resolved[section] = dict(parser.items(section))
            continue
        if section not in schema:
            raise ConfigError(
                f"unknown section [{section}] for command {cfg.command}")
        for key, value in parser.items(section):
            if key not in schema[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]")
            resolved.setdefault(section, {})[key] = value
    return resolved


def _get(conf, section, key, default=None, typ=str):
    try:
        raw = conf[section][key]
    except KeyError:
        if default is None:
            raise ConfigError(f"missing required key [{section}] {key}") \
                from None
        raw = default
    try:
        if typ is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return typ(raw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _int(raw):
    """An integer written as any number, e.g. 1e3 (a ``typ`` for _get); a
    fractional part is refused, not truncated."""
    value = float(raw)
    if value != int(value):
        raise ValueError(f"{raw!r} is not an integer")
    return int(value)


def _floats(raw):
    """Whitespace-separated numbers (a ``typ`` for _get)."""
    return [float(v) for v in raw.split()]


def _matrix(raw):
    """Rows split by ';' of whitespace-separated numbers, None when blank
    (a ``typ`` for _get)."""
    rows = [_floats(r) for r in raw.split(";") if r.strip()]
    return np.array(rows) if rows else None


def _settings_from(conf):
    overrides = conf.get("tolerances", {})
    if not overrides:
        return DEFAULTS
    kw = {}
    for key in overrides:
        if not hasattr(DEFAULTS, key):
            raise ConfigError(f"unknown tolerance override {key!r}")
        typ = _int if isinstance(getattr(DEFAULTS, key), int) else float
        kw[key] = _get(conf, "tolerances", key, typ=typ)
    try:
        return DEFAULTS.with_overrides(**kw)
    except DomainError as exc:
        raise ConfigError(f"bad [tolerances]: {exc}") from exc


def _boundary_from(conf, nu, dim_eta=1):
    btype = _get(conf, "boundary", "type", "dirichlet")
    beta = complex(_get(conf, "boundary", "beta_re", "0", float),
                   _get(conf, "boundary", "beta_im", "0", float))
    if btype == "dirichlet":
        return BoundaryOperator.dirichlet(nu)
    if btype == "neumann":
        return BoundaryOperator.neumann(nu)
    if btype == "robin":
        return BoundaryOperator.robin(nu, beta)
    if btype == "oblique":
        re = _get(conf, "boundary", "eta_re", "1", _floats)
        im = _get(conf, "boundary", "eta_im", " ".join(["0"] * len(re)),
                  _floats)
        if len(im) != len(re):
            raise ConfigError("oblique eta_im must have as many entries as "
                              "eta_re")
        coeffs = [complex(a, b) for a, b in zip(re, im)]
        if len(coeffs) != dim_eta:
            raise ConfigError("oblique eta coefficients must match dim_eta")
        return BoundaryOperator.oblique(nu, coeffs)
    if btype == "lambda_robin":
        return BoundaryOperator.lambda_robin(nu, beta if beta != 0 else 1.0)
    raise ConfigError(f"unknown boundary type {btype!r}")


# ---------------------------------------------------------------------------
# command bodies: each returns (payload dict, optional csv rows)
# ---------------------------------------------------------------------------

def _cmd_solve(conf, cfg, settings):
    nu = _get(conf, "operator", "nu", typ=float)
    a = complex(_get(conf, "operator", "a_re", typ=float),
                _get(conf, "operator", "a_im", "0", float))
    b1 = _get(conf, "operator", "b1_im", "0", float)
    from numpy.polynomial import Polynomial
    b = Polynomial([0.0, 1j * b1]) if b1 else None
    order = Order(nu)
    op = BesselOperator(order, a_coeff=a, b_coeff=b)
    nodes = _get(conf, "grid", "nodes", "256", _int)
    cap = _get(conf, "grid", "cap", "dirichlet")
    bc = _boundary_from(conf, nu) if order.needs_boundary_conditions else None
    g = complex(_get(conf, "boundary", "data_re", "0", float),
                _get(conf, "boundary", "data_im", "0", float)) \
        if bc is not None else 0.0

    kind = _get(conf, "rhs", "kind", "zero")
    oracle = None
    sing = 0.0
    if kind == "manufactured":
        # u* = x^{1/2+nu} (1-x)^2 with P = |D_nu|^2 + a
        def ustar(x):
            return x ** (0.5 + nu) * (1 - x) ** 2

        def f(x):
            F = (1 - x) ** 2
            F1 = -2 * (1 - x)
            F2 = 2.0 * np.ones_like(x)
            return (-x ** (0.5 + nu) * F2
                    - (1 + 2 * nu) * x ** (nu - 0.5) * F1
                    + a * x ** (0.5 + nu) * F)

        rhs, oracle, sing = f, ustar, nu - 0.5
    elif kind == "zero":
        rhs = 0.0
    else:
        raise ConfigError(f"unknown rhs kind {kind!r}")

    prob = BVProblem(op=op, bc0=bc,
                     bc1=(CapCondition.DECAY if cap == "decay"
                          else CapCondition.DIRICHLET),
                     rhs=rhs, boundary_data=g, rhs_singular_exponent=sing)
    sol = solve_1d(prob, n_nodes=nodes, settings=settings)
    payload = {
        "residual": sol.residual_norm,
        "condition": sol.condition_estimate,
        "traces": None if sol.traces is None else {
            "gamma_minus": complex(sol.traces.gamma_minus),
            "gamma_plus": complex(sol.traces.gamma_plus),
        },
    }
    if sol.truncation_estimate is not None:
        payload["truncation_estimate"] = sol.truncation_estimate
    if oracle is not None:
        xs = sol.u.grid.nodes
        payload["oracle_max_error"] = float(
            np.max(np.abs(sol.u.values - oracle(xs))))
    rows = [("x", "value_re", "value_im")]
    rows += [(repr(float(x)), repr(float(v.real)), repr(float(v.imag)))
             for x, v in zip(sol.u.grid.nodes, sol.u.values)]
    return payload, rows


def _eigen_rows(lams, residuals):
    return [{"re": float(l.real), "im": float(l.imag), "residual": float(r)}
            for l, r in zip(lams, residuals)]


def _mode_count(conf, default):
    count = _get(conf, "modes", "count", default, _int)
    if count < 1:
        raise ConfigError(f"[modes] count must be at least 1, got {count}")
    return count


def _cmd_modes(conf, cfg, settings):
    nu = _get(conf, "operator", "nu", typ=float)
    q = _get(conf, "modes", "q", "0", _int)
    count = _mode_count(conf, "10")
    nodes = _get(conf, "grid", "nodes", "256", _int)
    pencil = _get(conf, "modes", "pencil", "none")
    payload = {"nu": nu, "q": q}
    if pencil == "none":
        ms = dirichlet_spectrum(nu, q_max=abs(q), n_max=count, n_nodes=nodes,
                                settings=settings)
        payload["eigenvalues"] = _eigen_rows(ms.eigenvalues[:count],
                                             ms.residuals[:count])
        payload["closed_form"] = [float(v) for v in ms.closed_form[:count]]
        payload["discrepancy"] = [float(v) for v in ms.discrepancy[:count]]
    elif pencil == "laplace_pencil":
        op = BesselOperator(Order(nu))
        btype = _get(conf, "modes", "boundary", "dirichlet")
        bc = None if btype == "dirichlet" else \
            BoundaryOperator.lambda_robin(nu)
        ms = pencil_modes(nu, op, bc, q=q, n_nodes=nodes,
                          max_modes=2 * count, settings=settings)
        payload["eigenvalues"] = _eigen_rows(ms.eigenvalues, ms.residuals)
        if _get(conf, "modes", "completeness", "false", bool):
            dof = _get(conf, "modes", "completeness_dof", "32", _int)
            if dof < MIN_CELLS:     # dof * degree nodes make dof cells
                raise ConfigError(f"[modes] completeness_dof must be at "
                                  f"least {MIN_CELLS}, got {dof}")
            all_ms = pencil_modes(nu, op, bc, q=q,
                                  n_nodes=dof * settings.fem_degree,
                                  residual_cap=None, settings=settings)
            payload["completeness"] = asdict(
                completeness_check(all_ms, settings=settings))
    else:
        raise ConfigError(f"unknown pencil {pencil!r}")
    return payload, None


def _cmd_lopatinskii(conf, cfg, settings):
    nu = _get(conf, "operator", "nu", typ=float)
    kind = _get(conf, "symbol", "kind", "laplace")
    dim_eta = _get(conf, "symbol", "dim_eta", "2", _int)
    sym = {"laplace": BoundarySymbol.laplace,
           "wave": BoundarySymbol.wave,
           "laplace_pencil": BoundarySymbol.laplace_pencil}.get(kind)
    if sym is None:
        raise ConfigError(f"unknown symbol kind {kind!r}")
    sym = sym(dim_eta)
    bc = _boundary_from(conf, nu, dim_eta)
    samples = _get(conf, "sweep", "samples", "64", _int)
    sector_name = _get(conf, "sweep", "sector", "none")
    sector = {"none": None,
              "imaginary_axis": Sector.imaginary_axis(),
              "elliptic_cone": Sector.elliptic_cone()}.get(sector_name, "x")
    if sector == "x":
        raise ConfigError(f"unknown sector {sector_name!r}")
    report = lopatinskii_sweep(nu, sym, bc, sphere_samples=samples,
                               sector=sector, settings=settings)
    payload = {
        "samples": [
            {"eta": list(s["eta"]),
             "lambda": complex(s["lambda"]),
             "det_re": float(np.real(s["det"])),
             "det_im": float(np.imag(s["det"])),
             "pass": s["pass"]}
            for s in report.samples],
        "summary": {"min_abs_det": report.min_abs_det,
                    "all_pass": report.all_pass},
    }
    return payload, None


def _cmd_expand(conf, cfg, settings):
    path = Path(_get(conf, "input", "csv"))
    nu = _get(conf, "input", "nu", typ=float)
    u = gridfunction_from_csv(str(path))
    lo = _get(conf, "fit", "window_lo", "-1", float)
    hi = _get(conf, "fit", "window_hi", "-1", float)
    window = (lo, hi) if lo > 0 and hi > 0 else None
    # absent: None, so that [tolerances] tail_corrections sets the default
    corrections = _get(conf, "fit", "corrections", typ=_int) \
        if "corrections" in conf.get("fit", {}) else None
    if corrections is not None and corrections < 0:
        raise ConfigError(
            f"[fit] corrections must be at least 0, got {corrections}")
    fit = fit_expansion(u, nu, window=window, corrections=corrections,
                        settings=settings)
    return {
        "g_minus": complex(fit.g_minus),
        "g_plus": complex(fit.g_plus),
        "g_log": complex(fit.g_log),
        "residual": fit.fit_residual,
        "window": list(fit.window),
    }, None


def _cmd_sweep(conf, cfg, settings):
    nu = _get(conf, "operator", "nu", typ=float)
    radii = _get(conf, "sweep", "radii", "4 8 16 32", _floats)
    nodes = _get(conf, "sweep", "nodes", "128", _int)
    sector_name = _get(conf, "sweep", "sector", "elliptic_cone")
    sector = {"imaginary_axis": Sector.imaginary_axis(),
              "elliptic_cone": Sector.elliptic_cone()}.get(sector_name)
    if sector is None:
        raise ConfigError(f"unknown sector {sector_name!r}")
    order = Order(nu)
    op = BesselOperator(order)
    btype = _get(conf, "sweep", "boundary", "none")
    bc = _boundary_from(conf, nu) if btype != "none" \
        and order.needs_boundary_conditions else None
    rep = resolvent_sweep(op, bc, sector, radii, n_nodes=nodes, seed=cfg.seed,
                          settings=settings)
    return {
        "rows": [
            {"radius": r["radius"], "lambda": complex(r["lambda"]),
             "ratio": r["ratio"], "singular": r["singular"],
             "condition": r["condition"]}
            for r in rep.rows],
        "bounded": rep.bounded,
    }, None


def _cmd_kg(conf, cfg, settings):
    n = _get(conf, "metric", "n", typ=_int)
    mass = _get(conf, "metric", "mass", typ=float)
    gamma0 = _get(conf, "metric", "gamma0", typ=_matrix)
    gamma1 = _get(conf, "metric", "gamma1", "", _matrix)
    e0 = _get(conf, "metric", "e0", "0", float)
    metric = ModelMetric(n, gamma0, gamma1, e0)
    red = kg_reduce(metric, mass, settings=settings)
    verdicts = ellipticity_verdicts(red, metric, settings=settings)
    payload = {
        "nu": red.nu.nu,
        "regime": red.nu.regime.value,
        "bf_satisfied": red.bf_satisfied,
        "elliptic": verdicts.elliptic,
        "parameter_elliptic": verdicts.parameter_elliptic,
        "parameter_elliptic_sectors": red.parameter_elliptic_sectors,
    }
    if "modes" in conf and red.bessel_op is not None:
        q = _get(conf, "modes", "q", "0",
                 lambda raw: tuple(map(_int, raw.split())))
        if len(q) != n - 1:
            raise ConfigError(f"q must have {n - 1} components")
        count = _mode_count(conf, "6")
        ms = pencil_modes(red.nu, red.bessel_op, None, q=q, n_nodes=160,
                          max_modes=2 * count, settings=settings)
        payload["normal_modes"] = _eigen_rows(ms.eigenvalues, ms.residuals)
    return payload, None


_COMMANDS = {
    "solve": _cmd_solve,
    "modes": _cmd_modes,
    "lopatinskii": _cmd_lopatinskii,
    "expand": _cmd_expand,
    "sweep": _cmd_sweep,
    "kg": _cmd_kg,
}


def run(cfg):
    """Execute one command; writes artifacts, returns the exit status."""
    try:
        conf = _load_config(cfg)
        settings = _settings_from(conf)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        payload, rows = _COMMANDS[cfg.command](conf, cfg, settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BesselBVPError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.command}_{cfg.config_path.stem}"
    wrote = []
    if cfg.format == "csv" and rows is not None:
        out = cfg.output_dir / f"{stem}.csv"
        out.write_text("\n".join(",".join(r) for r in rows) + "\n")
        wrote.append(out)
    out = cfg.output_dir / f"{stem}.json"
    out.write_text(dumps(payload) + "\n")
    wrote.append(out)
    meta = {
        "command": cfg.command,
        "config": {s: dict(kv) for s, kv in conf.items()},
        "config_file": str(cfg.config_path),
        "format": cfg.format,
        "seed": cfg.seed,
        "version": __version__,
    }
    meta_path = cfg.output_dir / f"{stem}.meta.json"
    meta_path.write_text(dumps(meta) + "\n")
    wrote.append(meta_path)
    if not cfg.quiet:
        for p in wrote:
            print(p)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="besselbvp",
        description="Boundary value problems for singular Bessel operators")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    cfg = RunConfig(command=args.command, config_path=args.config,
                    output_dir=args.out, format=args.format, seed=args.seed,
                    quiet=args.quiet)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
