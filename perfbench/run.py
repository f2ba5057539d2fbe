"""Benchmark of besselbvp: one seeded workload per run, oracle-checked.

Run from the repository root:

    python3 perfbench/run.py --workload bvp --seed 1 --seconds 12 --trace 0

The library is imported from ./src.  One process runs one workload as a
closed loop with a single caller: each task starts when the previous one
returns.  A warm-up pass comes first; every pass draws its parameters from
its own seed, derived from --seed, so no pass repeats an earlier input.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb,
failed_frac); --trace 1 alternates untraced and traced passes and prints
the per-layer metrics of layers.PER_LAYER.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  failed_frac
counts every task that raised or missed an oracle tolerance; failed counts
only those with a miss or raise that no documented defect explains, and
correct is true when there are none.  A fuller report (environment,
samples, failing checks, spans) goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import besselbvp; "
                "print(time.perf_counter() - t)")
SETUP_SAMPLES = 5         # at least; one is taken before each timed pass

# CLI fixtures each workload runs, for the artifact digests
FIXTURE_RUNS = {
    "bvp": [("solve", "manufactured.cfg")],
    "sweeps": [("sweep", "resolvent.cfg")],
    "spectra": [("kg", "ads_static.cfg"), ("modes", "dirichlet_nu05.cfg")],
    "calculus": [("lopatinskii", "oblique_fail.cfg"),
                 ("lopatinskii", "lambda_robin.cfg"), ("expand", None)],
}
DIGESTS = HERE / "cli_digests.json"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(FIXTURE_RUNS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas():
    """Pin BLAS threads to the CPUs this process may use (before numpy)."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_seconds():
    """Seconds for a fresh interpreter to import besselbvp."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def environment(threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0))}


# -- passes -------------------------------------------------------------------

def run_pass(tasks, tracer=None):
    """Run every task in order; returns (seconds inside task calls, outcomes).

    Only the calls are timed; building inputs and checking outputs against
    the oracles happen outside the timed region.
    """
    results, wall = [], 0.0
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        start = time.perf_counter()
        try:
            out, err = task.call(), None
        except Exception as exc:            # a raised task is a failed task
            excused, label = task.raises or ((), None)
            out, err = None, (f"raised {type(exc).__name__}: {exc}",
                              label if isinstance(exc, excused) else None)
        wall += time.perf_counter() - start
        results.append((out, err))
    outcomes = []
    for task, (out, err) in zip(tasks, results):
        if err is None:
            try:
                fails = task.check(out)
            except Exception as exc:        # an oracle that breaks is reported
                fails = [(f"check raised {type(exc).__name__}: {exc}", None)]
        else:
            fails = [err]
        # expected: every failed check carries a documented defect's label
        outcomes.append({"kind": task.kind, "size": task.size,
                         "params": task.params, "fails": fails,
                         "raised": err is not None,
                         "expected": all(label for _, label in fails)})
    return wall, outcomes


def cache_counts():
    from besselbvp import quadrature
    infos = [quadrature._jacobi01.cache_info(), quadrature._legendre.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def artifact_digests(workload, workdir):
    """sha256 of the artifacts of the workload's unmodified CLI fixtures."""
    import numpy as np
    from besselbvp import cli
    import workloads

    outdir = Path(workdir) / "artifacts"
    for command, fixture in FIXTURE_RUNS[workload]:
        if fixture is None:
            # expand reads a CSV the benchmark writes; relative paths keep
            # the .meta.json sidecar independent of where the run happens
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                cfg, *_ = workloads.write_expand_input(
                    np.random.default_rng(0), workdir, 0.2, 0.3,
                    relative=True)
                code = cli.run(cli.RunConfig(command, Path(cfg.name),
                                             Path("artifacts"), quiet=True))
            finally:
                os.chdir(cwd)
        else:
            code = cli.run(cli.RunConfig(command, Path("fixtures") / fixture,
                                         outdir, quiet=True))
        if code != 0:
            raise RuntimeError(f"fixture {command} {fixture} exited {code}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def changed_artifacts(workload, workdir):
    seed = json.loads(DIGESTS.read_text())
    now = artifact_digests(workload, workdir)
    return sum(1 for name, digest in now.items() if seed.get(name) != digest)


# -- main ---------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "besselbvp" / "__init__.py").is_file():
        print(f"error: no besselbvp sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    threads = pin_blas()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import besselbvp
    if Path(besselbvp.__file__).resolve().parent != SRC / "besselbvp":
        print(f"error: imported besselbvp from {besselbvp.__file__}",
              file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracing import Tracer

    # setup_s: fresh-interpreter imports spread over the run (--trace 0
    # only); the import above has written the bytecode cache
    setup = [] if args.trace else [import_seconds()]

    build = workloads.WORKLOADS[args.workload]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(threads)}
    all_outcomes = []
    pass_no = 0

    def tasks_for_next_pass(workdir):
        nonlocal pass_no
        rng = np.random.default_rng([args.seed % (1 << 64), pass_no])
        pass_no += 1
        return build(rng, workdir)

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        _, outcomes = run_pass(tasks_for_next_pass(workdir))     # warm-up
        all_outcomes += outcomes
        untraced, traced, layer_rows, spans = [], [], [], []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            if not args.trace:
                setup.append(import_seconds())
            wall, outcomes = run_pass(tasks_for_next_pass(workdir))
            untraced.append(wall)
            all_outcomes += outcomes
            if not args.trace:
                continue
            tasks = tasks_for_next_pass(workdir)
            tracer = layers.watch(Tracer())
            before = cache_counts()
            with tracer:
                wall, outcomes = run_pass(tasks, tracer)
            after = cache_counts()
            traced.append(wall)
            all_outcomes += outcomes
            layer_rows.append((tracer, tasks, (after[0] - before[0],
                                               after[1] - before[1])))
        if args.trace:
            changed = changed_artifacts(args.workload, workdir)
        while len(setup) < SETUP_SAMPLES and not args.trace:
            setup.append(import_seconds())

    attempted = len(all_outcomes)
    missed = [o for o in all_outcomes if o["fails"]]
    raised = sum(1 for o in all_outcomes if o["raised"])
    unexpected = [o for o in missed if not o["expected"]]
    report.update(setup_samples=setup, wall_samples=untraced,
                  traced_samples=traced, attempted=attempted,
                  missed=len(missed), raised=raised, failing_checks=missed)

    if args.trace:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        rows = [layers.metrics(tr, tasks, delta, changed, overhead)
                for tr, tasks, delta in layer_rows]
        values = {name: statistics.median(r[name] for r in rows)
                  for name, _, _ in layers.PER_LAYER}
        metrics = {name: {"value": values[name], "unit": layers.UNITS[name]}
                   for name, _, _ in layers.PER_LAYER}
        spans = [dict(s._asdict()) for s in layer_rows[0][0].spans]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "failed_frac": {"value": len(missed) / attempted, "unit": "ratio"},
        }
    report["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(dict(report, spans=spans),
                                                indent=1, default=str))

    print(f"env {json.dumps(report['env'])}")
    print(f"passes: warm-up 1, untraced {len(untraced)}, traced {len(traced)}; "
          f"tasks attempted {attempted}, failed {len(missed)} (raised "
          f"{raised}), {len(unexpected)} outside documented defects")
    checks = {}
    for o in missed:
        for message, label in o["fails"]:
            key = (o["kind"], label or "UNEXPECTED")
            checks.setdefault(key, [0, message])[0] += 1
    for (kind, label), (count, message) in sorted(checks.items()):
        print(f"  failing check of {kind} x{count} [{label}]: {message}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
