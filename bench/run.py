"""Benchmark of the relaxcert pipelines: ``opf``, ``lrsdp`` and ``oracle``.

Usage, from the repository root:

    python3 bench/run.py --workload feeder-unbounded --seed 1 --seconds 24 --trace 0

The benchmark writes seeded case and instance files under
``bench/runs/<workload>/``, measures the import time of ``relaxcert.cli`` in
fresh interpreters, then runs whole passes over the workload's instances
through ``relaxcert.cli.main`` and ``relaxcert.certify`` until the next pass
would overrun ``--seconds``.  One process runs the passes one instance after
another (a closed loop with one client) with one BLAS thread.  Every output
is judged by ``check.py``, which does not use the package.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
The traced run also writes its spans to ``bench/runs/<workload>/spans.json``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, in this process and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CASES = os.path.join(ROOT, "cases")

TOL = 1e-8                   # the CLI's default membership tolerance
SETUP_PROBES = 3             # fresh interpreters timed per run for setup_s
BOXED_SAMPLES = 40           # sampled relaxed points per boxed feeder
TWO_BUS_RESOLUTION = 0.0057  # about 0.25M grid points per two-bus scan
SLICE_RESOLUTION = 0.04      # 61^3 grid points on the PSD slice
MULTISTART_STARTS = 20


@dataclass
class Op:
    """One call into the program and the judge of its result.

    ``judge`` returns ``(failed, problems)``: a failed operation did not do
    its job (nonzero exit, or a search that missed the optimum); problems
    are wrong outputs of an operation that did not fail.
    """

    call: Callable[[], Any]
    judge: Callable[[Any], tuple[bool, list[str]]]


@dataclass
class Instance:
    name: str
    ops: list[Op]


def _write(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return path


def _read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cli_op(command: str, path: str, out: str, flags: list[str],
            checker: Callable[[str], list[str]]) -> Op:
    import relaxcert.cli as cli

    def judge(rc: int) -> tuple[bool, list[str]]:
        if rc != 0:
            return True, [f"relaxcert {command} exited {rc}"]
        return False, checker(out)

    return Op(call=lambda: cli.main([command, path, "--out", out, *flags]),
              judge=judge)


def _multistart_op(problem_of: Callable[[], Any], seed: int, out: str) -> Op:
    import relaxcert.certify as certify

    def call():
        return certify.multistart_local_search(
            problem_of(), starts=MULTISTART_STARTS, seed=seed)

    def judge(outcome) -> tuple[bool, list[str]]:
        miss = check.multistart_miss(
            out, [r.cost for r in outcome.runs if r.converged])
        return bool(miss), [miss] if miss else []

    return Op(call=call, judge=judge)


def _rng(seed: int, workload: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, k])


# --- workloads ---------------------------------------------------------------
#
# Sizes are fixed per workload.  The seed draws topology, impedances, boxes
# and costs, the SDP cost matrices, and the sampling and multistart seeds, so
# every seed does the same kind and amount of work.

def feeder_unbounded(seed: int, run_dir: str) -> list[Instance]:
    # Seeded feeders are left out: on some seeds relaxcert opf exits 1 on
    # them (the solver stops on a residual scaled by 1 + |b|, the restoration
    # requires every row within the absolute --tol).  The seed draws the
    # sampled relaxed points of the condition checks.
    out = []
    for name in ("demo_2bus", "demo_3bus"):
        path = os.path.join(CASES, f"{name}.json")
        case = _read(path)
        o = os.path.join(run_dir, name)
        out.append(Instance(name, [_cli_op(
            "opf", path, o, ["--seed", str(seed)],
            lambda d, case=case: check.check_opf(case, d, TOL))]))
    return out


def feeder_boxed(seed: int, run_dir: str) -> list[Instance]:
    out = []
    for k, n_bus in enumerate((10, 17, 25)):
        rng = _rng(seed, 2, k)
        case = gen.radial_feeder(rng, n_bus, finite_s_box=True)
        name = f"boxed{n_bus}"
        path = _write(os.path.join(run_dir, f"{name}.json"), case)
        out.append(Instance(name, [_verify_op(
            path, os.path.join(run_dir, name), BOXED_SAMPLES, int(rng.integers(2**32)))]))
    return out


def _verify_op(path: str, out: str, samples: int, seed: int) -> Op:
    """The verification half of ``relaxcert opf``: sample relaxed points,
    restore each one, check c1/c3, the c2 proxy and the c' margins, and
    write the first restoration trace."""
    import relaxcert.certify as certify
    import relaxcert.distflow as distflow
    import relaxcert.restore as restore

    case = _read(path)
    csv_path = os.path.join(out, "restoration.csv")

    def call():
        net, cost = distflow.load_case(path)
        if not distflow.validate_assumptions(net, cost).structural_ok:
            raise ValueError("the feeder fails the structural assumptions")
        rng = np.random.default_rng(seed)
        points = [distflow.pack_point(x) for x in
                  distflow.sample_relaxed_points(net, cost, samples, rng)]
        problem = restore.opf_certified_problem(net, cost)
        checks = certify.check_c1_c3(problem, points, tol=TOL)
        proxy = certify.check_c2_proxy(problem, checks.traces)
        margins = [restore.cprime_margin(net, cost, tr).margin for tr in checks.traces]
        os.makedirs(out, exist_ok=True)
        restore.write_restoration_csv(csv_path, net, cost, checks.traces[0])
        return points, checks, proxy, margins

    def judge(result) -> tuple[bool, list[str]]:
        points, checks, proxy, margins = result
        problems = [] if len(points) == samples else [
            f"{len(points)} sampled points instead of {samples}"]
        problems += [f"condition {c.name} did not pass: {c.witnesses[:1]}"
                    for c in (checks.c1, checks.c3, proxy) if not c.passed]
        if min(margins) <= 0:
            problems.append(f"c' margin {min(margins)!r} is not positive")
        problems += check.check_restorations(
            case, points, [tr.points for tr in checks.traces], TOL)
        problems += check.check_restoration_csv(case, csv_path, TOL)
        return False, problems

    return Op(call=call, judge=judge)


def sdp_rank(seed: int, run_dir: str) -> list[Instance]:
    specs = [(n, False) for n in (10, 20, 30)] + [(n, True) for n in (15, 20)]
    out = []
    for k, (n, degenerate) in enumerate(specs):
        inst = gen.spectraplex(_rng(seed, 3, k), n, degenerate=degenerate)
        name = f"sdp{n}-{'identity' if degenerate else 'generic'}"
        path = _write(os.path.join(run_dir, f"{name}.json"), inst)
        o = os.path.join(run_dir, name)
        out.append(Instance(name, [_cli_op(
            "lrsdp", path, o, [], lambda d, inst=inst: check.check_lrsdp(inst, d, TOL))]))
    return out


def landscape_oracle(seed: int, run_dir: str) -> list[Instance]:
    from relaxcert.certify import eliminated_opf_grid, psd_slice_grid_problem
    from relaxcert.distflow import load_case
    from relaxcert.lrsdp import load_instance

    out = []
    for k in range(3):
        name = f"twobus{k}"
        rng = _rng(seed, 4, k)
        path = _write(os.path.join(run_dir, f"{name}.json"), gen.two_bus_feeder(rng))
        o = os.path.join(run_dir, name)
        out.append(Instance(name, [
            _cli_op("oracle", path, o, ["--resolution", str(TWO_BUS_RESOLUTION)],
                    check.check_feeder_oracle),
            _multistart_op(lambda p=path: eliminated_opf_grid(*load_case(p)),
                           int(rng.integers(2**32)), o),
        ]))
    # The PSD slice input does not depend on the seed: its multistart search
    # fails on every run (all starts are repaired onto the anchor).
    path = os.path.join(CASES, "demo_lrsdp.json")
    inst = _read(path)
    o = os.path.join(run_dir, "psd_slice")
    out.append(Instance("psd_slice", [
        _cli_op("oracle", path, o, ["--resolution", str(SLICE_RESOLUTION)],
                lambda d: check.check_psd_slice_oracle(inst, d)),
        _multistart_op(lambda: psd_slice_grid_problem(load_instance(path)), 0, o),
    ]))
    return out


WORKLOADS = {
    "feeder-unbounded": feeder_unbounded,
    "feeder-boxed": feeder_boxed,
    "sdp-rank": sdp_rank,
    "landscape-oracle": landscape_oracle,
}


# --- measurement --------------------------------------------------------------

def measure_setup() -> list[float]:
    """Import time of relaxcert.cli, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import relaxcert.cli; "
            "print(repr(time.perf_counter() - t))")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing relaxcert.cli failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _run_op(op: Op) -> tuple[Any, str]:
    try:
        return op.call(), ""
    except Exception:  # the pass goes on; the op counts as failed
        return None, traceback.format_exc(limit=3)


def run_passes(instances: list[Instance], seconds: float, tracer) -> dict:
    """Whole passes until the next one would end after ``seconds``."""
    batch, per_instance, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.begin_pass()
        p0 = time.perf_counter()
        results = []
        for inst in instances:
            i0 = time.perf_counter()
            results.append([_run_op(op) for op in inst.ops])
            per_instance.append(time.perf_counter() - i0)
        batch.append(time.perf_counter() - p0)
        if tracer:
            tracer.end_pass(batch[-1])

        for inst, outs in zip(instances, results):
            for op, (value, error) in zip(inst.ops, outs):
                attempted += 1
                if error:
                    op_failed, found = True, [error]
                else:
                    op_failed, found = op.judge(value)
                failed += op_failed
                for p in found:
                    print(f"{inst.name}: {'failed' if op_failed else 'wrong output'}: {p}",
                          file=sys.stderr)
                if not op_failed:
                    problems += [f"{inst.name}: {p}" for p in found]
        cycle = time.perf_counter() - p0
        if time.perf_counter() - start + cycle > seconds:
            break
    return {"batch": batch, "per_instance": per_instance, "problems": problems,
            "attempted": attempted, "failed": failed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    missing = [p for p in (os.path.join(SRC, "relaxcert", "cli.py"),
                           os.path.join(CASES, "demo_3bus.json")) if not os.path.exists(p)]
    if missing:
        print(f"bench: the repository sources are missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    run_dir = os.path.join(BENCH, "runs", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    setup = [] if args.trace else measure_setup()
    import relaxcert.cli  # noqa: F401  (what every relaxcert call loads)

    instances = WORKLOADS[args.workload](args.seed, run_dir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    res = run_passes(instances, args.seconds, tracer)

    if tracer:
        tracer.write(os.path.join(run_dir, "spans.json"))
        per_pass = [tracing.pass_metrics(s) for s in tracer.passes]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass),
                          "unit": unit}
                   for name, unit, _ in tracing.METRICS}
        covered = sum(s["covered_s"] for s in tracer.passes) / sum(res["batch"])
        print(f"traced batch_s {statistics.median(res['batch'])!r}, "
              f"spans cover {covered:.4f} of it", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "batch_s": {"value": statistics.median(res["batch"]), "unit": "s"},
            "verdict_s": {"value": statistics.median(res["per_instance"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print(f"{args.workload}: {len(res['batch'])} passes of {len(instances)} "
          f"instances, {', '.join(f'{b:.3f}' for b in res['batch'])} s", file=sys.stderr)
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
