"""Batch front-end: ingest case or instance files, run the
solve / restore / certify pipelines, and write traces and reports.

Exit codes: 0 when every check passes, 2 when a certificate fails (a
mathematical counterexample or violated assumption), 1 on operational
errors (bad input, solver non-convergence, guards).  All outputs are
UTF-8 JSON or CSV, written atomically; reports are byte-stable across
reruns except for the single ``generated_at`` key.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from typing import Any

import numpy as np

from relaxcert.certify import (
    LABELS,
    CertificateReport,
    ConditionResult,
    DimensionGuardError,
    InfeasibleAtResolutionError,
    LandscapeGrid,
    brute_force_oracle,
    check_c1_c3,
    check_c2_proxy,
    check_exactness,
    classify_local_optima,
    eliminated_opf_grid,
    psd_slice_grid_problem,
)
from relaxcert.core import (
    FEAS_TOL,
    CertificateViolationError,
    PreconditionError,
    finite_number,
    finite_numbers,
    verify_path,
)
from relaxcert.distflow import (
    case_from_dict,
    pack_point,
    sample_relaxed_points,
    validate_assumptions,
)
from relaxcert.lrsdp import (
    ReductionStuckError,
    instance_from_dict,
    lrsdp_certified_problem,
    lyapunov_tail,
    reduce_rank_path,
    write_reduction_csv,
)
from relaxcert.restore import (
    cprime_margin,
    cprime_reference,
    opf_certified_problem,
    write_restoration_csv,
)
from relaxcert.solver import solve_lrsdp_relaxation, solve_opf_relaxation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAIL = 2
CONFIG_KEYS = ("out", "tol", "seed", "samples", "resolution", "max_iter",
               "relaxation_parameter")  # the flag options a config file may set


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, data: dict) -> None:
    _atomic_write(path, json.dumps(data, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def _stamp(data: dict) -> dict:
    data["generated_at"] = datetime.now(timezone.utc).isoformat()
    return data


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_object(path: str, what: str) -> dict:
    """A JSON file whose top level must be an object."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected an object, got {data!r}")
    return data


def _solve_summary(res) -> dict[str, Any]:
    return {key: getattr(res, key) for key in (
        "status", "iterations", "objective", "primal_obj", "dual_obj",
        "primal_residual", "dual_residual", "gap", "options", "note")}


def _certificate_exit(report: CertificateReport) -> int:
    """Exit code of a finished certificate run; each failed condition is
    named on stderr."""
    for c in (report.c1, report.c2_proxy, report.c3, report.cprime):
        if c is not None and not c.passed:
            cause = c.witnesses[0] if c.witnesses else f"margin {c.margin:.3g}"
            print(f"condition {c.name} failed: {cause}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CERT_FAIL


def _raise_first_fault(conditions: list[tuple[float, str]], what: str) -> None:
    """Raise the first failed ``(margin, witness)`` pair as a violation."""
    for margin, witness in conditions:
        if margin < 0:
            raise CertificateViolationError(f"{what}: {witness}")


def _operating_point_dict(point) -> dict[str, Any]:
    return {
        "s": [[v.real, v.imag] for v in point.s],
        "v": list(point.v),
        "ell": list(point.ell),
        "S": [[v.real, v.imag] for v in point.S],
    }


def cmd_opf(args: argparse.Namespace) -> int:
    data = _load_json(args.input)
    net, cost = case_from_dict(data)
    out = args.out

    assumptions = validate_assumptions(net, cost)
    if not assumptions.structural_ok:
        _write_json(os.path.join(out, "report.json"), _stamp({
            "assumptions": assumptions.as_dict(),
            "verdict": "assumption-failure",
        }))
        for check in assumptions.failures():
            print(f"assumption {check.name} failed: {check.witness}",
                  file=sys.stderr)
        return EXIT_CERT_FAIL

    res = solve_opf_relaxation(net, cost, options={
        "tol": args.tol / 10, "max_iter": args.max_iter,
        "relaxation_parameter": args.relaxation_parameter})
    solve_data: dict[str, Any] = _solve_summary(res)
    if res.status == "infeasible":
        cause = res.note or "the feasibility assumption does not hold"
        solve_data["note"] = f"relaxation infeasible: {cause}"
        _write_json(os.path.join(out, "solve.json"), _stamp(solve_data))
        _write_json(os.path.join(out, "report.json"), _stamp({
            "assumptions": assumptions.as_dict(),
            "verdict": "infeasible",
        }))
        print(solve_data["note"], file=sys.stderr)
        return EXIT_CERT_FAIL
    if res.status != "optimal":
        _write_json(os.path.join(out, "solve.json"), _stamp(solve_data))
        print(f"solver did not converge (status {res.status})", file=sys.stderr)
        return EXIT_ERROR

    solve_data["point"] = _operating_point_dict(res.point)
    _write_json(os.path.join(out, "solve.json"), _stamp(solve_data))

    problem = opf_certified_problem(net, cost)
    optimum = pack_point(res.point)
    optimum_path = check = None
    # the optimum's one membership test: the path factory judges nothing
    measured = problem.handle.evaluate(optimum)
    if measured.feasible > args.tol:
        if measured.relaxed > args.tol:
            raise PreconditionError(f"point is not relaxed-feasible (residual "
                                    f"{measured.relaxed:.3g} > {args.tol:.1g})")
        optimum_path = problem.path_factory(optimum)
        check = verify_path(problem.handle, optimum, optimum_path)
        _raise_first_fault(check.conditions(args.tol),
                           "restoring the relaxation optimum")
    verdict = check_exactness(res.optimality_residual, measured.feasible,
                              check, tol=args.tol)

    rng = np.random.default_rng(args.seed)
    samples = [pack_point(x) for x in
               sample_relaxed_points(net, cost, args.samples, rng)]
    checks = check_c1_c3(problem, samples, tol=args.tol)

    if optimum_path is not None:
        trace = optimum_path
        trace_note = "restoration trace drives the relaxation optimum feasible"
    else:
        trace = checks.traces[0] if checks.traces else None
        trace_note = ("relaxation optimum already feasible; the trace restores "
                      "the first sampled relaxed point instead")
    if trace is not None:
        write_restoration_csv(os.path.join(out, "restoration.csv"),
                              net, cost, trace)
    proxy = check_c2_proxy(problem, checks.traces)
    margins = [cprime_margin(net, cost, tr) for tr in checks.traces]
    margin = min((m.margin for m in margins), default=np.inf)
    reference = cprime_reference(net, cost)
    cprime = ConditionResult(
        "cprime",
        passed=bool(margin > 0 and checks.c1.passed),
        margin=float(margin),
        note=f"analytic reference {reference:.6g}")

    report = CertificateReport(
        c1=checks.c1, c2_proxy=proxy, c3=checks.c3, cprime=cprime,
        exactness=verdict.verdict, sample_count=args.samples, seed=args.seed,
        tolerances={"membership": args.tol},
        notes=tuple(filter(None, [verdict.note, trace_note])))
    _write_json(os.path.join(out, "report.json"), _stamp({
        "assumptions": assumptions.as_dict(), **report.as_dict()}))

    return _certificate_exit(report)


def cmd_lrsdp(args: argparse.Namespace) -> int:
    inst = instance_from_dict(_load_json(args.input))
    out = args.out

    res = solve_lrsdp_relaxation(inst, options={
        "tol": args.tol / 10, "max_iter": args.max_iter,
        "relaxation_parameter": args.relaxation_parameter})
    solve_data = _solve_summary(res)
    if res.status == "infeasible":
        _write_json(os.path.join(out, "solve.json"), _stamp(solve_data))
        _write_json(os.path.join(out, "report.json"), _stamp({
            "verdict": "infeasible",
            "dimension_condition": inst.dimension_condition,
        }))
        print("relaxation infeasible: the solver found a certificate that "
              "no PSD matrix meets the constraints", file=sys.stderr)
        return EXIT_CERT_FAIL
    if res.status != "optimal":
        _write_json(os.path.join(out, "solve.json"), _stamp(solve_data))
        print(f"solver did not converge (status {res.status})", file=sys.stderr)
        return EXIT_ERROR

    solve_data["rank"] = res.point.rank()
    solve_data["eigenvalues"] = list(res.point.eigenvalues)
    _write_json(os.path.join(out, "solve.json"), _stamp(solve_data))

    try:
        reduction = reduce_rank_path(inst, res.point, tol=args.tol)
    except ReductionStuckError as exc:
        _write_json(os.path.join(out, "report.json"), _stamp({
            "verdict": "reduction-stuck",
            "stage": exc.stage,
            "dimension_condition": inst.dimension_condition,
            "detail": str(exc),
        }))
        print(f"rank reduction stuck: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL

    problem = lrsdp_certified_problem(inst)
    optimum = res.point.X.reshape(-1)
    check = verify_path(problem.handle, optimum, reduction.trace)
    if reduction.stages:
        # the reduction keeps the cost: only the non-strict conditions apply
        _raise_first_fault(check.conditions(args.tol)[:-1],
                           "reducing the relaxation optimum")
    write_reduction_csv(os.path.join(out, "reduction.csv"), inst,
                        reduction.trace, check)

    verdict = check_exactness(res.optimality_residual,
                              problem.handle.evaluate(optimum).feasible, check,
                              tol=args.tol)
    proxy = check_c2_proxy(problem, [reduction.trace])
    final_cost = inst.cost(reduction.final.X)
    cost_drift = abs(final_cost - res.objective)
    c3 = ConditionResult(
        "c3",
        passed=bool(reduction.final.rank() <= inst.r
                    and cost_drift <= args.tol * (1 + abs(res.objective))),
        margin=-float(cost_drift),
        note=f"final rank {reduction.final.rank()} after "
             f"{len(reduction.stages)} stages")

    report = CertificateReport(
        c1=None, c2_proxy=proxy, c3=c3, cprime=None,
        exactness=verdict.verdict, sample_count=1, seed=args.seed,
        tolerances={"membership": args.tol},
        notes=(verdict.note,
               f"dimension condition holds: {inst.dimension_condition}"))
    _write_json(os.path.join(out, "report.json"), _stamp({
        **report.as_dict(),
        "final_rank": reduction.final.rank(),
        "stages": len(reduction.stages),
        "final_cost": final_cost,
        "tail_value_final": lyapunov_tail(inst, reduction.final),
    }))

    return _certificate_exit(report)


def cmd_certify(args: argparse.Namespace) -> int:
    data = _load_object(args.input, "input")
    if "buses" in data:
        return cmd_opf(args)
    if "C" in data:
        return cmd_lrsdp(args)
    raise ValueError("certify: input is neither a case file (buses) nor an "
                     "instance file (C)")


def cmd_oracle(args: argparse.Namespace) -> int:
    data = _load_object(args.input, "input")
    if "buses" in data:
        net, cost = case_from_dict(data)
        grid_problem = eliminated_opf_grid(net, cost)
    elif "C" in data:
        grid_problem = psd_slice_grid_problem(instance_from_dict(data))
    else:
        raise ValueError("oracle: input is neither a case nor an instance file")

    oracle = brute_force_oracle(grid_problem, resolution=args.resolution)
    _write_json(os.path.join(args.out, "oracle.json"),
                _stamp(oracle.as_dict()))
    return EXIT_OK


def _landscape_from_dict(data: dict) -> LandscapeGrid:
    """The ``classify`` input: ``points``, a non-empty list of equal-length
    lists of finite numbers, one finite ``costs`` entry per point and a
    finite ``radius``; :class:`LandscapeGrid` checks the counts and the
    radius's sign.  A bad field is named."""
    points = data.get("points")
    if not isinstance(points, list) or not points:
        raise ValueError(f"points: expected a non-empty list, got {points!r}")
    rows = [finite_numbers(p, f"points[{i}]") for i, p in enumerate(points)]
    if not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("points: expected non-empty lists of one common length")
    return LandscapeGrid(points=np.array(rows),
                         costs=np.array(finite_numbers(data.get("costs"), "costs")),
                         radius=finite_number(data.get("radius"), "radius"))


def cmd_classify(args: argparse.Namespace) -> int:
    grid = _landscape_from_dict(_load_object(args.input, "input"))
    labels = classify_local_optima(grid)
    counts = {k: int(np.sum(labels == k)) for k in LABELS}
    _write_json(os.path.join(args.out, "labels.json"), _stamp({
        "labels": list(labels),
        "counts": counts,
    }))
    return EXIT_OK


@functools.cache
def _build_parser(defaults: bool = True) -> argparse.ArgumentParser:
    """The command-line parser, built once per process and only parsed
    with afterwards; with ``defaults=False`` an option the command line
    does not give is absent from the parse."""
    def default(value):
        return value if defaults else argparse.SUPPRESS

    parser = argparse.ArgumentParser(
        prog="relaxcert",
        description="Restore feasibility from convex-relaxed solutions and "
                    "check exactness certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
            ("opf", cmd_opf),
            ("lrsdp", cmd_lrsdp),
            ("certify", cmd_certify),
            ("oracle", cmd_oracle),
            ("classify", cmd_classify)):
        p = sub.add_parser(name)
        p.add_argument("input", help="input JSON file")
        p.add_argument("--out", default=default("out"), help="output directory")
        p.add_argument("--tol", type=float, default=default(FEAS_TOL),
                       help="membership tolerance")
        p.add_argument("--seed", type=int, default=default(0))
        p.add_argument("--samples", type=int, default=default(25),
                       help="sampled relaxed points for condition checks")
        p.add_argument("--resolution", type=float, default=default(0.01),
                       help="grid resolution for the oracle scan")
        p.add_argument("--max-iter", type=int, default=default(200_000))
        p.add_argument("--relaxation-parameter", type=float, default=default(1.6),
                       help="over-relaxation factor of the conic solver")
        p.add_argument("--config", default=default(None),
                       help="JSON file with defaults; explicit flags win")
        p.set_defaults(fn=fn)
    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    if not args.config:
        return
    config = _load_object(args.config, "config")
    # a parse without defaults names the options given, under every
    # spelling argparse accepts (``--samp`` for ``--samples``)
    supplied = vars(_build_parser(defaults=False).parse_args(argv))
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr not in CONFIG_KEYS:
            raise ValueError(f"config: unknown option {key!r}")
        if attr not in supplied:
            setattr(args, attr, value)


def _check_flags(args: argparse.Namespace) -> None:
    """Check the flags once, after ``--config`` is applied, so a config
    value meets the same rules as a flag; a bad value is named."""
    if not isinstance(args.out, str):
        raise ValueError(f"--out: expected a string, got {args.out!r}")
    for name, high in (("tol", math.inf), ("resolution", math.inf),
                       ("relaxation_parameter", 2.0)):
        flag, value = "--" + name.replace("_", "-"), getattr(args, name)
        if not 0 < finite_number(value, flag) < high:
            raise ValueError(f"{flag}: expected a number in (0, {high:g}), got {value!r}")
    for name, low in (("samples", 0), ("seed", 0), ("max_iter", 1)):
        flag, value = "--" + name.replace("_", "-"), getattr(args, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{flag}: expected an integer >= {low}, got {value!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, argv)
        _check_flags(args)
        return args.fn(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError,
            DimensionGuardError, InfeasibleAtResolutionError,
            PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CertificateViolationError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
