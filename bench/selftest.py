"""Self-test of the benchmark's output checker.

Runs each workload's pipeline once on a small input, requires the checker to
accept the real artifacts, then corrupts one artifact at a time and requires
a rejection, so that no check passes by default.  Run from the repository
root:

    python3 bench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import check
import gen
import run

TOL = run.TOL


def _edit_json(path: str, edit) -> None:
    data = run._read(path)
    edit(data)
    run._write(path, data)


def _edit_csv_column(path: str, row: int, column: int, shift: float) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    cells = lines[row].rstrip("\r\n").split(",")
    cells[column] = repr(float(cells[column]) + shift)
    lines[row] = ",".join(cells) + "\r\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _scale_matrix_row(path: str, factor: float) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    cells = lines[-1].rstrip("\r\n").split(",")
    cells[3:] = [repr(float(v) * factor) for v in cells[3:]]
    lines[-1] = ",".join(cells) + "\r\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def main() -> int:
    import relaxcert.cli as cli
    from relaxcert.certify import eliminated_opf_grid, multistart_local_search
    from relaxcert.distflow import load_case

    base = os.path.join(run.BENCH, "runs", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    failures = 0

    def expect(label: str, problems: list[str], rejected: bool) -> None:
        nonlocal failures
        ok = bool(problems) == rejected
        failures += not ok
        verdict = "ok  " if ok else "FAIL"
        print(f"{verdict} {label}: {problems[0] if problems else 'accepted'}")

    def fresh(name: str, argv: list[str]) -> str:
        out = os.path.join(base, name)
        rc = cli.main([*argv, "--out", out])
        if rc != 0:
            raise SystemExit(f"selftest: relaxcert {argv[0]} exited {rc}")
        return out

    def redo(out: str, argv: list[str]) -> str:
        shutil.rmtree(out)
        return fresh(os.path.basename(out), argv)

    # feeder-unbounded: a solve point off Ohm's law, weak duality broken,
    # a failed condition
    case_path = os.path.join(run.CASES, "demo_2bus.json")
    case = run._read(case_path)
    argv = ["opf", case_path, "--samples", "3"]
    out = fresh("unbounded", argv)
    expect("feeder-unbounded, real artifacts", check.check_opf(case, out, TOL), False)
    _edit_json(os.path.join(out, "solve.json"),
               lambda d: d["point"]["v"].__setitem__(1, d["point"]["v"][1] + 1e-3))
    expect("feeder-unbounded, voltage moved in solve.json",
           check.check_opf(case, out, TOL), True)
    out = redo(out, argv)
    _edit_json(os.path.join(out, "solve.json"),
               lambda d: d.__setitem__("dual_obj", d["objective"] + 1e-3))
    expect("feeder-unbounded, dual objective above the objective",
           check.check_opf(case, out, TOL), True)
    out = redo(out, argv)
    _edit_json(os.path.join(out, "report.json"),
               lambda d: d["conditions"]["c1"].__setitem__("passed", False))
    expect("feeder-unbounded, failed condition in report.json",
           check.check_opf(case, out, TOL), True)

    # feeder-boxed: a trace that leaves its point, an endpoint off the cone,
    # a rising cost
    case = gen.radial_feeder(np.random.default_rng([0, 2, 0]), 10, finite_s_box=True)
    case_path = run._write(os.path.join(base, "boxed10.json"), case)
    out = os.path.join(base, "boxed")
    op = run._verify_op(case_path, out, samples=3, seed=0)
    result = op.call()
    expect("feeder-boxed, real traces", op.judge(result)[1], False)
    points, checks = result[0], result[1]
    traces = [tr.points.copy() for tr in checks.traces]
    traces[1][:, len(case["buses"])] += 1e-3
    expect("feeder-boxed, a trace with a moved voltage",
           check.check_restorations(case, points, traces, TOL), True)
    csv_path = os.path.join(out, "restoration.csv")
    with open(csv_path, "r", encoding="utf-8") as fh:
        original = fh.read()
    last_ell = 3 + 3 * len(case["buses"]) + len(case["lines"]) - 1
    _edit_csv_column(csv_path, row=-1, column=last_ell, shift=1e-3)
    expect("feeder-boxed, restoration endpoint off the cone",
           check.check_restoration_csv(case, csv_path, TOL), True)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(original)
    _edit_csv_column(csv_path, row=50, column=1, shift=1.0)
    expect("feeder-boxed, cost rises along the restoration",
           check.check_restoration_csv(case, csv_path, TOL), True)

    # sdp-rank: a reduction endpoint off the trace constraint, a wrong value
    inst = gen.spectraplex(np.random.default_rng([0, 3, 0]), 4, degenerate=True)
    inst_path = run._write(os.path.join(base, "sdp4.json"), inst)
    argv = ["lrsdp", inst_path]
    out = fresh("sdp", argv)
    expect("sdp-rank, real artifacts", check.check_lrsdp(inst, out, TOL), False)
    _scale_matrix_row(os.path.join(out, "reduction.csv"), 1.01)
    expect("sdp-rank, reduction endpoint off trace one",
           check.check_lrsdp(inst, out, TOL), True)
    out = redo(out, argv)
    _edit_json(os.path.join(out, "solve.json"),
               lambda d: d.__setitem__("objective", d["objective"] + 1e-3))
    expect("sdp-rank, relaxation value not lambda_min(C)",
           check.check_lrsdp(inst, out, TOL), True)

    # landscape-oracle: a spurious optimum, a missed global cost
    case = gen.two_bus_feeder(np.random.default_rng([0, 4, 0]))
    case_path = run._write(os.path.join(base, "twobus.json"), case)
    out = fresh("twobus", ["oracle", case_path, "--resolution", "0.05"])
    expect("landscape-oracle, real artifacts", check.check_feeder_oracle(out), False)
    outcome = multistart_local_search(eliminated_opf_grid(*load_case(case_path)),
                                      starts=5, seed=0)
    costs = [r.cost for r in outcome.runs if r.converged]
    expect("landscape-oracle, real multistart",
           [m for m in [check.multistart_miss(out, costs)] if m], False)
    expect("landscape-oracle, multistart above the global cost",
           [m for m in [check.multistart_miss(out, [c + 1.0 for c in costs])] if m], True)
    _edit_json(os.path.join(out, "oracle.json"),
               lambda d: d["label_counts"].__setitem__("pseudo", 1))
    expect("landscape-oracle, pseudo local optimum in oracle.json",
           check.check_feeder_oracle(out), True)
    inst_path = os.path.join(run.CASES, "demo_lrsdp.json")
    inst = run._read(inst_path)
    out = fresh("slice", ["oracle", inst_path, "--resolution", "0.1"])
    expect("landscape-oracle, real slice scan",
           check.check_psd_slice_oracle(inst, out), False)
    _edit_json(os.path.join(out, "oracle.json"),
               lambda d: d.__setitem__("global_cost", d["global_cost"] - 1.0))
    expect("landscape-oracle, slice global cost off lambda_min(C)",
           check.check_psd_slice_oracle(inst, out), True)

    shutil.rmtree(base, ignore_errors=True)
    print(f"{failures} of the checker self-test cases misbehaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    raise SystemExit(main())
