"""Output checker for the benchmark, independent of the package.

Every check recomputes its reference from the input file and the written
artifacts with numpy alone; nothing here imports ``relaxcert``.  Each
function returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Relative slack for "does not increase" and "equals" comparisons of costs
# along a trace, and for the duality-gap sign.
TRACE_SLACK = 1e-9
OBJ_SLACK = 1e-6


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _first_and_last_rows(path: str) -> tuple[list[str], list[float], list[float], np.ndarray]:
    """Header, first and last data rows, and the (t, f, V) columns.  Trace
    CSVs hold plain numbers, so only the rows kept whole are split whole."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        first = last = ""
        tfv = []
        for line in fh:
            first = first or line
            last = line
            tfv.append(line.split(",", 3)[:3])
    if not first:
        return header, [], [], np.zeros((0, 3))
    return (header, [float(v) for v in first.split(",")],
            [float(v) for v in last.split(",")], np.array(tfv, dtype=float))


def _non_increasing(values: np.ndarray, name: str) -> list[str]:
    rise = np.diff(values) - TRACE_SLACK * (1.0 + np.abs(values[:-1]))
    if len(rise) and rise.max() > 0:
        i = int(np.argmax(rise))
        return [f"{name} increases at row {i + 1} by {np.diff(values)[i]:.3g}"]
    return []


class Feeder:
    """A case file read into arrays (line k runs from tail[k] to head[k])."""

    def __init__(self, case: dict):
        ids = [b["id"] for b in case["buses"]]
        index = {b: i for i, b in enumerate(ids)}
        self.n = len(ids)
        self.tail = np.array([index[ln["from"]] for ln in case["lines"]], dtype=int)
        self.head = np.array([index[ln["to"]] for ln in case["lines"]], dtype=int)
        self.z = np.array([_complex(ln["z"]) for ln in case["lines"]])
        self.l_max = np.array([ln["l_max"] for ln in case["lines"]], dtype=float)
        self.v_min = np.array([b["v_min"] for b in case["buses"]], dtype=float)
        self.v_max = np.array([b["v_max"] for b in case["buses"]], dtype=float)
        self.s_max = np.array([_complex(b["s_max"]) for b in case["buses"]])
        self.s_min = np.array([np.nan if b["s_min"] is None else _complex(b["s_min"])
                               for b in case["buses"]], dtype=complex)
        cost = case["cost"]
        self.cp, self.cq = np.array(cost["cp"]), np.array(cost["cq"])
        self.qp, self.qq = np.array(cost["qp"]), np.array(cost["qq"])

    def unpack(self, points: np.ndarray):
        """(s, v, ell, S) rows of flat points laid out bus-major s and v,
        then line-major ell and S."""
        P = np.atleast_2d(points)
        n, e = self.n, len(self.z)
        return (P[:, :n], P[:, n:2 * n].real, P[:, 2 * n:2 * n + e].real,
                P[:, 2 * n + e:2 * n + 2 * e])

    def costs(self, s: np.ndarray) -> np.ndarray:
        return (s.real @ self.cp + s.imag @ self.cq
                + s.real ** 2 @ self.qp + s.imag ** 2 @ self.qq)

    def cone_gap(self, v, ell, S) -> np.ndarray:
        """v_tail * ell - |S|^2 per row and line (positive means slack)."""
        return v[:, self.tail] * ell - np.abs(S) ** 2

    def relaxed_violations(self, s, v, ell, S, tol: float) -> list[str]:
        """DistFlow residuals of the relaxed set, over rows of points: Ohm's
        law, complex balance, the cone inequality and every box."""
        t, h, z = self.tail, self.head, self.z
        ohm = v[:, t] - v[:, h] - 2.0 * (z * np.conj(S)).real + np.abs(z) ** 2 * ell
        balance = s.astype(complex).copy()
        np.add.at(balance, (slice(None), t), -S)
        np.add.at(balance, (slice(None), h), S - z * ell)
        bounded = ~np.isnan(self.s_min.real)
        checks = {
            "Ohm's law": np.abs(ohm),
            "power balance": np.abs(balance),
            "cone inequality": -self.cone_gap(v, ell, S),
            "v_min": self.v_min - v,
            "v_max": v - self.v_max,
            "l_max": ell - self.l_max,
            "s_max (real)": s.real - self.s_max.real,
            "s_max (imag)": s.imag - self.s_max.imag,
            "s_min (real)": (self.s_min.real - s.real)[:, bounded],
            "s_min (imag)": (self.s_min.imag - s.imag)[:, bounded],
        }
        return [f"{name} violated by {vals.max():.3g} > {tol:g}"
                for name, vals in checks.items() if vals.size and vals.max() > tol]


def check_restorations(case: dict, starts: list[np.ndarray],
                       traces: list[np.ndarray], tol: float) -> list[str]:
    """Restoration traces from sampled points: each starts at its point, stays
    in the relaxed set, lowers the cost strictly and the total cone slack
    monotonically, and ends on the cone."""
    net = Feeder(case)
    problems: list[str] = []
    if len(traces) != len(starts):
        return [f"{len(traces)} traces for {len(starts)} sampled points"]
    for i, (x, P) in enumerate(zip(starts, traces)):
        s, v, ell, S = net.unpack(P)
        where = f"trace {i}"
        if np.max(np.abs(P[0] - x)) > 1e-9 * (1 + np.max(np.abs(x))):
            problems.append(f"{where} does not start at its sampled point")
        problems += [f"{where}: {p}" for p in net.relaxed_violations(s, v, ell, S, tol)]
        gap = net.cone_gap(v, ell, S)
        if np.abs(gap[-1]).max() > tol:
            problems.append(f"{where} ends off the cone by {np.abs(gap[-1]).max():.3g}")
        f = net.costs(s)
        problems += [f"{where}: {p}" for p in _non_increasing(f, "cost")]
        problems += [f"{where}: {p}" for p in
                     _non_increasing(np.maximum(gap, 0).sum(axis=1), "cone slack")]
        if not f[-1] < f[0]:
            problems.append(f"{where}: cost did not decrease end to end")
    return problems


def check_restoration_csv(case: dict, path: str, tol: float) -> list[str]:
    """A restoration.csv trace: f and V do not increase, f is the cost of
    each row, and the last row lies on the cone."""
    net = Feeder(case)
    header, _, last, tfv = _first_and_last_rows(path)
    n, e = net.n, len(net.z)
    if header[:3] != ["t", "f", "V"] or len(header) != 3 + 3 * n + 3 * e or not last:
        return ["restoration.csv has the wrong shape"]
    problems = _non_increasing(tfv[:, 1], "restoration.csv f")
    problems += _non_increasing(tfv[:, 2], "restoration.csv V")
    row = np.array(last[3:])
    s_end = row[0:2 * n:2] + 1j * row[1:2 * n:2]
    v_end = row[2 * n:3 * n]
    ell_end = row[3 * n:3 * n + e]
    S_end = row[3 * n + e::2] + 1j * row[3 * n + e + 1::2]
    gap = np.abs(net.cone_gap(v_end[None, :], ell_end[None, :], S_end[None, :]))
    if gap.max() > tol:
        problems.append(f"restoration endpoint is off the cone by {gap.max():.3g}")
    cost_end = float(net.costs(s_end[None, :])[0])
    if abs(cost_end - last[1]) > TRACE_SLACK * (1 + abs(cost_end)):
        problems.append(f"restoration.csv f {last[1]!r} is not the cost "
                        f"{cost_end!r} of the last row")
    return problems


def check_opf(case: dict, out: str, tol: float) -> list[str]:
    """``relaxcert opf`` artifacts: a relaxed-feasible optimum, a monotone
    restoration trace ending on the cone, weak duality and passed
    conditions."""
    net = Feeder(case)
    solve = _load(os.path.join(out, "solve.json"))
    if solve.get("status") != "optimal":
        return [f"solve status {solve.get('status')!r}"]
    pt = solve["point"]
    s = np.array([[_complex(p) for p in pt["s"]]])
    S = np.array([[_complex(p) for p in pt["S"]]])
    v, ell = np.array([pt["v"]], dtype=float), np.array([pt["ell"]], dtype=float)
    problems = [f"solve.json point: {p}"
                for p in net.relaxed_violations(s, v, ell, S, tol)]
    objective = float(net.costs(s)[0])
    if abs(objective - solve["objective"]) > TRACE_SLACK * (1 + abs(objective)):
        problems.append(f"objective {solve['objective']!r} is not the cost "
                        f"{objective!r} of the point")
    if solve["dual_obj"] > objective + OBJ_SLACK * (1 + abs(objective)):
        problems.append(f"dual objective {solve['dual_obj']!r} exceeds the "
                        f"objective {objective!r}")
    problems += check_restoration_csv(case, os.path.join(out, "restoration.csv"), tol)
    report = _load(os.path.join(out, "report.json"))
    for name, cond in report["conditions"].items():
        if cond is None or not cond["passed"]:
            problems.append(f"condition {name} did not pass")
    return problems


def _instance_matrix(raw) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in raw])


def check_lrsdp(inst: dict, out: str, tol: float) -> list[str]:
    """``relaxcert lrsdp`` artifacts for a trace-one spectraplex instance:
    the relaxation value is lambda_min(C), and the reduction ends at trace 1,
    at the starting cost and at rank <= r."""
    C = _instance_matrix(inst["C"])
    lam_min = float(np.linalg.eigvalsh(C)[0])
    n, r = inst["n"], inst["r"]
    problems: list[str] = []
    solve = _load(os.path.join(out, "solve.json"))
    if solve.get("status") != "optimal":
        return [f"solve status {solve.get('status')!r}"]
    objective = solve["objective"]
    if abs(objective - lam_min) > OBJ_SLACK * (1 + abs(lam_min)):
        problems.append(f"objective {objective!r} is not lambda_min(C) = {lam_min!r}")

    header, first, last, _ = _first_and_last_rows(os.path.join(out, "reduction.csv"))
    if len(header) != 3 + 2 * n * n or not last:
        return problems + ["reduction.csv has the wrong shape"]
    vals = np.array(last[3:])
    X = (vals[0::2] + 1j * vals[1::2]).reshape(n, n)
    trace = float(np.trace(X).real)
    if abs(trace - 1.0) > tol:
        problems.append(f"final trace {trace!r} is not 1")
    cost_end = float(np.trace(C @ X).real)
    for name, ref in (("starting cost", first[1]), ("objective", objective)):
        if abs(cost_end - ref) > tol * (1 + abs(ref)):
            problems.append(f"final cost {cost_end!r} differs from the {name} {ref!r}")
    eig = np.linalg.eigvalsh((X + X.conj().T) / 2)[::-1]
    if eig[r:].sum() > tol or eig[-1] < -tol:
        problems.append(f"final matrix is not PSD of rank <= {r} "
                        f"(tail {eig[r:].sum():.3g}, min {eig[-1]:.3g})")

    report = _load(os.path.join(out, "report.json"))
    for name, cond in report["conditions"].items():
        if cond is not None and not cond["passed"]:
            problems.append(f"condition {name} did not pass")
    return problems


def check_feeder_oracle(out: str) -> list[str]:
    """A two-bus scan has no genuine or pseudo local optimum."""
    counts = _load(os.path.join(out, "oracle.json"))["label_counts"]
    if counts["genuine"] or counts["pseudo"]:
        return [f"scan labels {counts['genuine']} genuine and "
                f"{counts['pseudo']} pseudo local optima"]
    return []


def check_psd_slice_oracle(inst: dict, out: str) -> list[str]:
    """The slice scan's global cost lies within the equality band of
    lambda_min(C): grid points meet the trace and determinant equalities only
    to ``eq_scale * resolution`` with ``eq_scale = 4 * 1.2 * max(1, |b|)``,
    and the cost moves by at most ``|lambda|_max`` per unit of trace."""
    oracle = _load(os.path.join(out, "oracle.json"))
    C = _instance_matrix(inst["C"])
    lam = np.linalg.eigvalsh(C)
    band = 4.0 * 1.2 * max(1.0, float(np.max(np.abs(inst["b"])))) * oracle["resolution"]
    bound = band * float(np.max(np.abs(lam)))
    lam_min = float(lam[0])
    if abs(oracle["global_cost"] - lam_min) > bound:
        return [f"slice global cost {oracle['global_cost']!r} is farther than "
                f"{bound:.3g} from lambda_min(C) = {lam_min!r}"]
    return []


def multistart_miss(out: str, converged_costs: list[float]) -> str:
    """Empty when the best converged multistart cost lies within
    2 * resolution * max_slope of the scan's global cost; else the reason."""
    oracle = _load(os.path.join(out, "oracle.json"))
    if not converged_costs:
        return "no multistart run converged"
    reach = 2.0 * oracle["resolution"] * oracle["max_slope"]
    best = min(converged_costs)
    if abs(best - oracle["global_cost"]) > reach:
        return (f"best converged cost {best!r} is farther than {reach:.3g} "
                f"from the global cost {oracle['global_cost']!r}")
    return ""
