"""Radial-network OPF model: case schema, DistFlow residuals, feasible and
relaxed set membership, and validation of the structural assumptions.

Units are per-unit throughout: ``v`` is voltage magnitude squared, ``ell``
is current magnitude squared, ``s``/``S`` are complex powers, ``z`` is a
complex impedance.  Lines are directed from the root toward the leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from relaxcert.core import (
    FEAS_TOL,
    PreconditionError,
    complex_pair,
    finite_number,
    finite_numbers,
)

SAMPLE_SLACK_RANGE = (0.05, 0.5)  # current slack drawn per line, before the draw scale


@dataclass(frozen=True)
class Bus:
    """Bus data: voltage-squared box and complex injection box.

    ``s_min is None`` encodes an unbounded-below injection (both parts).
    """

    id: str
    v_min: float
    v_max: float
    s_min: complex | None
    s_max: complex


@dataclass(frozen=True)
class Line:
    """Directed line ``tail -> head`` with series impedance and current limit."""

    tail: str
    head: str
    z: complex
    l_max: float


@dataclass(frozen=True)
class RadialNetwork:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    root: str

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ValueError("bus ids must be unique")
        if self.root not in ids:
            raise ValueError(f"root {self.root!r} is not a bus id")
        known = set(ids)
        for ln in self.lines:
            if ln.tail not in known or ln.head not in known:
                raise ValueError(f"line {ln.tail}->{ln.head} references unknown bus")
        for b in self.buses:
            if not np.isfinite([b.v_min, b.v_max]).all():
                raise ValueError(f"bus {b.id}: voltage bounds must be finite")

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_line(self) -> int:
        return len(self.lines)

    @cached_property
    def bus_index(self) -> dict[str, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def tail_idx(self) -> np.ndarray:
        return np.array([self.bus_index[ln.tail] for ln in self.lines], dtype=int)

    @cached_property
    def head_idx(self) -> np.ndarray:
        return np.array([self.bus_index[ln.head] for ln in self.lines], dtype=int)

    @cached_property
    def z(self) -> np.ndarray:
        return np.array([ln.z for ln in self.lines], dtype=complex)

    @cached_property
    def l_max(self) -> np.ndarray:
        return np.array([ln.l_max for ln in self.lines], dtype=float)

    @cached_property
    def v_min(self) -> np.ndarray:
        return np.array([b.v_min for b in self.buses], dtype=float)

    @cached_property
    def v_max(self) -> np.ndarray:
        return np.array([b.v_max for b in self.buses], dtype=float)

    @cached_property
    def s_min(self) -> np.ndarray:
        """Lower injection bounds; ``-inf`` in both parts where unbounded."""
        unbounded = complex(-np.inf, -np.inf)
        return np.array([unbounded if b.s_min is None else b.s_min
                         for b in self.buses], dtype=complex)

    @cached_property
    def s_max(self) -> np.ndarray:
        return np.array([b.s_max for b in self.buses], dtype=complex)

    @cached_property
    def tree(self) -> tuple[list[tuple[int, int, int, float, float, float]], str]:
        """Root-first ``(line, tail, head, Re z, Im z, |z|^2)`` rows and tree
        verdict (``""``, or the first failed condition and no rows), one walk."""
        n, root = self.n_bus, self.bus_index[self.root]
        indeg = np.bincount(self.head_idx, minlength=n)
        if indeg[root] != 0:
            return [], f"root bus {self.root!r} has an incoming line"
        for i, b in enumerate(self.buses):
            if i != root and indeg[i] != 1:
                return [], f"bus {b.id!r} has in-degree {indeg[i]} (expected 1)"
        if self.n_line != n - 1:
            return [], f"{self.n_line} lines for {n} buses (expected {n - 1})"
        children: list[list[int]] = [[] for _ in range(n)]
        for e, t in enumerate(self.tail_idx.tolist()):
            children[t].append(e)
        table, stack = [], [root]
        while stack:  # in-degree one below the root: each line once
            t = stack.pop()
            for e in children[t]:
                h, z = int(self.head_idx[e]), complex(self.lines[e].z)
                table.append((e, t, h, z.real, z.imag, abs(z) ** 2))
                stack.append(h)
        # in-degrees are right, so any unreachable bus implies a directed cycle
        seen = {root, *(row[2] for row in table)}
        if len(seen) != n:
            cyc = [b.id for i, b in enumerate(self.buses) if i not in seen]
            return [], f"buses {cyc} unreachable from root (cycle present)"
        return table, ""

    @property
    def line_table(self) -> list[tuple[int, int, int, float, float, float]]:
        """The rows of :attr:`tree`; a failed verdict raises PreconditionError."""
        table, problem = self.tree
        if problem:
            raise PreconditionError(f"network is not radial: {problem}")
        return table


@dataclass(frozen=True)
class OperatingPoint:
    """Decision tuple ``(s, v, ell, S)``: bus injections, squared voltages,
    squared currents and sending-end line powers, indexed by bus or line
    along the last axis; shared leading axes index a stack of points."""

    s: np.ndarray
    v: np.ndarray
    ell: np.ndarray
    S: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=complex)
        v = np.asarray(self.v, dtype=float)
        ell = np.asarray(self.ell, dtype=float)
        S = np.asarray(self.S, dtype=complex)
        if (min(s.ndim, v.ndim, ell.ndim, S.ndim) < 1
                or any(a.shape[:-1] != s.shape[:-1] for a in (v, ell, S))):
            raise ValueError("operating point components must be arrays over "
                             "the same leading axes")
        if s.shape[-1] != v.shape[-1] or ell.shape[-1] != S.shape[-1]:
            raise ValueError("bus-indexed and line-indexed components disagree in length")
        for name, arr in (("s", s), ("v", v), ("ell", ell), ("S", S)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if np.any(v < -1e-9) or np.any(ell < -1e-9):
            raise ValueError("v and ell must be nonnegative")

    def _check_net(self, net: RadialNetwork) -> None:
        n_bus, n_line = self.s.shape[-1], self.S.shape[-1]
        if n_bus != net.n_bus or n_line != net.n_line:
            raise ValueError(
                f"point has {n_bus} buses / {n_line} lines, "
                f"network has {net.n_bus} / {net.n_line}")


@dataclass(frozen=True)
class OpfCost:
    """Separable convex cost: per-bus linear plus quadratic terms on
    Re(s_j) and Im(s_j)."""

    cp: np.ndarray
    cq: np.ndarray
    qp: np.ndarray
    qq: np.ndarray

    def __post_init__(self) -> None:
        for name in ("cp", "cq", "qp", "qq"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 1-D array")
            object.__setattr__(self, name, arr)
        n = len(self.cp)
        if any(len(getattr(self, name)) != n for name in ("cq", "qp", "qq")):
            raise ValueError("cost coefficient arrays must share length")

    def value(self, s: np.ndarray) -> np.ndarray:
        """Cost of each injection vector along the last axis of ``s``."""
        p, q = s.real, s.imag
        return (np.vecdot(self.cp, p) + np.vecdot(self.cq, q)
                + np.vecdot(self.qp, p**2) + np.vecdot(self.qq, q**2))

    def strong_increase_constant(self, net: RadialNetwork) -> float:
        """Infimum over the injection box of d f / d Re(s_j), minimized over j.

        A positive value certifies the cost is strongly increasing in every
        real injection over the instance box.  Quadratic terms are monotone
        in Re(s), so the infimum sits at the lower bound; a bus with qp > 0
        and no lower bound makes the constant ``-inf``.
        """
        return float(np.min(_slope_floor(self.cp, self.qp, net.s_min.real)))

    def imag_nondecrease_constant(self, net: RadialNetwork) -> float:
        return float(np.min(_slope_floor(self.cq, self.qq, net.s_min.imag)))


def _slope_floor(lin: np.ndarray, quad: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Infimum of ``lin + 2 * quad * p`` over ``p >= lo`` for ``quad >= 0``.
    The bound enters only where ``quad > 0``: ``0 * -inf`` would be NaN, and
    a NaN constant compares false against every threshold."""
    return lin + 2.0 * quad * np.where(quad > 0, lo, 0.0)


@dataclass(frozen=True)
class PfResiduals:
    """Signed DistFlow residuals per line and per bus.

    ``ohm`` is the voltage-drop equation residual, ``cone_eq`` the product
    form ``v_tail * ell - |S|^2`` (positive means cone slack), ``balance``
    the complex injection balance residual.
    """

    ohm: np.ndarray
    cone_eq: np.ndarray
    balance: np.ndarray


def pf_residuals(net: RadialNetwork, x: OperatingPoint) -> PfResiduals:
    x._check_net(net)
    z, t, h = net.z, net.tail_idx, net.head_idx
    v_tail = x.v[..., t]
    ohm = v_tail - x.v[..., h] - 2.0 * (z * np.conj(x.S)).real + np.abs(z) ** 2 * x.ell
    cone_eq = v_tail * x.ell - np.abs(x.S) ** 2
    balance = x.s.astype(complex)
    np.add.at(balance, (..., t), -x.S)
    np.add.at(balance, (..., h), x.S - z * x.ell)
    return PfResiduals(ohm=ohm, cone_eq=cone_eq, balance=balance)


def _worst(*violations: np.ndarray) -> np.ndarray:
    """Largest entry along the last axis over all arrays, and at least 0."""
    return np.max(np.concatenate(violations, axis=-1), axis=-1, initial=0.0)


def set_residuals(net: RadialNetwork, x: OperatingPoint,
                  res: PfResiduals) -> tuple[np.ndarray, np.ndarray]:
    """Worst violations of the relaxed and of the original feasible set,
    from the point's DistFlow residuals ``res``.  The relaxed set keeps the
    affine DistFlow equations, the boxes and the one-sided cone inequality
    |S|^2 <= v * ell; the feasible set holds the cone at equality."""
    relaxed = _worst(
        np.abs(res.ohm), np.abs(res.balance), -res.cone_eq,
        net.v_min - x.v, x.v - net.v_max, x.ell - net.l_max,
        net.s_min.real - x.s.real, net.s_min.imag - x.s.imag,
        x.s.real - net.s_max.real, x.s.imag - net.s_max.imag)
    return relaxed, np.maximum(relaxed, _worst(np.abs(res.cone_eq)))


def residual_Xhat(net: RadialNetwork, x: OperatingPoint) -> np.ndarray:
    """Worst violation of the relaxed set (:func:`set_residuals`)."""
    return set_residuals(net, x, pf_residuals(net, x))[0]


def residual_X(net: RadialNetwork, x: OperatingPoint) -> np.ndarray:
    """Worst violation of the original feasible set (:func:`set_residuals`)."""
    return set_residuals(net, x, pf_residuals(net, x))[1]


def empty_box(net: RadialNetwork) -> str:
    """Name the first trivially empty variable box, or return ``""``."""
    for b, lo, hi in zip(net.buses, net.s_min, net.s_max):
        if b.v_min > b.v_max:
            return f"bus {b.id}: v_min {b.v_min:.6g} > v_max {b.v_max:.6g}"
        if lo.real > hi.real or lo.imag > hi.imag:
            return f"bus {b.id}: s_min > s_max"
    for ln in net.lines:
        if ln.l_max < 0:
            return f"line {ln.tail}->{ln.head}: l_max {ln.l_max:.6g} < 0"
    return ""


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool | None  # None means deferred to another module
    witness: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def structural_ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if c.passed is False]

    def as_dict(self) -> dict[str, Any]:
        return {
            c.name: {"passed": c.passed, "witness": c.witness} for c in self.checks
        }


def validate_assumptions(net: RadialNetwork, cost: OpfCost) -> AssumptionReport:
    """Check the structural assumptions; feasibility is deferred to the solver."""
    checks: list[AssumptionCheck] = []

    checks.append(AssumptionCheck("tree", not net.tree[1], net.tree[1]))

    bad = [ln for ln in net.lines if not (ln.z.real > 0 and ln.z.imag > 0)]
    checks.append(AssumptionCheck(
        "impedance_positive", not bad,
        "" if not bad else f"line {bad[0].tail}->{bad[0].head} has z={bad[0].z}"))

    box_bad = ""
    for b, smin in zip(net.buses, net.s_min):
        if b.v_min <= 0:
            box_bad = f"bus {b.id}: v_min={b.v_min} must be positive"
        elif b.v_min > b.v_max:
            box_bad = f"bus {b.id}: v_min > v_max"
        elif smin.real > b.s_max.real or smin.imag > b.s_max.imag:
            box_bad = f"bus {b.id}: s_min > s_max"
        if box_bad:
            break
    checks.append(AssumptionCheck("boxes_ordered", not box_bad, box_bad))

    if len(cost.cp) != net.n_bus:
        checks.append(AssumptionCheck(
            "cost_monotone", False,
            f"cost has {len(cost.cp)} buses, network has {net.n_bus}"))
    else:
        witness = ""
        if np.any(cost.qp < 0) or np.any(cost.qq < 0):
            j = int(np.argmin(np.minimum(cost.qp, cost.qq)))
            witness = f"bus {net.buses[j].id}: negative quadratic coefficient"
        else:
            c = cost.strong_increase_constant(net)
            cphi = cost.imag_nondecrease_constant(net)
            if c <= 0:
                j = int(np.argmin(_slope_floor(cost.cp, cost.qp, net.s_min.real)))
                witness = (f"bus {net.buses[j].id}: cost not strongly increasing in "
                           f"Re(s) over the injection box (constant {c:.3g})")
            elif cphi < 0:
                j = int(np.argmin(_slope_floor(cost.cq, cost.qq, net.s_min.imag)))
                witness = (f"bus {net.buses[j].id}: cost decreasing in Im(s) "
                           f"over the injection box")
        checks.append(AssumptionCheck("cost_monotone", not witness, witness))

    checks.append(AssumptionCheck(
        "feasible", None, "deferred: checked by the relaxation solver"))

    witness = ""
    if not bad:  # meaningless if impedances are degenerate
        y2 = 1.0 / np.abs(net.z) ** 2
        limit = net.v_min[net.tail_idx] * y2
        viol = net.l_max - limit
        if np.any(viol > 0):
            e = int(np.argmax(viol))
            ln = net.lines[e]
            witness = (f"line {ln.tail}->{ln.head}: l_max={ln.l_max:.6g} exceeds "
                       f"v_min*|y|^2={limit[e]:.6g}")
    checks.append(AssumptionCheck("current_limit", not witness, witness))

    return AssumptionReport(checks=tuple(checks))


def distflow(net: RadialNetwork, root_v, P, Q, S2, extra=None, floor=0.0):
    """Forward DistFlow recursion (Baran & Wu, 1989) down ``net.line_table``.

    Per line ``k``, ``P[k]``, ``Q[k]`` (sending-end power), ``S2[k]`` (its
    squared magnitude) and the optional ``extra[k]`` (current slack) are
    scalars or stacks shaped like ``root_v``.  Returns bus-major ``v``,
    line-major ``ell`` and ``low``, true where a tail voltage is at most
    ``floor``; below a nonpositive one the values mean nothing (no warning).
    """
    v = np.empty((net.n_bus, *np.shape(root_v)))
    ell = np.empty((net.n_line, *v.shape[1:]))
    v[net.bus_index[net.root]] = root_v
    low = np.False_
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k, t, h, zr, zi, z2 in net.line_table:
            vt = v[t]
            low = low | (vt <= floor)
            ell[k] = ell_k = S2[k] / vt if extra is None else S2[k] / vt + extra[k]
            v[h] = vt - 2.0 * (zr * P[k] + zi * Q[k]) + z2 * ell_k
    return v, ell, low


def forward_point(
    net: RadialNetwork,
    root_v: float,
    line_S: Sequence[complex] | np.ndarray,
    extra_ell: Sequence[float] | np.ndarray | None = None,
) -> OperatingPoint:
    """Build a point satisfying the affine DistFlow equations exactly.

    Fixes the root voltage, takes the given sending-end powers, sets each
    line's current to ``|S|^2 / v_tail`` plus the optional ``extra_ell``
    slack, then derives downstream voltages and bus injections by forward
    substitution.  With ``extra_ell`` zero the point satisfies the full
    DistFlow system; positive slack yields a cone-interior relaxed point.
    """
    S = np.asarray(line_S, dtype=complex)
    if len(S) != net.n_line:
        raise ValueError(f"need {net.n_line} line powers, got {len(S)}")
    extra = np.zeros(net.n_line) if extra_ell is None else np.asarray(extra_ell, dtype=float)
    if len(extra) != net.n_line:
        raise ValueError("extra_ell length mismatch")
    if np.any(extra < 0):
        raise ValueError("extra_ell must be nonnegative")

    # scalar abs: numpy's array abs of complex128 can differ in the last bit
    v, ell, low = distflow(net, root_v, S.real.tolist(), S.imag.tolist(),
                           [abs(x) ** 2 for x in S.tolist()], extra.tolist())
    if low:  # root first, the first such tail is computed exactly
        t = next(t for _, t, *_ in net.line_table if v[t] <= 0)
        raise ValueError(f"nonpositive voltage at bus {net.buses[t].id} "
                         "during forward substitution")

    s = np.zeros(net.n_bus, dtype=complex)
    np.add.at(s, net.tail_idx, S)
    np.add.at(s, net.head_idx, -(S - net.z * ell))
    return OperatingPoint(s=s, v=v, ell=ell, S=S)


def sample_relaxed_points(
    net: RadialNetwork,
    cost: OpfCost,
    count: int,
    rng: np.random.Generator,
    tol: float = FEAS_TOL,
) -> list[OperatingPoint]:
    """Draw points of the relaxed set with strict cone slack on every line.

    Uses forward substitution with inflated currents (slack drawn from
    ``SAMPLE_SLACK_RANGE``), shrinking the draw scale until the point clears
    every box of the instance.  The relaxed set does not depend on ``cost``.
    """
    root_i = net.bus_index[net.root]
    root_v = 0.5 * (net.v_min[root_i] + net.v_max[root_i])
    points: list[OperatingPoint] = []
    for _ in range(count):
        scale = 1.0
        for attempt in range(60):
            S = scale * (rng.normal(0, 0.3, net.n_line)
                         + 1j * rng.normal(0, 0.3, net.n_line))
            slack = rng.uniform(*SAMPLE_SLACK_RANGE, net.n_line) * scale
            try:
                x = forward_point(net, root_v, S, extra_ell=slack)
            except ValueError:
                scale *= 0.6
                continue
            if residual_Xhat(net, x) <= tol and np.min(slack) > 10 * tol:
                points.append(x)
                break
            if attempt % 5 == 4:
                scale *= 0.6
        else:
            raise PreconditionError(
                "could not sample a relaxed point inside the instance boxes")
    return points


# --- flat-vector view -------------------------------------------------------
#
# Certify and compose work on plain complex vectors; the layout is bus-major
# for s and v, then line-major for ell and S.

def pack_point(x: OperatingPoint) -> np.ndarray:
    return np.concatenate([
        x.s,
        x.v.astype(complex),
        x.ell.astype(complex),
        x.S,
    ])


def unpack_point(net: RadialNetwork, vec: np.ndarray) -> OperatingPoint:
    """Operating point (or stack of them) of flat vectors along the last axis."""
    n, e = net.n_bus, net.n_line
    if vec.shape[-1] != 2 * n + 2 * e:
        raise ValueError(
            f"flat vector has length {vec.shape[-1]}, expected {2 * n + 2 * e}")
    return OperatingPoint(
        s=vec[..., :n],
        v=vec[..., n:2 * n].real,
        ell=vec[..., 2 * n:2 * n + e].real,
        S=vec[..., 2 * n + e:],
    )


def coordinate_labels(net: RadialNetwork) -> list[str]:
    """Column labels for trace CSV export (bus-major s then v, line-major
    ell then S; real parts before imaginary)."""
    def re_im(names) -> list[str]:
        return [f"{name}_{part}" for name in names for part in ("re", "im")]

    return (re_im(f"s{b.id}" for b in net.buses) + [f"v{b.id}" for b in net.buses]
            + [f"ell_{ln.tail}_{ln.head}" for ln in net.lines]
            + re_im(f"S_{ln.tail}_{ln.head}" for ln in net.lines))


def coordinate_rows(net: RadialNetwork, vec: np.ndarray) -> np.ndarray:
    """Real values in :func:`coordinate_labels` order, one row per flat
    vector along the last axis of ``vec``."""
    x = unpack_point(net, vec)

    def re_im(z: np.ndarray) -> np.ndarray:
        return np.stack([z.real, z.imag], axis=-1).reshape(*z.shape[:-1], -1)

    return np.concatenate([re_im(x.s), x.v, x.ell, re_im(x.S)], axis=-1)


# --- case file schema -------------------------------------------------------

def _require(obj: Any, key: str, context: str) -> Any:
    if not isinstance(obj, dict):
        raise ValueError(f"{context}: expected an object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{context}: missing field {key!r}")
    return obj[key]


def _require_list(obj: Any, key: str) -> list:
    value = _require(obj, key, "case")
    if not isinstance(value, list) or not value:
        raise ValueError(f"{key}: expected a non-empty list, got {value!r}")
    return value


def case_from_dict(data: dict) -> tuple[RadialNetwork, OpfCost]:
    buses = []
    for i, raw in enumerate(_require_list(data, "buses")):
        ctx = f"buses[{i}]"
        s_min_raw = _require(raw, "s_min", ctx)
        buses.append(Bus(
            id=str(_require(raw, "id", ctx)),
            v_min=finite_number(_require(raw, "v_min", ctx), f"{ctx}.v_min"),
            v_max=finite_number(_require(raw, "v_max", ctx), f"{ctx}.v_max"),
            s_min=None if s_min_raw is None else complex_pair(s_min_raw, f"{ctx}.s_min"),
            s_max=complex_pair(_require(raw, "s_max", ctx), f"{ctx}.s_max"),
        ))
    lines = []
    for i, raw in enumerate(_require_list(data, "lines")):
        ctx = f"lines[{i}]"
        lines.append(Line(
            tail=str(_require(raw, "from", ctx)),
            head=str(_require(raw, "to", ctx)),
            z=complex_pair(_require(raw, "z", ctx), f"{ctx}.z"),
            l_max=finite_number(_require(raw, "l_max", ctx), f"{ctx}.l_max"),
        ))
    net = RadialNetwork(buses=tuple(buses), lines=tuple(lines),
                        root=str(_require(data, "root", "case")))
    raw_cost = _require(data, "cost", "case")
    cost = OpfCost(**{
        key: np.asarray(finite_numbers(_require(raw_cost, key, "cost"), f"cost.{key}"))
        for key in ("cp", "cq", "qp", "qq")})
    if len(cost.cp) != net.n_bus:
        raise ValueError(
            f"cost.cp: {len(cost.cp)} entries for {net.n_bus} buses")
    return net, cost


def case_to_dict(net: RadialNetwork, cost: OpfCost) -> dict:
    return {
        "buses": [
            {
                "id": b.id,
                "v_min": b.v_min,
                "v_max": b.v_max,
                "s_min": None if b.s_min is None else [b.s_min.real, b.s_min.imag],
                "s_max": [b.s_max.real, b.s_max.imag],
            }
            for b in net.buses
        ],
        "lines": [
            {"from": ln.tail, "to": ln.head, "z": [ln.z.real, ln.z.imag],
             "l_max": ln.l_max}
            for ln in net.lines
        ],
        "root": net.root,
        "cost": {
            "cp": list(cost.cp), "cq": list(cost.cq),
            "qp": list(cost.qp), "qq": list(cost.qq),
        },
    }


def load_case(path: str) -> tuple[RadialNetwork, OpfCost]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return case_from_dict(data)
