"""Feasibility restoration for relaxed radial-OPF points.

The cone slack ``v_tail * ell - |S|^2``, summed over lines, measures how far
a relaxed point sits from the DistFlow manifold and serves as the Lyapunov
function.  Each slack line owns a quadratic whose unique positive root gives
the current reduction that closes that line's cone gap; moving every line
simultaneously along those roots is a single linear path that preserves the
affine DistFlow equations, strictly lowers both the cost and the Lyapunov
value, and lands on the feasible set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from relaxcert.compose import CertifiedProblem
from relaxcert.core import (
    SEGMENT_SAMPLES,
    CertificateViolationError,
    HandleValues,
    PathTrace,
    PreconditionError,
    ProblemHandle,
    write_trace_csv,
)
from relaxcert.distflow import (
    OperatingPoint,
    OpfCost,
    PfResiduals,
    RadialNetwork,
    coordinate_labels,
    coordinate_rows,
    pack_point,
    pf_residuals,
    set_residuals,
    unpack_point,
    validate_assumptions,
)

# A line is counted as strictly slack when its cone gap exceeds this times
# max(1, v*ell); scale-aware so large-current lines are not misclassified.
SLACK_THRESHOLD = 1e-9


def lyapunov_V(net: RadialNetwork, x: OperatingPoint) -> np.ndarray:
    """Total cone slack sum(max(v_tail*ell - |S|^2, 0)) over lines; zero
    exactly on DistFlow-feasible points of the relaxed set.  A measure of
    any point: a violated cone counts as zero slack here, and
    :func:`~relaxcert.distflow.residual_Xhat` is its judge."""
    return _slack_sum(pf_residuals(net, x))


def _slack_sum(res: PfResiduals) -> np.ndarray:
    return np.sum(np.maximum(res.cone_eq, 0.0), axis=-1)


def _phi_coefficients(net: RadialNetwork, x: OperatingPoint):
    """Quadratic coefficients (a2, a1, a0) of each line's gap polynomial."""
    z = net.z
    a2 = np.abs(z) ** 2 / 4.0
    a1 = x.v[net.tail_idx] - (z * np.conj(x.S)).real
    a0 = np.abs(x.S) ** 2 - x.v[net.tail_idx] * x.ell
    return a2, a1, a0


def edge_deltas(net: RadialNetwork, x: OperatingPoint) -> tuple[np.ndarray, np.ndarray]:
    """Positive root of every slack line's quadratic (0 for tight lines).

    Returns ``(delta, in_M)`` arrays.  Uses the root form
    ``2|a0| / (a1 + sqrt(a1^2 + 4 a2 |a0|))`` which is cancellation-free when
    the constant term is tiny.
    """
    a2, a1, a0 = _phi_coefficients(net, x)
    slack = -a0
    scale = np.maximum(1.0, x.v[net.tail_idx] * x.ell)
    in_M = slack > SLACK_THRESHOLD * scale

    if np.any(a1[in_M] < -1e-12 * np.maximum(1.0, x.v[net.tail_idx][in_M])):
        e = int(np.flatnonzero(in_M)[np.argmin(a1[in_M])])
        ln = net.lines[e]
        raise CertificateViolationError(
            f"line {ln.tail}->{ln.head}: v_tail - Re(z S^H) = {a1[e]:.3g} < 0; "
            "the current-limit assumption does not hold at this point")

    delta = np.zeros(net.n_line)
    disc = np.sqrt(a1[in_M] ** 2 + 4.0 * a2[in_M] * slack[in_M])
    delta[in_M] = 2.0 * slack[in_M] / (a1[in_M] + disc)
    return delta, in_M


def _path_rows(net: RadialNetwork, x: OperatingPoint,
               delta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The restoration path's flat samples as a function of parameters
    ``ts``, a new ``(len(ts), d)`` array each call.

    A row is ``x - t * w * move``: the injections give up half the pull of
    the impedance-weighted roots on their incident lines, the currents the
    roots, the line powers half of ``z * delta``, and the voltages nothing.
    The flat start, the move and the weights ``w`` (1/2 or 1) are made once
    here; ``t * w`` is exact, so every row has the bits of the per-block
    form ``x.s - 0.5 * t * pull``, ``x.ell - t * delta`` and so on.
    """
    zd = net.z * delta
    pull = np.zeros(net.n_bus, dtype=complex)
    np.add.at(pull, net.tail_idx, zd)
    np.add.at(pull, net.head_idx, zd)
    start = pack_point(x)
    move = np.concatenate([pull, np.zeros(net.n_bus), delta, zd])
    weight = np.repeat([0.5, 0.5, 1.0, 0.5], [net.n_bus, net.n_bus, net.n_line, net.n_line])

    def rows(ts: np.ndarray) -> np.ndarray:
        out = np.multiply(ts[:, None], weight, out=np.empty((len(ts), len(start)), complex))
        np.multiply(out, move, out=out)
        return np.subtract(start, out, out=out)

    return rows


def restoration_path(net: RadialNetwork, x: OperatingPoint,
                     samples: int = SEGMENT_SAMPLES) -> PathTrace:
    """Linear path from a relaxed infeasible point onto the feasible set.

    Per line, the current drops by the gap root and the sending-end power by
    half the impedance times the root; the affected bus injections absorb
    the difference so the affine DistFlow equations hold along the way.
    Voltages never move.  The trace is one generated segment: it keeps the
    start and the move, not its samples, and makes rows on demand
    (:func:`_path_rows`).  Nothing is judged here: the caller has tested
    that ``x`` is relaxed-feasible and not feasible (``check_c1_c3`` for
    sampled points, ``relaxcert opf`` for the solver optimum), and
    :func:`~relaxcert.core.verify_path` judges the path.  Only the
    current-limit guard that the roots need (:func:`edge_deltas`) raises.
    """
    delta, _ = edge_deltas(net, x)
    ts = np.linspace(0.0, 1.0, samples)
    path_rows = _path_rows(net, x, delta)
    return PathTrace.generated(ts, [0, samples - 1], 2 * (net.n_bus + net.n_line),
                               [lambda a, b: path_rows(ts[a:b])])


@dataclass(frozen=True)
class CprimeMargin:
    """Sampled proportional-decrease margin along a restoration trace.

    ``margin`` is the minimum over adjacent sample pairs of the cost drop
    divided by the m-norm displacement (``inf`` for constant paths).  It
    measures one trace and judges nothing: the caller gives the verdict
    and reads the instance constant (:func:`cprime_reference`) once.
    """

    margin: float
    note: str = ""


def cprime_reference(net: RadialNetwork, cost: OpfCost) -> float:
    """Instance constant c / (3/2 + 1/min ||z||_m) from the cost's strong
    increase and the smallest line impedance."""
    c = cost.strong_increase_constant(net)
    zmin = min(abs(z.real) + abs(z.imag) for z in net.z)
    return c / (1.5 + 1.0 / zmin)


def cprime_margin(net: RadialNetwork, cost: OpfCost, trace: PathTrace) -> CprimeMargin:
    """Minimum cost-drop-per-m-norm-displacement over adjacent sample pairs.

    A positive margin certifies the proportional-decrease condition on the
    sampled trace; pairs with zero displacement are skipped.  This is the
    minimum over all pairs i < j.  On a straight segment displacements add,
    ``|t_i - t_j| ||d||_m``, as do cost drops, and by the mediant inequality
    a sum of drops over a sum of displacements is at least the smallest
    adjacent ratio.  On any polyline the triangle inequality makes
    displacements subadditive instead, so the minima agree whenever the
    margin is positive and are both nonpositive otherwise: the verdict
    ``margin > 0`` is the same for every trace.
    """
    pts = trace.points
    f_vals = cost.value(unpack_point(net, pts).s)

    step = np.diff(pts, axis=0)
    dist = np.sum(np.abs(step.real), axis=1) + np.sum(np.abs(step.imag), axis=1)
    drop = f_vals[:-1] - f_vals[1:]
    mask = dist > 0
    if not np.any(mask):
        return CprimeMargin(margin=np.inf, note="constant path: no line was slack")
    return CprimeMargin(margin=float(np.min(drop[mask] / dist[mask])))


def _opf_handle(net: RadialNetwork, cost: OpfCost) -> ProblemHandle:
    """Cost, residuals and Lyapunov value over (stacks of) flat vectors,
    from one unpacking and one DistFlow residual pass per stack.

    A cone violation is the relaxed residual's to judge, so the Lyapunov
    value accepts any point and a path that leaves the relaxed set is
    reported by the verifier, not raised here.
    """
    def evaluate(vec: np.ndarray) -> HandleValues:
        x = unpack_point(net, vec)
        res = pf_residuals(net, x)
        return HandleValues(cost.value(x.s), *set_residuals(net, x, res),
                            _slack_sum(res))

    return ProblemHandle(evaluate)


def opf_certified_problem(net: RadialNetwork, cost: OpfCost) -> CertifiedProblem:
    """Package an OPF instance as a certified problem over flat vectors.

    The structural assumptions the restoration rests on are checked once
    here; a failing instance raises :class:`PreconditionError` naming them.
    """
    report = validate_assumptions(net, cost)
    if not report.structural_ok:
        fails = ", ".join(c.name for c in report.failures())
        raise PreconditionError(f"instance fails structural assumptions: {fails}")
    v_pad = 0.5  # around the voltage box, floored at 0 as the handle needs
    # |S_k|^2 <= v_tail * ell_k caps every line power; by the balance
    # equation an injection is at least minus the caps of its incident
    # lines, since positive impedances make z * ell >= 0
    S_cap = np.sqrt(net.v_max[net.tail_idx] * net.l_max)
    s_floor = np.zeros(net.n_bus)
    np.add.at(s_floor, net.tail_idx, -S_cap)
    np.add.at(s_floor, net.head_idx, -S_cap)
    lo = np.concatenate([
        np.maximum(net.s_min.real, s_floor) + 1j * np.maximum(net.s_min.imag, s_floor),
        np.maximum(net.v_min - v_pad, 0.0).astype(complex),
        np.zeros(net.n_line, dtype=complex),
        -S_cap.astype(complex) * (1 + 1j),
    ])
    hi = np.concatenate([
        net.s_max.real + 1j * net.s_max.imag,
        (net.v_max + v_pad).astype(complex),
        net.l_max.astype(complex),
        S_cap.astype(complex) * (1 + 1j),
    ])
    return CertifiedProblem(
        handle=_opf_handle(net, cost),
        path_factory=lambda vec: restoration_path(net, unpack_point(net, vec)),
        segment_bound=1,
        box=(lo, hi),
        label="opf",
    )


def write_restoration_csv(path: str, net: RadialNetwork, cost: OpfCost,
                          trace: PathTrace) -> None:
    """Trace CSV: t, cost, Lyapunov value, then bus-major s and v, line-major
    ell and S with real parts before imaginary."""
    values = _opf_handle(net, cost).evaluate(trace.points)
    write_trace_csv(path, trace, coordinate_labels(net),
                    lambda pts: coordinate_rows(net, pts),
                    cost=lambda _: values.cost, lyapunov=lambda _: values.lyapunov)
