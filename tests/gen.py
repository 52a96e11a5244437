"""Shared generators and toy problems for the test suite."""

import numpy as np

import relaxcert.lrsdp as lrsdp
import relaxcert.restore as restore
from relaxcert.compose import CertifiedProblem
from relaxcert.core import SEGMENT_SAMPLES, HandleValues, PathTrace, ProblemHandle
from relaxcert.distflow import Bus, Line, OpfCost, RadialNetwork, forward_point


def random_tree_edges(n_bus, rng):
    """Random directed tree on 0..n_bus-1 rooted at 0 (parent index < child)."""
    return [(int(rng.integers(0, k)), k) for k in range(1, n_bus)]


def random_radial_network(rng, n_bus=4, pin_root_voltage=False, finite_s_box=False):
    """Radial OPF instance satisfying the structural assumptions.

    Bounds are fitted around a forward-substitution point so the instance is
    feasible with room for cone inflation; injections are unbounded below
    unless ``finite_s_box`` is set.
    """
    edges = random_tree_edges(n_bus, rng)
    n_line = len(edges)
    z = rng.uniform(0.01, 0.05, n_line) + 1j * rng.uniform(0.01, 0.05, n_line)
    S = rng.normal(0, 0.3, n_line) + 1j * rng.normal(0, 0.3, n_line)

    probe_buses = tuple(
        Bus(id=str(i), v_min=0.2, v_max=5.0, s_min=None, s_max=complex(50, 50))
        for i in range(n_bus))
    probe_lines = tuple(
        Line(tail=str(t), head=str(h), z=z[e], l_max=1e9)
        for e, (t, h) in enumerate(edges))
    probe = RadialNetwork(buses=probe_buses, lines=probe_lines, root="0")
    x = forward_point(probe, 1.0, S)

    v_lo = min(0.9, float(np.min(x.v)) - 0.05)
    v_hi = max(1.1, float(np.max(x.v)) + 0.05)
    buses = []
    for i in range(n_bus):
        if pin_root_voltage and i == 0:
            lo, hi = 1.0, 1.0
        else:
            lo, hi = v_lo, v_hi
        s_hi = complex(x.s[i].real + 2.0, x.s[i].imag + 2.0)
        s_lo = complex(x.s[i].real - 4.0, x.s[i].imag - 4.0) if finite_s_box else None
        buses.append(Bus(id=str(i), v_min=lo, v_max=hi, s_min=s_lo, s_max=s_hi))

    lines = []
    for e, (t, h) in enumerate(edges):
        cap = buses[t].v_min / abs(z[e]) ** 2  # assumption (iv) ceiling
        l_max = min(0.999 * cap, x.ell[e] + 2.0)
        lines.append(Line(tail=str(t), head=str(h), z=z[e], l_max=l_max))

    net = RadialNetwork(buses=tuple(buses), lines=tuple(lines), root="0")
    cost = OpfCost(
        cp=rng.uniform(0.5, 2.0, n_bus),
        cq=rng.uniform(0.1, 1.0, n_bus),
        qp=np.zeros(n_bus),
        qq=np.zeros(n_bus),
    )
    return net, cost


def two_bus_case(rng, pin_root=True):
    """Single-line instance; with the root voltage pinned the feasible set
    has two eliminated degrees of freedom (Re S, Im S)."""
    z = complex(rng.uniform(0.01, 0.04), rng.uniform(0.01, 0.04))
    l_cap = 0.9 / abs(z) ** 2
    l_max = min(2.0, 0.999 * l_cap)
    buses = (
        Bus(id="0", v_min=1.0 if pin_root else 0.9, v_max=1.0 if pin_root else 1.1,
            s_min=None, s_max=complex(2.0, 2.0)),
        Bus(id="1", v_min=0.9, v_max=1.1, s_min=None, s_max=complex(2.0, 2.0)),
    )
    lines = (Line(tail="0", head="1", z=z, l_max=l_max),)
    net = RadialNetwork(buses=buses, lines=lines, root="0")
    cost = OpfCost(
        cp=rng.uniform(0.5, 2.0, 2),
        cq=rng.uniform(0.1, 1.0, 2),
        qp=np.zeros(2),
        qq=np.zeros(2),
    )
    return net, cost


def random_spectraplex_instance(rng, n=3, degenerate=False):
    """Trace-one SDP instance (m=1, A_1=I, b_1=1) with symmetric cost matrix."""
    from relaxcert.lrsdp import LrsdpInstance

    if degenerate:
        C = np.eye(n)
    else:
        M = rng.normal(size=(n, n))
        C = (M + M.T) / 2
    return LrsdpInstance(C=C, A=[np.eye(n)], b=np.array([1.0]), r=1)


def random_feasible_psd(rng, n, rank=None):
    """Random trace-one PSD matrix of the requested rank."""
    rank = n if rank is None else rank
    W = rng.normal(size=(n, rank))
    X = W @ W.T
    return X / np.trace(X)


# --- interval toy primitives --------------------------------------------------
#
# Handles follow the batch contract: an (..., d) stack of points maps to
# (...) arrays of values, reducing over the last axis.

def box_residual(x):
    """Distance to the unit box with real coordinates."""
    re = x.real
    viol = np.maximum(np.max(-re, axis=-1, initial=0.0),
                      np.max(re - 1.0, axis=-1, initial=0.0))
    return np.maximum(viol, np.max(np.abs(x.imag), axis=-1, initial=0.0))


def box_handle(cost, gap, lyapunov=None):
    """Handle whose relaxed set is the unit box and whose feasible set is
    where ``gap`` vanishes in it; ``cost``, ``gap`` and ``lyapunov`` map a
    stack of points to values, and the Lyapunov value is ``gap`` unless
    given."""
    lyapunov = lyapunov or gap

    def evaluate(x):
        relaxed = box_residual(x)
        return HandleValues(cost(x), relaxed, np.maximum(relaxed, gap(x)), lyapunov(x))

    return ProblemHandle(evaluate)


def shrinking_path(x, target, samples=11):
    ts = np.linspace(0.0, 1.0, samples)
    pts = np.array([(1 - t) * x + t * target for t in ts])
    return PathTrace(params=ts, points=pts, knots=[0, samples - 1])


def threshold_primitive(cut, dim=1, label=""):
    """1-D primitive on [0,1]: feasible below ``cut``, path shrinks to 0."""
    def v(x):
        return np.maximum(0.0, x[..., 0].real - cut)

    return CertifiedProblem(
        handle=box_handle(lambda x: x[..., 0].real, v),
        path_factory=lambda x: shrinking_path(x, np.zeros(dim, complex)),
        segment_bound=1,
        box=(np.zeros(dim, complex), np.ones(dim, complex)),
        label=label or f"below-{cut}",
    )


def block_primitive(block, label=""):
    """2-D primitive whose cost, Lyapunov value and path touch one block."""
    def v(x):
        return x[..., block].real

    def path(x):
        target = x.copy()
        target[block] = 0.0
        return shrinking_path(x, target)

    return CertifiedProblem(
        handle=box_handle(lambda x: x[..., block].real, v),
        path_factory=path, segment_bound=1,
        box=(np.zeros(2, complex), np.ones(2, complex)),
        label=label or f"block{block}",
    )


def bend_restorations(monkeypatch):
    """Make every restoration path bulge up by 1 in every voltage at its
    midpoint, above ``v_max``, so its inner samples leave the relaxed set;
    the endpoints do not move."""
    straight = restore._path_rows

    def bent(net, x, delta):
        rows = straight(net, x, delta)

        def bent_rows(ts):
            pts = rows(ts)
            pts[:, net.n_bus:2 * net.n_bus] += 4.0 * (ts * (1.0 - ts))[:, None]
            return pts

        return bent_rows

    monkeypatch.setattr(restore, "_path_rows", bent)


def bend_reductions(monkeypatch):
    """Make every rank-reduction stage sag by 1 in every eigenvalue at its
    midpoint, off the PSD cone of a trace-one instance, so its inner samples
    leave the relaxed set, however many of them are made at once; the
    endpoints do not move, and neither do the probes off the sample grid
    that pick each stage's side."""
    straight = lrsdp._stage_matrices

    def bent(Sigma, Y, alpha, ts):
        ts = np.asarray(ts)
        grid = ts * (SEGMENT_SAMPLES - 1)
        sag = np.where(np.isclose(grid, np.round(grid)), 4.0 * ts * (1.0 - ts), 0.0)
        return straight(Sigma, Y, alpha, ts) - sag[:, None, None] * np.eye(len(Sigma))

    monkeypatch.setattr(lrsdp, "_stage_matrices", bent)
