"""Tests for the restoration machinery: Lyapunov value, gap roots, path."""

import numpy as np
import pytest

from gen import random_radial_network
from relaxcert.certify import check_c1_c3
from relaxcert.core import FEAS_TOL, PathTrace, PreconditionError, verify_path
from relaxcert.distflow import (
    Bus,
    Line,
    OperatingPoint,
    OpfCost,
    RadialNetwork,
    forward_point,
    pack_point,
    pf_residuals,
    residual_X,
    residual_Xhat,
    unpack_point,
)
from relaxcert.restore import (
    cprime_margin,
    cprime_reference,
    edge_deltas,
    lyapunov_V,
    opf_certified_problem,
    restoration_path,
    write_restoration_csv,
)


def line_net(z=0.02 + 0.02j, l_max=5.0):
    buses = (
        Bus(id="0", v_min=0.9, v_max=1.1, s_min=None, s_max=complex(10, 10)),
        Bus(id="1", v_min=0.9, v_max=1.1, s_min=None, s_max=complex(10, 10)),
    )
    return RadialNetwork(buses=buses,
                         lines=(Line(tail="0", head="1", z=z, l_max=l_max),),
                         root="0")


def linear_cost(n, cp=1.0, cq=1.0):
    return OpfCost(cp=np.full(n, cp), cq=np.full(n, cq),
                   qp=np.zeros(n), qq=np.zeros(n))


class TestLyapunov:
    def test_zero_on_cone_tight_points(self):
        net = line_net()
        x = forward_point(net, 1.0, [0.4 + 0.2j])
        assert lyapunov_V(net, x) <= 1e-14

    def test_single_line_value(self):
        net = line_net()
        x = OperatingPoint(s=np.zeros(2, complex), v=np.array([1.0, 1.0]),
                           ell=np.array([4.0]), S=np.zeros(1, complex))
        assert lyapunov_V(net, x) == pytest.approx(4.0)

    def test_additive_over_lines(self):
        buses = tuple(Bus(id=str(i), v_min=0.9, v_max=1.1, s_min=None,
                          s_max=complex(10, 10)) for i in range(3))
        lines = (Line(tail="0", head="1", z=0.01 + 0.01j, l_max=9.0),
                 Line(tail="1", head="2", z=0.01 + 0.01j, l_max=9.0))
        net = RadialNetwork(buses=buses, lines=lines, root="0")
        x = OperatingPoint(s=np.zeros(3, complex), v=np.ones(3),
                           ell=np.array([0.25, 0.5]), S=np.zeros(2, complex))
        assert lyapunov_V(net, x) == pytest.approx(0.75)

    def test_negative_slack_rejected(self):
        # the relaxed residual judges a cone violation; the Lyapunov value
        # only measures, counting the violated line as zero slack
        net = line_net()
        x = OperatingPoint(s=np.zeros(2, complex), v=np.array([1.0, 1.0]),
                           ell=np.array([0.0]), S=np.array([1.0 + 0j]))
        assert residual_Xhat(net, x) > FEAS_TOL
        assert lyapunov_V(net, x) == 0.0


class TestEdgeDelta:
    def test_tight_line_gives_zero(self):
        net = line_net()
        x = forward_point(net, 1.0, [0.4 + 0.2j])
        delta, in_M = edge_deltas(net, x)
        assert delta[0] == 0.0 and not in_M[0]

    def test_golden_ratio_root(self):
        # coefficients a2=1, a1=1, a0=-1 -> delta = (sqrt(5)-1)/2
        # realized with z: |z|^2/4 = 1, v=1, S=0, ell=1
        z = complex(np.sqrt(2), np.sqrt(2))  # |z|^2 = 4
        buses = (Bus(id="0", v_min=0.5, v_max=2.0, s_min=None, s_max=complex(10, 10)),
                 Bus(id="1", v_min=0.5, v_max=2.0, s_min=None, s_max=complex(10, 10)))
        net = RadialNetwork(buses=buses,
                            lines=(Line(tail="0", head="1", z=z, l_max=1.0),),
                            root="0")
        x = OperatingPoint(s=np.zeros(2, complex), v=np.array([1.0, 1.0]),
                           ell=np.array([1.0]), S=np.zeros(1, complex))
        delta, in_M = edge_deltas(net, x)
        assert in_M[0]
        assert delta[0] == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-12)

    def test_pure_quadratic_root(self):
        # a2=1, a1=0, a0=-4 -> delta = 2; force a1 = 0 via S with
        # Re(z S^H) = v.  z = sqrt(2)(1+i): Re(z S^H) = sqrt(2)(Re S + Im S).
        z = complex(np.sqrt(2), np.sqrt(2))
        buses = (Bus(id="0", v_min=0.5, v_max=2.0, s_min=None, s_max=complex(10, 10)),
                 Bus(id="1", v_min=0.5, v_max=2.0, s_min=None, s_max=complex(10, 10)))
        net = RadialNetwork(buses=buses,
                            lines=(Line(tail="0", head="1", z=z, l_max=9.0),),
                            root="0")
        s_re = 1.0 / (2 * np.sqrt(2))
        S = complex(s_re, s_re)  # Re(z S^H) = 1 = v
        ell = (abs(S) ** 2 + 4.0) / 1.0  # slack 4
        x = OperatingPoint(s=np.zeros(2, complex), v=np.array([1.0, 1.0]),
                           ell=np.array([ell]), S=np.array([S]))
        delta, _ = edge_deltas(net, x)
        assert delta[0] == pytest.approx(2.0, abs=1e-12)

    def test_root_closes_cone_gap_identity(self):
        # |S - (d/2) z|^2 - v (ell - d) == phi(d) == 0 at the root
        rng = np.random.default_rng(3)
        net, _ = random_radial_network(rng, n_bus=6)
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        x = forward_point(net, 1.0, S, extra_ell=rng.uniform(0.05, 0.4, net.n_line))
        delta, in_M = edge_deltas(net, x)
        assert np.all(in_M)
        for e in range(net.n_line):
            d = delta[e]
            lhs = abs(x.S[e] - 0.5 * d * net.z[e]) ** 2
            rhs = x.v[net.tail_idx[e]] * (x.ell[e] - d)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestRestorationPath:
    def test_already_feasible_is_rejected(self):
        # the constructor judges nothing; the batch membership test refuses
        # a feasible sample, and the verifier fails the constant path it
        # would build on the strict cost drop
        net = line_net()
        cost = linear_cost(2)
        x = forward_point(net, 1.0, [0.4 + 0.2j])
        problem = opf_certified_problem(net, cost)
        with pytest.raises(PreconditionError, match="relaxed-minus-feasible"):
            check_c1_c3(problem, [pack_point(x)])

        trace = restoration_path(net, x)
        np.testing.assert_array_equal(trace.points, np.tile(pack_point(x), (len(trace), 1)))
        *_, (drop, witness) = verify_path(problem.handle, pack_point(x),
                                          trace).conditions()
        assert drop < 0
        assert witness.startswith("cost did not strictly decrease")

    def test_two_bus_endpoint_and_decrease(self):
        net = line_net(z=0.02 + 0.02j)
        cost = linear_cost(2)
        x = forward_point(net, 1.0, [0.5 + 0.2j], extra_ell=[0.3])
        trace = restoration_path(net, x)
        assert trace.segments == 1

        end = unpack_point(net, trace.end)
        cone = pf_residuals(net, end).cone_eq
        assert abs(cone[0]) <= 1e-10
        assert residual_X(net, end) <= 1e-8

        f0 = cost.value(unpack_point(net, trace.start).s)
        f1 = cost.value(end.s)
        assert f1 < f0
        assert lyapunov_V(net, end) <= 1e-10

    def test_sampled_values_strictly_decrease(self):
        net = line_net(z=0.02 + 0.02j)
        cost = linear_cost(2)
        x = forward_point(net, 1.0, [0.5 + 0.2j], extra_ell=[0.3])
        trace = restoration_path(net, x, samples=101)
        f = [cost.value(unpack_point(net, p).s) for p in trace.points]
        V = [lyapunov_V(net, unpack_point(net, p)) for p in trace.points]
        assert np.all(np.diff(f) < 0)
        assert np.all(np.diff(V) < 0)

    def test_voltage_fixed_and_balance_preserved(self):
        rng = np.random.default_rng(8)
        net, cost = random_radial_network(rng, n_bus=6)
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        x = forward_point(net, 1.0, S, extra_ell=rng.uniform(0.05, 0.3, net.n_line))
        trace = restoration_path(net, x)
        for p in trace.points:
            xi = unpack_point(net, p)
            np.testing.assert_allclose(xi.v, x.v, atol=1e-14)
            res = pf_residuals(net, xi)
            assert np.max(np.abs(res.ohm)) <= 1e-10
            assert np.max(np.abs(res.balance)) <= 1e-10

    def test_injection_components_nonincreasing(self):
        rng = np.random.default_rng(9)
        net, cost = random_radial_network(rng, n_bus=5)
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        x = forward_point(net, 1.0, S, extra_ell=rng.uniform(0.05, 0.3, net.n_line))
        trace = restoration_path(net, x)
        s_samples = np.array([unpack_point(net, p).s for p in trace.points])
        assert np.all(np.diff(s_samples.real, axis=0) <= 1e-14)
        assert np.all(np.diff(s_samples.imag, axis=0) <= 1e-14)
        # every bus touches a slack line here, so decrease is strict
        assert np.all(s_samples.real[-1] < s_samples.real[0])
        assert np.all(s_samples.imag[-1] < s_samples.imag[0])

    def test_structural_failure_rejected_by_the_problem(self):
        net = line_net(z=-0.02 + 0.02j)
        with pytest.raises(PreconditionError,
                           match="structural assumptions: impedance_positive"):
            opf_certified_problem(net, linear_cost(2))

    def test_endpoint_inside_certified_box(self):
        rng = np.random.default_rng(10)
        net, cost = random_radial_network(rng, n_bus=4)
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        x = forward_point(net, 1.0, S, extra_ell=rng.uniform(0.05, 0.3, net.n_line))
        trace = restoration_path(net, x)
        lo, hi = opf_certified_problem(net, cost).box
        assert np.all(np.isfinite(lo.view(float)))
        end = trace.end
        assert np.all(lo.real <= end.real) and np.all(end.real <= hi.real)
        assert np.all(lo.imag <= end.imag) and np.all(end.imag <= hi.imag)


class TestCprimeMargin:
    def test_reference_constant(self):
        net = line_net(z=0.02 + 0.02j)  # ||z||_m = 0.04
        cost = linear_cost(2)
        assert cprime_reference(net, cost) == pytest.approx(1 / 26.5, abs=1e-12)

    def test_margin_dominates_reference(self):
        net = line_net(z=0.02 + 0.02j)
        cost = linear_cost(2)
        x = forward_point(net, 1.0, [0.5 + 0.2j], extra_ell=[0.3])
        trace = restoration_path(net, x)
        res = cprime_margin(net, cost, trace)
        assert res.margin > 0
        assert res.margin >= cprime_reference(net, cost) - 1e-9

    def test_constant_trace_is_infinite_with_note(self):
        net = line_net()
        cost = linear_cost(2)
        x = forward_point(net, 1.0, [0.4 + 0.2j])
        pts = np.tile(np.concatenate([x.s, x.v.astype(complex),
                                      x.ell.astype(complex), x.S]), (3, 1))
        tr = PathTrace(params=np.array([0.0, 0.5, 1.0]), points=pts, knots=[0, 2])
        res = cprime_margin(net, cost, tr)
        assert res.margin == np.inf
        assert "constant" in res.note

    def test_margin_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            net, cost = random_radial_network(rng, n_bus=int(rng.integers(3, 7)))
            S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
            x = forward_point(net, 1.0, S,
                              extra_ell=rng.uniform(0.05, 0.4, net.n_line))
            trace = restoration_path(net, x)
            res = cprime_margin(net, cost, trace)
            assert res.margin >= 0.5 * cprime_reference(net, cost)


def all_pairs_cprime(net, cost, trace):
    """Reference c' margin: the minimum of cost drop over m-norm
    displacement over every sample pair i < j, skipping zero displacements."""
    pts = trace.points
    f_vals = cost.value(unpack_point(net, pts).s)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sum(np.abs(diff.real), axis=2) + np.sum(np.abs(diff.imag), axis=2)
    drop = f_vals[:, None] - f_vals[None, :]
    iu, ju = np.triu_indices(len(pts), k=1)
    d = dist[iu, ju]
    mask = d > 0
    return float(np.min(drop[iu, ju][mask] / d[mask])) if np.any(mask) else np.inf


class TestCprimeAgainstAllPairs:
    def test_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            net, cost = random_radial_network(rng, n_bus=int(rng.integers(3, 7)))
            S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
            x = forward_point(net, 1.0, S,
                              extra_ell=rng.uniform(0.05, 0.4, net.n_line))
            trace = restoration_path(net, x)
            margin = cprime_margin(net, cost, trace).margin
            assert margin == pytest.approx(all_pairs_cprime(net, cost, trace),
                                           rel=1e-12, abs=0)

    def test_quadratic_cost(self):
        rng = np.random.default_rng(3)
        net, cost = random_radial_network(rng, n_bus=5, finite_s_box=True)
        # steep enough to stay increasing down to the finite lower boxes
        quad = OpfCost(cp=cost.cp + 2.0, cq=cost.cq + 1.0,
                       qp=np.full(net.n_bus, 0.15), qq=np.full(net.n_bus, 0.08))
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        x = forward_point(net, 1.0, S, extra_ell=rng.uniform(0.05, 0.4, net.n_line))
        trace = restoration_path(net, x)
        margin = cprime_margin(net, quad, trace).margin
        assert margin == pytest.approx(all_pairs_cprime(net, quad, trace),
                                       rel=1e-12, abs=0)

    def test_two_segment_trace(self):
        net = line_net(z=0.02 + 0.02j)
        cost = linear_cost(2)
        x = forward_point(net, 1.0, [0.5 + 0.2j], extra_ell=[0.3])
        start = np.concatenate([x.s, x.v.astype(complex), x.ell.astype(complex), x.S])
        # one step that buys a small cost drop with a long move of S, then a
        # straight piece that lowers Re s_1 alone
        bend = start.copy()
        bend[0] -= 0.1
        bend[-1] += 0.3
        end = bend.copy()
        end[1] -= 0.5
        tail = bend + np.linspace(0.0, 1.0, 21)[1:, None] * (end - bend)
        trace = PathTrace(params=np.linspace(0.0, 1.0, 22),
                          points=np.concatenate([[start, bend], tail]),
                          knots=[0, 1, 21])
        margin = cprime_margin(net, cost, trace).margin
        assert margin == pytest.approx(0.25, rel=1e-12)
        assert margin == pytest.approx(all_pairs_cprime(net, cost, trace),
                                       rel=1e-12, abs=0)


def test_trace_csv_export(tmp_path):
    net = line_net(z=0.02 + 0.02j)
    cost = linear_cost(2)
    x = forward_point(net, 1.0, [0.5 + 0.2j], extra_ell=[0.3])
    trace = restoration_path(net, x, samples=11)
    out = tmp_path / "trace.csv"
    write_restoration_csv(str(out), net, cost, trace)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,f,V,s0_re,s0_im,s1_re,s1_im,v0,v1,ell_0_1,")
    assert len(lines) == 12
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[2] > last[2]  # V decreases
    assert first[1] > last[1]  # f decreases
