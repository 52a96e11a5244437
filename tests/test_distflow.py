"""Tests for the DistFlow model, residuals and assumption validation."""

import dataclasses
import json
import re

import numpy as np
import pytest

from gen import random_radial_network
from relaxcert.core import PreconditionError
from relaxcert.distflow import (
    Bus,
    Line,
    OperatingPoint,
    OpfCost,
    RadialNetwork,
    case_from_dict,
    case_to_dict,
    coordinate_labels,
    forward_point,
    load_case,
    pack_point,
    pf_residuals,
    residual_X,
    residual_Xhat,
    sample_relaxed_points,
    unpack_point,
    validate_assumptions,
)


def tiny_line_net(z=0.01 + 0.01j, l_max=5.0, v_lo=0.9, v_hi=1.1):
    buses = (
        Bus(id="0", v_min=v_lo, v_max=v_hi, s_min=None, s_max=complex(10, 10)),
        Bus(id="1", v_min=v_lo, v_max=v_hi, s_min=None, s_max=complex(10, 10)),
    )
    lines = (Line(tail="0", head="1", z=z, l_max=l_max),)
    return RadialNetwork(buses=buses, lines=lines, root="0")


def linear_cost(n, cp=1.0, cq=1.0):
    return OpfCost(cp=np.full(n, cp), cq=np.full(n, cq), qp=np.zeros(n), qq=np.zeros(n))


class TestPfResiduals:
    def test_zero_state(self):
        net = tiny_line_net()
        x = OperatingPoint(s=np.zeros(2, complex), v=np.array([0.9, 0.9]),
                           ell=np.zeros(1), S=np.zeros(1, complex))
        res = pf_residuals(net, x)
        assert np.allclose(res.ohm, 0) and np.allclose(res.cone_eq, 0)
        assert np.allclose(res.balance, 0)

    def test_two_bus_forward_substitution_values(self):
        # independent arithmetic: z=0.01+0.01i, S=1+0.5i, v0=1
        # ell = |S|^2/v0 = 1.25
        # Re(z S^H) = Re((0.01+0.01i)(1-0.5i)) = 0.015, |z|^2 = 2e-4
        # v1 = 1 - 0.03 + 2.5e-4 = 0.97025
        # s0 = S;  s1 = -(S - z*ell) = -(0.9875 + 0.4875i)
        net = tiny_line_net()
        x = OperatingPoint(
            s=np.array([1 + 0.5j, -(0.9875 + 0.4875j)]),
            v=np.array([1.0, 0.97025]),
            ell=np.array([1.25]),
            S=np.array([1 + 0.5j]),
        )
        res = pf_residuals(net, x)
        assert abs(res.ohm[0]) <= 1e-12
        assert abs(res.cone_eq[0]) <= 1e-12
        assert np.max(np.abs(res.balance)) <= 1e-12

    def test_inflated_current_reports_positive_cone_residual(self):
        net = tiny_line_net()
        x = OperatingPoint(
            s=np.array([1 + 0.5j, -(0.9875 + 0.4875j)]),
            v=np.array([1.0, 0.97025]),
            ell=np.array([1.35]),
            S=np.array([1 + 0.5j]),
        )
        res = pf_residuals(net, x)
        assert res.cone_eq[0] == pytest.approx(0.1, abs=1e-12)

    def test_dimension_mismatch(self):
        net = tiny_line_net()
        x = OperatingPoint(s=np.zeros(3, complex), v=np.ones(3),
                           ell=np.zeros(1), S=np.zeros(1, complex))
        with pytest.raises(ValueError):
            pf_residuals(net, x)


class TestSetResiduals:
    def test_exact_point_in_both_sets(self):
        net = tiny_line_net()
        x = forward_point(net, 1.0, [0.3 + 0.1j])
        assert residual_Xhat(net, x) <= 1e-10
        assert residual_X(net, x) <= 1e-10

    def test_cone_slack_splits_the_sets(self):
        net = tiny_line_net()
        x = forward_point(net, 1.0, [0.3 + 0.1j], extra_ell=[0.3])
        assert residual_Xhat(net, x) <= 1e-10
        assert residual_X(net, x) == pytest.approx(0.3, abs=1e-9)

    def test_voltage_box_violation(self):
        net = tiny_line_net()
        x = forward_point(net, net.v_max[0] + 0.05, [0.0 + 0.0j])
        assert residual_Xhat(net, x) >= 0.05
        assert residual_X(net, x) >= 0.05

    def test_relaxed_never_exceeds_feasible(self):
        rng = np.random.default_rng(2)
        net, cost = random_radial_network(rng, n_bus=5)
        for _ in range(20):
            S = rng.normal(0, 0.4, net.n_line) + 1j * rng.normal(0, 0.4, net.n_line)
            x = forward_point(net, 1.0, S, extra_ell=rng.uniform(0, 0.4, net.n_line))
            assert residual_X(net, x) >= residual_Xhat(net, x) - 1e-12


class TestForwardSubstitution:
    def test_zero_residuals_on_random_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            net, cost = random_radial_network(rng, n_bus=int(rng.integers(3, 9)))
            S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
            x = forward_point(net, 1.0, S)
            res = pf_residuals(net, x)
            assert np.max(np.abs(res.ohm)) <= 1e-10
            assert np.max(np.abs(res.cone_eq)) <= 1e-10
            assert np.max(np.abs(res.balance)) <= 1e-10

    def test_impedance_scaling_consistency(self):
        # z -> a z, ell -> ell / a, v -> a v keeps exact points exact
        rng = np.random.default_rng(4)
        net, cost = random_radial_network(rng, n_bus=4)
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        x = forward_point(net, 1.0, S)
        for alpha in (0.5, 2.0):
            lines = tuple(
                dataclasses.replace(ln, z=alpha * ln.z, l_max=ln.l_max / alpha)
                for ln in net.lines)
            buses = tuple(
                dataclasses.replace(b, v_min=alpha * b.v_min, v_max=alpha * b.v_max)
                for b in net.buses)
            net2 = RadialNetwork(buses=buses, lines=lines, root=net.root)
            x2 = OperatingPoint(s=x.s, v=alpha * x.v, ell=x.ell / alpha, S=x.S)
            res = pf_residuals(net2, x2)
            assert np.max(np.abs(res.ohm)) <= 1e-10
            assert np.max(np.abs(res.balance)) <= 1e-10

    def test_ohm_residual_alpha_homogeneous(self):
        net = tiny_line_net()
        x = OperatingPoint(s=np.array([0.5, -0.4], complex), v=np.array([1.0, 0.98]),
                           ell=np.array([0.7]), S=np.array([0.5 + 0.1j]))
        base = pf_residuals(net, x).ohm
        for alpha in (0.5, 2.0):
            lines = tuple(dataclasses.replace(ln, z=alpha * ln.z) for ln in net.lines)
            net2 = RadialNetwork(buses=tuple(
                dataclasses.replace(b, v_min=alpha * b.v_min, v_max=alpha * b.v_max)
                for b in net.buses), lines=lines, root=net.root)
            x2 = OperatingPoint(s=x.s, v=alpha * x.v, ell=x.ell / alpha, S=x.S)
            scaled = pf_residuals(net2, x2).ohm
            np.testing.assert_allclose(scaled, alpha * base, atol=1e-12)


class TestValidateAssumptions:
    def test_valid_instance_passes(self):
        rng = np.random.default_rng(1)
        net, cost = random_radial_network(rng, n_bus=5)
        report = validate_assumptions(net, cost)
        assert report.structural_ok
        assert report["feasible"].passed is None  # deferred to the solver

    def test_cycle_detected_with_witness(self):
        buses = tuple(Bus(id=str(i), v_min=0.9, v_max=1.1, s_min=None,
                          s_max=complex(1, 1)) for i in range(3))
        lines = (
            Line(tail="0", head="1", z=0.01 + 0.01j, l_max=1.0),
            Line(tail="1", head="2", z=0.01 + 0.01j, l_max=1.0),
            Line(tail="2", head="1", z=0.01 + 0.01j, l_max=1.0),
        )
        net = RadialNetwork(buses=buses, lines=lines, root="0")
        report = validate_assumptions(net, linear_cost(3))
        assert report["tree"].passed is False
        assert report["tree"].witness

    def test_current_limit_violation_names_edge(self):
        z = 0.02 + 0.02j
        cap = 0.9 / abs(z) ** 2
        net = tiny_line_net(z=z, l_max=2 * cap)
        report = validate_assumptions(net, linear_cost(2))
        assert report["current_limit"].passed is False
        assert "0->1" in report["current_limit"].witness

    def test_nonpositive_cost_slope_fails(self):
        net = tiny_line_net()
        bad = OpfCost(cp=np.array([1.0, 0.0]), cq=np.zeros(2),
                      qp=np.zeros(2), qq=np.zeros(2))
        report = validate_assumptions(net, bad)
        assert report["cost_monotone"].passed is False

    def test_quadratic_cost_with_unbounded_box_fails_monotonicity(self):
        net = tiny_line_net()
        cost = OpfCost(cp=np.ones(2), cq=np.ones(2),
                       qp=np.array([0.1, 0.0]), qq=np.zeros(2))
        report = validate_assumptions(net, cost)
        assert report["cost_monotone"].passed is False

    def test_unbounded_box_constants(self):
        net = tiny_line_net()
        cost = OpfCost(cp=np.array([1.5, 0.7]), cq=np.array([0.2, 0.3]),
                       qp=np.zeros(2), qq=np.zeros(2))
        # the missing lower bound enters only through quadratic terms
        assert cost.strong_increase_constant(net) == 0.7
        assert cost.imag_nondecrease_constant(net) == 0.2
        quad = dataclasses.replace(cost, qp=np.array([0.1, 0.0]))
        assert quad.strong_increase_constant(net) == -np.inf

    def test_quadratic_cost_with_tight_box_passes(self):
        buses = (
            Bus(id="0", v_min=0.9, v_max=1.1, s_min=complex(-2, -2), s_max=complex(2, 2)),
            Bus(id="1", v_min=0.9, v_max=1.1, s_min=complex(-2, -2), s_max=complex(2, 2)),
        )
        net = RadialNetwork(buses=buses, lines=tiny_line_net().lines, root="0")
        cost = OpfCost(cp=np.ones(2), cq=np.ones(2),
                       qp=np.full(2, 0.1), qq=np.full(2, 0.1))
        report = validate_assumptions(net, cost)
        assert report["cost_monotone"].passed is True
        assert cost.strong_increase_constant(net) == pytest.approx(1 - 0.4)


class TestCaseSchema:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        net, cost = random_radial_network(rng, n_bus=4)
        path = tmp_path / "case.json"
        with open(path, "w") as fh:
            json.dump(case_to_dict(net, cost), fh)
        net2, cost2 = load_case(str(path))
        assert [b.id for b in net2.buses] == [b.id for b in net.buses]
        np.testing.assert_allclose(net2.z, net.z)
        np.testing.assert_allclose(cost2.cp, cost.cp)
        assert net2.buses[0].s_min is None

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="v_min"):
            case_from_dict({
                "buses": [{"id": "0", "v_max": 1.1, "s_min": None, "s_max": [1, 1]}],
                "lines": [], "root": "0",
                "cost": {"cp": [1], "cq": [0], "qp": [0], "qq": [0]},
            })

    def test_bad_complex_pair_named(self):
        with pytest.raises(ValueError, match=r"z"):
            case_from_dict({
                "buses": [
                    {"id": "0", "v_min": 0.9, "v_max": 1.1, "s_min": None, "s_max": [1, 1]},
                    {"id": "1", "v_min": 0.9, "v_max": 1.1, "s_min": None, "s_max": [1, 1]},
                ],
                "lines": [{"from": "0", "to": "1", "z": 0.01, "l_max": 1.0}],
                "root": "0",
                "cost": {"cp": [1, 1], "cq": [0, 0], "qp": [0, 0], "qq": [0, 0]},
            })


class TestFlatView:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(5)
        net, _ = random_radial_network(rng, n_bus=4)
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        x = forward_point(net, 1.0, S)
        vec = pack_point(x)
        x2 = unpack_point(net, vec)
        np.testing.assert_allclose(x2.s, x.s)
        np.testing.assert_allclose(x2.v, x.v)
        np.testing.assert_allclose(x2.ell, x.ell)
        np.testing.assert_allclose(x2.S, x.S)

    def test_labels_cover_all_coordinates(self):
        rng = np.random.default_rng(6)
        net, _ = random_radial_network(rng, n_bus=3)
        labels = coordinate_labels(net)
        assert len(labels) == 2 * net.n_bus + net.n_bus + net.n_line + 2 * net.n_line
        assert labels[0] == "s0_re" and labels[1] == "s0_im"


def test_sample_relaxed_points_land_between_the_sets():
    rng = np.random.default_rng(7)
    net, cost = random_radial_network(rng, n_bus=5)
    pts = sample_relaxed_points(net, cost, 10, rng)
    assert len(pts) == 10
    for x in pts:
        assert residual_Xhat(net, x) <= 1e-8
        assert residual_X(net, x) > 1e-6


def cycle_net():
    """Three buses whose lines 1->2 and 2->1 close a directed cycle."""
    buses = tuple(Bus(id=str(i), v_min=0.9, v_max=1.1, s_min=None,
                      s_max=complex(1, 1)) for i in range(3))
    lines = (
        Line(tail="0", head="1", z=0.01 + 0.01j, l_max=1.0),
        Line(tail="1", head="2", z=0.01 + 0.01j, l_max=1.0),
        Line(tail="2", head="1", z=0.01 + 0.01j, l_max=1.0),
    )
    return RadialNetwork(buses=buses, lines=lines, root="0")


def two_parent_net():
    """Bus 2 fed by both bus 0 and bus 1."""
    net = cycle_net()
    lines = (*net.lines[:2], dataclasses.replace(net.lines[0], head="2"))
    return RadialNetwork(buses=net.buses, lines=lines, root="0")


class TestLineTable:
    def test_forward_point_ignores_line_listing_order(self):
        rng = np.random.default_rng(12)
        net, _ = random_radial_network(rng, n_bus=9)
        S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
        extra = rng.uniform(0.0, 0.3, net.n_line)
        leaves_first = dataclasses.replace(net, lines=net.lines[::-1])
        assert leaves_first.line_table[0][0] != 0  # walked from the root
        x = forward_point(net, 1.0, S, extra)
        y = forward_point(leaves_first, 1.0, S[::-1], extra[::-1])
        np.testing.assert_array_equal(y.v, x.v)
        np.testing.assert_array_equal(y.ell, x.ell[::-1])
        np.testing.assert_array_equal(y.S, x.S[::-1])
        # only the order of each bus's injection sum may change
        np.testing.assert_allclose(y.s, x.s, rtol=0, atol=1e-14)

    def test_table_rows_follow_the_lines(self):
        rng = np.random.default_rng(13)
        net, _ = random_radial_network(rng, n_bus=7)
        reached = {net.bus_index[net.root]}
        for k, t, h, zr, zi, z2 in net.line_table:
            assert (t, h) == (net.tail_idx[k], net.head_idx[k])
            assert t in reached  # root first
            reached.add(h)
            assert complex(zr, zi) == net.lines[k].z and z2 == abs(net.lines[k].z) ** 2
        assert sorted(k for k, *_ in net.line_table) == list(range(net.n_line))

    @pytest.mark.parametrize("make", [cycle_net, two_parent_net])
    def test_non_tree_is_refused_naming_the_witness(self, make):
        from relaxcert.certify import eliminated_opf_grid

        net = make()
        table, witness = net.tree
        assert table == [] and witness
        assert validate_assumptions(net, linear_cost(net.n_bus))["tree"].witness == witness
        with pytest.raises(PreconditionError, match=re.escape(witness)):
            forward_point(net, 1.0, np.full(net.n_line, 0.1 + 0.05j))
        with pytest.raises(PreconditionError, match=re.escape(witness)):
            eliminated_opf_grid(net, linear_cost(net.n_bus))

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    def test_eliminated_model_agrees_with_forward_point(self, pinned):
        from relaxcert.certify import eliminated_opf_grid

        rng = np.random.default_rng(14)
        net, cost = random_radial_network(rng, n_bus=5, pin_root_voltage=pinned,
                                          finite_s_box=True)
        gp = eliminated_opf_grid(net, cost)
        root = net.bus_index[net.root]
        free = [j for j in range(net.n_bus) if j != root or not pinned]
        rows, costs, ineqs = [], [], []
        for _ in range(12):
            S = rng.normal(0, 0.3, net.n_line) + 1j * rng.normal(0, 0.3, net.n_line)
            root_v = rng.uniform(net.v_min[root], net.v_max[root])
            x = forward_point(net, root_v, S)
            rows.append(np.concatenate([S.real, S.imag, [] if pinned else [root_v]]))
            costs.append(cost.value(x.s))
            p, q = x.s.real, x.s.imag
            ineqs.append(np.concatenate([
                net.v_min[free] - x.v[free], x.v[free] - net.v_max[free],
                x.ell - net.l_max,
                net.s_min.real - p, p - net.s_max.real,
                net.s_min.imag - q, q - net.s_max.imag]))
        U = np.array(rows)
        assert gp.dim == U.shape[1]
        model_costs, model_ineqs, _ = gp.model(*U.T)
        np.testing.assert_allclose(model_costs, costs, rtol=1e-12)
        np.testing.assert_allclose(np.stack(model_ineqs, axis=1), ineqs,
                                   rtol=1e-12, atol=1e-12)
