"""Tests for the problem combinators on small interval primitives."""

import numpy as np
import pytest

from gen import block_primitive, shrinking_path, threshold_primitive
from relaxcert.certify import check_c1_c3
from relaxcert.compose import (
    CertifiedProblem,
    CompositionError,
    compose_cost,
    intersect_feasible,
    sample_box,
    union_feasible,
)
from relaxcert.core import FEAS_TOL, ProblemHandle


class TestComposeCost:
    def test_identity_keeps_everything(self):
        p = threshold_primitive(0.5)
        q = compose_cost(p, lambda y: y)
        for x in sample_box(p.box, 20, seed=1):
            assert q.handle.evaluate(x).cost == pytest.approx(p.handle.evaluate(x).cost)
            assert q.handle.evaluate(x).lyapunov == p.handle.evaluate(x).lyapunov

    def test_hinge_is_accepted(self):
        p = threshold_primitive(0.5)
        q = compose_cost(p, lambda y: max(y, 0.0))
        x = np.array([0.8 + 0j])
        assert q.handle.evaluate(x).cost == pytest.approx(0.8)

    def test_square_preserves_monotone_paths(self):
        p1, p2 = block_primitive(0), block_primitive(1)
        comp = intersect_feasible(p1, p2, split=([0], [1]))
        squared = compose_cost(comp, lambda y: y * y)
        rng = np.random.default_rng(0)
        pts = [np.array([complex(a), complex(b)])
               for a, b in rng.uniform(0.1, 1.0, size=(100, 2))]
        checks = check_c1_c3(squared, pts)
        assert checks.c1.passed

    def test_decreasing_g_rejected(self):
        p = threshold_primitive(0.5)
        with pytest.raises(CompositionError, match="non-decreasing"):
            compose_cost(p, lambda y: -y)

    def test_concave_g_rejected(self):
        p = threshold_primitive(0.5)
        with pytest.raises(CompositionError, match="convex"):
            compose_cost(p, lambda y: np.sqrt(abs(y) + 1.0))


class TestUnionFeasible:
    def test_self_union_squares_lyapunov(self):
        p = threshold_primitive(0.5)
        u = union_feasible(p, p, mode="sum", lam=0.5)
        x = np.array([0.9 + 0j])
        assert (u.handle.evaluate(x).lyapunov
                == pytest.approx(p.handle.evaluate(x).lyapunov ** 2))
        t1 = u.path_factory(x)
        t2 = p.path_factory(x)
        np.testing.assert_allclose(t1.points, t2.points)

    def test_product_vanishes_on_the_union(self):
        p1 = threshold_primitive(0.5)
        p2 = threshold_primitive(0.7)
        u = union_feasible(p1, p2)
        x = np.array([0.6 + 0j])  # feasible only for the looser primitive
        assert p1.handle.evaluate(x).lyapunov > 0
        assert u.handle.evaluate(x).lyapunov == 0.0
        assert u.handle.evaluate(x).feasible <= FEAS_TOL

    def test_zero_set_equivalence_on_samples(self):
        p1 = threshold_primitive(0.5)
        p2 = threshold_primitive(0.7)
        u = union_feasible(p1, p2)
        for x in sample_box(u.box, 200, seed=2):
            if u.handle.evaluate(x).relaxed > FEAS_TOL:
                continue
            prod_zero = u.handle.evaluate(x).lyapunov <= 1e-9
            min_zero = min(p1.handle.evaluate(x).lyapunov,
                           p2.handle.evaluate(x).lyapunov) <= 1e-9
            assert prod_zero == min_zero

    def test_sum_mode_passes_strict_checks(self):
        p1 = threshold_primitive(0.5)
        p2 = threshold_primitive(0.7)
        u = union_feasible(p1, p2, mode="sum", lam=0.5)
        pts = [x for x in sample_box(u.box, 60, seed=3)
               if (u.handle.evaluate(x).relaxed <= FEAS_TOL
                   and u.handle.evaluate(x).feasible > FEAS_TOL)]
        assert pts
        checks = check_c1_c3(u, pts)
        assert checks.c1.passed

    def test_divergent_factories_rejected(self):
        p1 = threshold_primitive(0.5)
        p2 = threshold_primitive(0.7)
        half = np.array([0.5 + 0j])
        p2_bad = CertifiedProblem(
            handle=p2.handle,
            path_factory=lambda x: shrinking_path(x, half),
            segment_bound=1, box=p2.box, label="bad")
        with pytest.raises(CompositionError, match="diverge"):
            union_feasible(p1, p2_bad)


class TestIntersectFeasible:
    def test_one_sided_branch_uses_other_path(self):
        p1, p2 = block_primitive(0), block_primitive(1)
        comp = intersect_feasible(p1, p2, split=([0], [1]))
        x = np.array([0.0 + 0j, 0.8 + 0j])  # first block already feasible
        trace = comp.path_factory(x)
        expected = p2.path_factory(x)
        np.testing.assert_allclose(trace.points, expected.points)

    def test_concatenation_hits_midpoint_and_clears_lyapunov(self):
        p1, p2 = block_primitive(0), block_primitive(1)
        comp = intersect_feasible(p1, p2, split=([0], [1]))
        x = np.array([0.6 + 0j, 0.8 + 0j])
        trace = comp.path_factory(x)
        first_end = p1.path_factory(x).end
        np.testing.assert_allclose(trace.evaluate(0.5), first_end, atol=1e-12)
        assert comp.handle.evaluate(trace.end).lyapunov <= 1e-9
        assert trace.segments == 2

    def test_concatenation_keeps_every_knot_point(self):
        p1, p2 = block_primitive(0), block_primitive(1)
        comp = intersect_feasible(p1, p2, split=([0], [1]))
        x = np.array([0.6 + 0j, 0.8 + 0j])
        trace = comp.path_factory(x)
        first = p1.path_factory(x)
        second = p2.path_factory(first.end)
        assert trace.knots.tolist() == [0, 10, 20]
        np.testing.assert_array_equal(
            trace.points[trace.knots],
            np.concatenate([first.points[first.knots], second.points[second.knots][1:]]))

    def test_sum_lyapunov_additivity(self):
        p1, p2 = block_primitive(0), block_primitive(1)
        comp = intersect_feasible(p1, p2, split=([0], [1]))
        x = np.array([0.2 + 0j, 0.3 + 0j])
        assert comp.handle.evaluate(x).lyapunov == pytest.approx(0.5)

    def test_strict_checks_pass_on_samples(self):
        p1, p2 = block_primitive(0), block_primitive(1)
        comp = intersect_feasible(p1, p2, split=([0], [1]))
        rng = np.random.default_rng(4)
        pts = [np.array([complex(a), complex(b)])
               for a, b in rng.uniform(0.05, 1.0, size=(40, 2))]
        checks = check_c1_c3(comp, pts)
        assert checks.c1.passed
        from relaxcert.certify import check_c2_proxy
        assert check_c2_proxy(comp, checks.traces).passed

    def test_sum_zero_set_equivalence(self):
        p1, p2 = block_primitive(0), block_primitive(1)
        comp = intersect_feasible(p1, p2, split=([0], [1]))
        for x in sample_box(comp.box, 200, seed=5):
            if comp.handle.evaluate(x).relaxed > FEAS_TOL:
                continue
            sum_zero = comp.handle.evaluate(x).lyapunov <= 1e-9
            max_zero = max(p1.handle.evaluate(x).lyapunov,
                           p2.handle.evaluate(x).lyapunov) <= 1e-9
            assert sum_zero == max_zero

    def test_broken_separability_rejected(self):
        p1 = block_primitive(0)
        mixed_handle = ProblemHandle(lambda x: p1.handle.evaluate(x)._replace(
            cost=x[..., 0].real + 0.5 * x[..., 1].real))  # leaks block 2
        p1_bad = CertifiedProblem(handle=mixed_handle,
                                  path_factory=p1.path_factory,
                                  segment_bound=1, box=p1.box, label="leaky")
        p2 = block_primitive(1)
        with pytest.raises(CompositionError, match="foreign block"):
            intersect_feasible(p1_bad, p2, split=([0], [1]))

    def test_path_moving_foreign_block_rejected(self):
        p1 = block_primitive(0)
        p2 = block_primitive(1)

        def sweeping_path(x):
            return shrinking_path(x, np.zeros(2, complex))  # moves both blocks

        p1_bad = CertifiedProblem(handle=p1.handle, path_factory=sweeping_path,
                                  segment_bound=1, box=p1.box, label="sweeper")
        with pytest.raises(CompositionError, match="moves the foreign block"):
            intersect_feasible(p1_bad, p2, split=([0], [1]))


def test_compose_then_union_commutes_with_union_then_compose():
    p1 = threshold_primitive(0.5)
    p2 = threshold_primitive(0.7)
    g = lambda y: max(y, 0.0) + 0.1 * y
    a = compose_cost(union_feasible(p1, p2), g)
    b = union_feasible(compose_cost(p1, g), compose_cost(p2, g))
    for x in sample_box(a.box, 50, seed=6):
        assert (a.handle.evaluate(x).cost
                == pytest.approx(b.handle.evaluate(x).cost, abs=1e-12))


@pytest.mark.parametrize("combine", [
    union_feasible,
    lambda p1, p2, **kw: intersect_feasible(p1, p2, split=([0], [1]), **kw),
], ids=["union", "intersect"])
@pytest.mark.parametrize("second, kwargs, message", [
    (block_primitive(1), {"lam": 0.0}, "lam strictly inside"),
    (block_primitive(1), {"lam": 1.0}, "lam strictly inside"),
    (block_primitive(1), {"mode": "sum", "lam": 3.0}, "lam strictly inside"),
    (block_primitive(1), {"mode": "min"}, "unknown cost mode"),
    (threshold_primitive(0.5), {}, "different ambient spaces"),
], ids=["lam-0", "lam-1", "lam-3", "unknown-mode", "dimension-mismatch"])
def test_combinators_reject_bad_arguments_alike(combine, second, kwargs, message):
    with pytest.raises(CompositionError, match=message):
        combine(block_primitive(0), second, **kwargs)
