"""End-to-end CLI tests against the shipped demo cases."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relaxcert.cli as cli
from gen import bend_reductions, bend_restorations, random_spectraplex_instance
from relaxcert.certify import CertificateReport, ConditionResult
from relaxcert.cli import _certificate_exit, main
from relaxcert.distflow import (
    load_case,
    residual_X,
    residual_Xhat,
    sample_relaxed_points,
)
from relaxcert.lrsdp import (
    LrsdpInstance,
    instance_from_dict,
    instance_to_dict,
    lyapunov_tail,
)

CASES = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


def case(name):
    return os.path.join(CASES, name)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_strict_json(path):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{path}: non-JSON token {token}")

    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=reject)


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this
    checkout's ``relaxcert``; nothing is loaded that the run does not load."""
    root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


ZERO_ROW_INSTANCE = {  # tr(0 X) = 1 has no solution
    "n": 2, "m": 1, "r": 1,
    "C": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "A": [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
    "b": [1.0],
}


def stub_slack_optimum(monkeypatch):
    """Make the solver hand back, for ``demo_3bus``, a relaxed point with
    strict slack on every line (no shipped case ends at a relaxation optimum
    off the cone); returns the network and that point."""
    net, cost = load_case(case("demo_3bus.json"))
    slack = sample_relaxed_points(net, cost, 1, np.random.default_rng(0))[0]
    assert residual_X(net, slack) > 1e-8
    solve = cli.solve_opf_relaxation
    monkeypatch.setattr(cli, "solve_opf_relaxation", lambda *a, **k: (
        dataclasses.replace(solve(*a, **k), point=slack)))
    return net, slack


class TestOpfCommand:
    def test_valid_case_writes_three_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["opf", case("demo_3bus.json"), "--out", out,
                     "--samples", "10"])
        assert code == 0
        assert sorted(os.listdir(out)) == ["report.json", "restoration.csv",
                                           "solve.json"]
        report = read_json(os.path.join(out, "report.json"))
        assert report["conditions"]["c1"]["passed"]
        assert report["conditions"]["c2_proxy"]["passed"]
        assert report["conditions"]["cprime"]["passed"]
        assert report["exactness"] in ("weak", "strong")
        solve = read_json(os.path.join(out, "solve.json"))
        assert solve["status"] == "optimal"
        assert "sentinel_bound_active" not in solve
        assert np.all(np.isfinite(solve["point"]["s"]))

    def test_assumption_violation_exits_2_and_names_edge(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["opf", case("bad_current_limit.json"), "--out", out])
        assert code == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["verdict"] == "assumption-failure"
        assert "0->1" in report["assumptions"]["current_limit"]["witness"]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["opf", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_infeasible_box_exits_2(self, tmp_path):
        data = read_json(case("demo_2bus.json"))
        data["buses"][1]["v_min"] = 1.3
        data["buses"][1]["v_max"] = 1.2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = str(tmp_path / "run")
        code = main(["opf", str(bad), "--out", out])
        assert code == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["verdict"] == "assumption-failure"

    def test_negative_current_limit_prints_cause(self, tmp_path, capsys):
        data = read_json(case("demo_2bus.json"))
        data["lines"][0]["l_max"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = str(tmp_path / "run")
        assert main(["opf", str(bad), "--out", out]) == 2
        assert read_json(os.path.join(out, "report.json"))["verdict"] == "infeasible"
        err = capsys.readouterr().err
        assert "relaxation infeasible" in err and "l_max" in err

    def test_unbounded_feeder_meets_absolute_membership(self, tmp_path):
        # a primal stop test scaled by 1 + |b| leaves this feeder's cone rows
        # 1.01e-8 outside the absolute --tol of 1e-8
        bus = {"v_min": 0.9, "v_max": 1.1, "s_min": None}
        s_max = [[3.0782108514074533, 2.394719927369386],
                 [2.0507734401990385, 1.7006525912703478],
                 [1.6181668182072135, 1.7668116291510456],
                 [1.6543177454502525, 2.435222597897447],
                 [1.6202727530900127, 1.7381067810909103]]
        lines = [([0.024354326793465466, 0.02761390428133744], 2.0935133913125443),
                 ([0.020539929821002164, 0.048831351802753865], 2.208306525309834),
                 ([0.04201853144318701, 0.045531636652253925], 2.306035777610382),
                 ([0.010610452387139273, 0.04025050292167452], 2.2192533571722683)]
        data = {
            "buses": [{"id": str(i), **bus, "s_max": hi}
                      for i, hi in enumerate(s_max)],
            "lines": [{"from": "0", "to": str(k + 1), "z": z, "l_max": l_max}
                      for k, (z, l_max) in enumerate(lines)],
            "root": "0",
            "cost": {"cp": [1.3814270312494699, 0.9568097496525849,
                            0.9501794188010371, 1.9299210578238215,
                            1.5559283424414554],
                     "cq": [0.46535618769713216, 0.281442755514258,
                            0.7129270706309896, 0.16949262256943043,
                            0.43765964524250045],
                     "qp": [0.0] * 5, "qq": [0.0] * 5},
        }
        path = tmp_path / "feeder.json"
        path.write_text(json.dumps(data))
        assert main(["opf", str(path), "--out", str(tmp_path / "run"),
                     "--samples", "5"]) == 0

    def test_infeasible_optimum_is_restored(self, tmp_path, monkeypatch):
        net, slack = stub_slack_optimum(monkeypatch)
        out = tmp_path / "run"
        code = main(["opf", case("demo_3bus.json"), "--out", str(out),
                     "--samples", "5"])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["exactness"] == "unknown"
        assert report["notes"] == [
            "restoration strictly decreased the cost; the supplied point "
            "cannot be relaxation-optimal",
            "restoration trace drives the relaxation optimum feasible"]
        with open(out / "restoration.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        first = dict(zip(header, map(float, rows[0])))
        last = dict(zip(header, map(float, rows[-1])))
        assert first["v0"] == pytest.approx(slack.v[0], abs=1e-15)
        for ln in net.lines:
            key = f"{ln.tail}_{ln.head}"
            S = complex(last[f"S_{key}_re"], last[f"S_{key}_im"])
            assert abs(S) ** 2 == pytest.approx(
                last[f"v{ln.tail}"] * last[f"ell_{key}"], abs=1e-8)

    def test_faulty_optimum_restoration_exits_2_with_cause(
            self, tmp_path, monkeypatch, capsys):
        stub_slack_optimum(monkeypatch)
        bend_restorations(monkeypatch)

        code = main(["opf", case("demo_3bus.json"), "--out", str(tmp_path / "run"),
                     "--samples", "5"])
        assert code == 2
        assert ("certificate violation: restoring the relaxation optimum: a path "
                "sample leaves the relaxed set (residual ") in capsys.readouterr().err

    def test_optimum_outside_the_relaxed_set_exits_1(
            self, tmp_path, monkeypatch, capsys):
        # every voltage raised by 0.5 keeps the DistFlow equations and the
        # cone but leaves the voltage box, so the optimum is judged once, in
        # cmd_opf, before any restoration
        net, _ = load_case(case("demo_3bus.json"))
        solve, seen = cli.solve_opf_relaxation, []

        def raised(*a, **k):
            res = solve(*a, **k)
            seen.append(dataclasses.replace(res.point, v=res.point.v + 0.5))
            return dataclasses.replace(res, point=seen[-1])

        monkeypatch.setattr(cli, "solve_opf_relaxation", raised)
        code = main(["opf", case("demo_3bus.json"), "--out", str(tmp_path / "run"),
                     "--samples", "5"])
        assert code == 1
        r = residual_Xhat(net, seen[0])
        assert r > 1e-8
        assert capsys.readouterr().err == (
            f"error: point is not relaxed-feasible (residual {r:.3g} > 1e-08)\n")

    def test_reports_idempotent_modulo_timestamp(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["opf", case("demo_2bus.json"), "--out", out1,
                     "--samples", "5"]) == 0
        assert main(["opf", case("demo_2bus.json"), "--out", out2,
                     "--samples", "5"]) == 0
        for name in ("report.json", "solve.json"):
            a = read_json(os.path.join(out1, name))
            b = read_json(os.path.join(out2, name))
            a.pop("generated_at")
            b.pop("generated_at")
            assert a == b
        csv_a = open(os.path.join(out1, "restoration.csv")).read()
        csv_b = open(os.path.join(out2, "restoration.csv")).read()
        assert csv_a == csv_b


class TestLrsdpCommand:
    def test_demo_instance_reaches_rank_one(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["lrsdp", case("demo_lrsdp.json"), "--out", out])
        assert code == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["final_rank"] == 1
        assert report["exactness"] == "weak"
        assert os.path.exists(os.path.join(out, "reduction.csv"))

    def test_identity_cost_reduces_rank_once(self, tmp_path, monkeypatch):
        import relaxcert.cli as cli
        import relaxcert.lrsdp as lrsdp

        inst = LrsdpInstance(C=np.eye(4), A=[np.eye(4)], b=[1.0], r=1)
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        calls = []
        reduce_rank_path = lrsdp.reduce_rank_path

        def counted(*args, **kwargs):
            calls.append(args)
            return reduce_rank_path(*args, **kwargs)

        monkeypatch.setattr(cli, "reduce_rank_path", counted)
        monkeypatch.setattr(lrsdp, "reduce_rank_path", counted)
        out = str(tmp_path / "run")
        assert main(["lrsdp", str(path), "--out", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["stages"] > 0 and report["exactness"] == "weak"
        assert len(calls) == 1

    def identity_instance(self, tmp_path, seed=3, n=5):
        inst = random_spectraplex_instance(np.random.default_rng(seed), n=n,
                                           degenerate=True)
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        return inst, str(path)

    def test_reduction_columns_are_the_measured_values(self, tmp_path):
        inst, path = self.identity_instance(tmp_path)
        out = tmp_path / "run"
        assert main(["lrsdp", path, "--out", str(out)]) == 0
        with open(out / "reduction.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        table = np.array(rows, dtype=float)
        assert header[:3] == ["t", "f", "V"] and len(rows) > 2
        entries = table[:, 3:]
        X = (entries[:, 0::2] + 1j * entries[:, 1::2]).reshape(-1, inst.n, inst.n)
        hermitian = (X + np.swapaxes(X, -2, -1).conj()) / 2
        assert table[:, 1].tobytes() == inst.cost(X).tobytes()
        assert table[:, 2].tobytes() == lyapunov_tail(inst, hermitian).tobytes()

    def test_faulty_reduction_exits_2_without_trace(self, tmp_path, monkeypatch,
                                                     capsys):
        _, path = self.identity_instance(tmp_path)
        bend_reductions(monkeypatch)
        out = tmp_path / "run"
        assert main(["lrsdp", path, "--out", str(out)]) == 2
        assert ("certificate violation: reducing the relaxation optimum: a path "
                "sample leaves the relaxed set (residual ") in capsys.readouterr().err
        assert not (out / "reduction.csv").exists()

    def test_stuck_reduction_exits_2_with_stage(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["lrsdp", case("stuck_lrsdp.json"), "--out", out])
        assert code == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["verdict"] == "reduction-stuck"
        assert report["stage"] == 1
        assert report["dimension_condition"] is False

    def test_non_hermitian_entry_exits_1(self, tmp_path, capsys):
        data = read_json(case("demo_lrsdp.json"))
        data["C"][0][1] = [0.5, 0.0]
        data["C"][1][0] = [0.7, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["lrsdp", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "(0,1)" in capsys.readouterr().err

    def test_infeasible_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "infeasible.json"
        bad.write_text(json.dumps(ZERO_ROW_INSTANCE))
        out = str(tmp_path / "run")
        code = main(["lrsdp", str(bad), "--out", out])
        assert code == 2
        assert read_json(os.path.join(out, "report.json"))["verdict"] == "infeasible"
        assert "relaxation infeasible" in capsys.readouterr().err

    def test_unbounded_relaxation_exits_1_with_cause(self, tmp_path, capsys):
        # X = t I meets tr(diag(1, -1) X) = 0 for every t >= 0 at cost -2t
        data = {
            "n": 2, "m": 1, "r": 1,
            "C": [[[-1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "A": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
            "b": [0.0],
        }
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["lrsdp", str(path), "--out", str(out)]) == 1
        assert ("solver did not converge (status unbounded)"
                in capsys.readouterr().err)
        assert os.listdir(out) == ["solve.json"]
        assert read_strict_json(out / "solve.json")["status"] == "unbounded"


class TestStrictJson:
    def test_vacuous_margins_are_null(self, tmp_path):
        out = tmp_path / "run"
        assert main(["opf", case("demo_2bus.json"), "--out", str(out),
                     "--samples", "0"]) == 0
        conditions = read_strict_json(out / "report.json")["conditions"]
        for name in ("c1", "c3", "cprime"):
            assert conditions[name]["margin"] is None, name
            assert conditions[name]["passed"] is True, name
        read_strict_json(out / "solve.json")

    def test_values_of_a_run_without_an_iterate_are_null(self, tmp_path):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(ZERO_ROW_INSTANCE))
        out = tmp_path / "run"
        assert main(["lrsdp", str(path), "--out", str(out)]) == 2
        solve = read_strict_json(out / "solve.json")
        assert solve["status"] == "infeasible"
        for key in ("objective", "primal_obj", "dual_obj", "primal_residual",
                    "dual_residual", "gap"):
            assert solve[key] is None, key
        read_strict_json(out / "report.json")

    def test_a_non_finite_value_is_never_written(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json(str(tmp_path / "x.json"), {"margin": math.inf})
        assert not os.path.exists(tmp_path / "x.json")


MALFORMED_FIELDS = [
    # (command, case file, key path into the JSON, field named on stderr)
    ("opf", "demo_3bus.json", ("buses", 1, "v_min"), "buses[1].v_min"),
    ("opf", "demo_3bus.json", ("lines", 0, "z", 0), "lines[0].z[0]"),
    ("opf", "demo_3bus.json", ("cost", "cq", 2), "cost.cq[2]"),
    ("opf", "demo_3bus.json", ("lines", 1, "l_max"), "lines[1].l_max"),
    ("lrsdp", "demo_lrsdp.json", ("b", 0), "b[0]"),
    ("lrsdp", "demo_lrsdp.json", ("C", 0, 1, 1), "C entry (0,1)[1]"),
    ("lrsdp", "demo_lrsdp.json", ("n",), "n"),
    ("lrsdp", "demo_lrsdp.json", ("m",), "m"),
    ("lrsdp", "demo_lrsdp.json", ("r",), "r"),
]


def run_with_field(tmp_path, capsys, monkeypatch, command, name, keys, value):
    """Exit code and stderr of ``command`` on case ``name`` with the field at
    ``keys`` set to ``value``; reaching a solver fails the test."""
    def unreachable(*args, **kwargs):
        raise AssertionError("malformed input reached the solver")

    monkeypatch.setattr(cli, "solve_opf_relaxation", unreachable)
    monkeypatch.setattr(cli, "solve_lrsdp_relaxation", unreachable)
    data = read_json(case(name))
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # NaN and Infinity as JSON literals
    code = main([command, str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0.9", True, float("nan"), float("inf")],
                         ids=["string", "bool", "nan", "infinity"])
@pytest.mark.parametrize("command, name, keys, field", MALFORMED_FIELDS,
                         ids=[f for *_, f in MALFORMED_FIELDS])
def test_malformed_number_exits_1_naming_the_field(
        tmp_path, capsys, monkeypatch, command, name, keys, field, bad):
    code, err = run_with_field(tmp_path, capsys, monkeypatch,
                               command, name, keys, bad)
    assert code == 1
    assert f"{field}: expected a finite number" in err


COUNTS = [row for row in MALFORMED_FIELDS if row[2][0] in ("n", "m", "r")]


@pytest.mark.parametrize("fraction", [2.5, 1.9])
@pytest.mark.parametrize("command, name, keys, field", COUNTS,
                         ids=[f for *_, f in COUNTS])
def test_fractional_count_exits_1_naming_the_field(
        tmp_path, capsys, monkeypatch, command, name, keys, field, fraction):
    code, err = run_with_field(tmp_path, capsys, monkeypatch,
                               command, name, keys, fraction)
    assert code == 1
    assert f"{field}: expected an integer, got {fraction}" in err


STRUCTURE_FIELDS = [
    # (command, case file, key path into the JSON, value, message on stderr)
    ("opf", "demo_3bus.json", ("buses",), 5, "buses: expected a non-empty list, got 5"),
    ("opf", "demo_3bus.json", ("buses", 1), 7, "buses[1]: expected an object, got 7"),
    ("opf", "demo_3bus.json", ("lines",), [], "lines: expected a non-empty list, got []"),
    ("opf", "demo_3bus.json", ("lines", 0), 7, "lines[0]: expected an object, got 7"),
    ("opf", "demo_3bus.json", ("cost",), 5, "cost: expected an object, got 5"),
    ("lrsdp", "demo_lrsdp.json", ("m",), 0, "m: expected at least 1, got 0"),
    ("lrsdp", "demo_lrsdp.json", ("n",), -1, "n: expected at least 1, got -1"),
    ("lrsdp", "demo_lrsdp.json", ("m",), -1, "m: expected at least 1, got -1"),
    ("lrsdp", "demo_lrsdp.json", ("r",), 0, "r: expected at least 1, got 0"),
]


@pytest.mark.parametrize("command, name, keys, value, message", STRUCTURE_FIELDS,
                         ids=[f"{'.'.join(map(str, k))}={v!r}"
                              for _, _, k, v, _ in STRUCTURE_FIELDS])
def test_malformed_structure_exits_1_naming_the_field(
        tmp_path, capsys, monkeypatch, command, name, keys, value, message):
    code, err = run_with_field(tmp_path, capsys, monkeypatch,
                               command, name, keys, value)
    assert code == 1
    assert f"error: {message}" in err


@pytest.mark.parametrize("command, what", [("opf", "case"), ("lrsdp", "instance")])
def test_non_object_input_exits_1(tmp_path, capsys, command, what):
    path = tmp_path / "list.json"
    path.write_text("[5]")
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {what}: expected an object, got [5]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "oracle", "classify"])
def test_non_object_input_to_dispatching_commands_exits_1(tmp_path, capsys, command):
    path = tmp_path / "five.json"
    path.write_text("5")
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    assert "error: input: expected an object, got 5" in capsys.readouterr().err


BAD_OPTIONS = [
    # (option, value read both as a flag and as a config JSON literal, message)
    ("tol", "NaN", "--tol: expected a finite number, got nan"),
    ("tol", "0.0", "--tol: expected a number in (0, inf), got 0.0"),
    ("resolution", "NaN", "--resolution: expected a finite number, got nan"),
    ("resolution", "-1.0", "--resolution: expected a number in (0, inf), got -1.0"),
    ("samples", "-3", "--samples: expected an integer >= 0, got -3"),
    ("seed", "-1", "--seed: expected an integer >= 0, got -1"),
    ("max-iter", "0", "--max-iter: expected an integer >= 1, got 0"),
    ("relaxation-parameter", "2.0",
     "--relaxation-parameter: expected a number in (0, 2), got 2.0"),
    ("relaxation-parameter", "NaN", "--relaxation-parameter: expected a finite number, got nan"),
]
BAD_CONFIG_ONLY = [
    # values the command-line parser already refuses
    ("tol", '"1e-8"', "--tol: expected a finite number, got '1e-8'"),
    ("samples", "2.5", "--samples: expected an integer >= 0, got 2.5"),
    ("max-iter", "true", "--max-iter: expected an integer >= 1, got True"),
    ("seed", '"3"', "--seed: expected an integer >= 0, got '3'"),
]


def run_lrsdp_with(tmp_path, capsys, monkeypatch, extra):
    """Exit code and stderr of ``relaxcert lrsdp`` on the demo instance with
    ``extra`` arguments; reaching the solver fails the test."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a bad option reached the solver")

    monkeypatch.setattr(cli, "solve_lrsdp_relaxation", unreachable)
    code = main(["lrsdp", case("demo_lrsdp.json"), "--out", str(tmp_path / "out"),
                 *extra])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", BAD_OPTIONS,
                         ids=[f"{o}={v}" for o, v, _ in BAD_OPTIONS])
def test_bad_numeric_flag_exits_1_naming_it(tmp_path, capsys, monkeypatch,
                                            option, value, message):
    code, err = run_lrsdp_with(tmp_path, capsys, monkeypatch, [f"--{option}", value])
    assert code == 1
    assert f"error: {message}" in err


@pytest.mark.parametrize("option, value, message", BAD_OPTIONS + BAD_CONFIG_ONLY,
                         ids=[f"{o}={v}" for o, v, _ in BAD_OPTIONS + BAD_CONFIG_ONLY])
def test_bad_numeric_config_value_exits_1_naming_the_flag(
        tmp_path, capsys, monkeypatch, option, value, message):
    config = tmp_path / "config.json"
    config.write_text(f'{{"{option}": {value}}}')
    code, err = run_lrsdp_with(tmp_path, capsys, monkeypatch, ["--config", str(config)])
    assert code == 1
    assert f"error: {message}" in err


def test_non_object_config_exits_1(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    code, err = run_lrsdp_with(tmp_path, capsys, monkeypatch, ["--config", str(config)])
    assert code == 1
    assert "error: config: expected an object, got [1]" in err


def test_integral_float_counts_are_counts():
    data = read_json(case("demo_lrsdp.json"))
    inst = instance_from_dict({**data, "n": 2.0, "m": 1.0, "r": 1.0})
    assert (inst.n, inst.m, inst.r) == (2, 1, 1)
    assert isinstance(inst.r, int)


def numeric_fields(data, keys=()):
    """Key paths of every numeric leaf of a parsed JSON document."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        numeric = isinstance(data, (int, float)) and not isinstance(data, bool)
        return [keys] if numeric else []
    return [path for k, v in items for path in numeric_fields(v, keys + (k,))]


def field_name(keys):
    """The name the schema gives the field at ``keys``, as in
    ``buses[1].v_min``, ``b[0]`` or ``A[0] entry (1,0)[1]``."""
    if keys[0] in ("C", "A"):
        matrix = "C" if keys[0] == "C" else f"A[{keys[1]}]"
        i, j, part = keys[-3:]
        return f"{matrix} entry ({i},{j})[{part}]"
    return keys[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                             for k in keys[1:])


FUZZ_TARGETS = [(command, name, keys)
                for command, name in (("opf", "demo_3bus.json"),
                                      ("lrsdp", "demo_lrsdp.json"))
                for keys in numeric_fields(read_json(case(name)))]


@given(target=st.sampled_from(FUZZ_TARGETS),
       bad=st.one_of(st.text(max_size=4), st.booleans(),
                     st.sampled_from([math.nan, math.inf, -math.inf])))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_malformed_number_exits_1_naming_the_field(
        tmp_path, capsys, monkeypatch, target, bad):
    command, name, keys = target
    code, err = run_with_field(tmp_path, capsys, monkeypatch,
                               command, name, keys, bad)
    assert code == 1
    assert f"{field_name(keys)}: expected a finite number" in err


def test_failed_condition_is_named_on_stderr(capsys):
    failed = ConditionResult("c2_proxy", False, -1.0, ("3 segments > bound 1",))
    report = CertificateReport(c1=None, c2_proxy=failed, c3=None, cprime=None,
                               exactness="unknown", sample_count=1, seed=0)
    assert _certificate_exit(report) == 2
    assert "condition c2_proxy failed: 3 segments > bound 1" in capsys.readouterr().err


class TestCertifyCommand:
    def test_passing_case_exits_0(self, tmp_path):
        code = main(["certify", case("demo_2bus.json"), "--out",
                     str(tmp_path / "out"), "--samples", "5"])
        assert code == 0

    def test_failing_case_exits_2(self, tmp_path):
        code = main(["certify", case("bad_current_limit.json"), "--out",
                     str(tmp_path / "out")])
        assert code == 2

    def test_unknown_schema_exits_1(self, tmp_path):
        bad = tmp_path / "odd.json"
        bad.write_text(json.dumps({"what": 1}))
        assert main(["certify", str(bad), "--out", str(tmp_path / "out")]) == 1


class TestOracleCommand:
    def test_two_bus_scan(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["oracle", case("demo_2bus.json"), "--out", out,
                     "--resolution", "0.02"])
        assert code == 0
        data = read_json(os.path.join(out, "oracle.json"))
        assert data["label_counts"]["genuine"] == 0
        assert data["connected_components"] == 1

    def test_lrsdp_slice_scan(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["oracle", case("demo_lrsdp.json"), "--out", out,
                     "--resolution", "0.04"])
        assert code == 0
        data = read_json(os.path.join(out, "oracle.json"))
        # analytic minimum of the diag(1,2) spectraplex instance is 1.0
        assert abs(data["global_cost"] - 1.0) <= 0.3

    def test_dimension_guard_exits_1(self, tmp_path, capsys):
        code = main(["oracle", case("demo_3bus.json"), "--out",
                     str(tmp_path / "out"), "--resolution", "0.1"])
        # demo_3bus has an unpinned root: 5 degrees of freedom
        assert code == 1
        assert "degrees of freedom" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", ["1e-300", "1e-7"])
    def test_scan_budget_is_checked_before_any_axis(self, tmp_path, capsys, resolution):
        # at 1e-7 each axis alone would hold about 3e7 floats (240 MB)
        tracemalloc.start()
        try:
            code = main(["oracle", case("demo_2bus.json"), "--out",
                         str(tmp_path / "out"), "--resolution", resolution])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "exceeds the scan budget" in capsys.readouterr().err
        assert peak < 8 * 2**20


    @pytest.mark.parametrize("edit, message", [
        (lambda data: data["lines"][0].update(l_max=-1.0),
         "error: line 0->1: l_max -1 < 0\n"),
        (lambda data: data["buses"][1].update(v_min=1.2, v_max=1.1),
         "error: bus 1: v_min 1.2 > v_max 1.1\n"),
    ], ids=["negative-current-limit", "reversed-voltage-box"])
    def test_empty_box_names_its_bus_or_line(self, tmp_path, capsys, edit, message):
        # an empty box is bad input, exit 1 naming it, not a resolution or
        # scan-budget fault; no square root of a negative limit is taken
        data = read_json(case("demo_2bus.json"))
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["oracle", str(bad), "--out", str(tmp_path / "out"),
                         "--resolution", "0.05"])
        assert code == 1
        assert capsys.readouterr().err == message
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestClassifyCommand:
    def test_demo_landscape(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["classify", case("demo_landscape.json"), "--out", out])
        assert code == 0
        data = read_json(os.path.join(out, "labels.json"))
        assert data["counts"] == {"none": 10, "global": 1, "pseudo": 1,
                                  "genuine": 2}

    def test_malformed_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": [[0.0]]}))
        assert main(["classify", str(bad), "--out", str(tmp_path / "out")]) == 1

    BAD_FIELDS = [
        # (field, new value, message on stderr)
        ("radius", math.nan, "radius: expected a finite number, got nan"),
        ("radius", True, "radius: expected a finite number, got True"),
        ("radius", 0, "radius must be positive"),
        ("costs", [math.nan] + [0.0] * 13, "costs[0]: expected a finite number, got nan"),
        ("costs", ["1.0"] + [0.0] * 13, "costs[0]: expected a finite number, got '1.0'"),
        ("costs", [0.0] * 13, "points must be (M, d) with matching costs"),
        ("points", [[math.inf]] + [[0.0]] * 13, "points[0][0]: expected a finite number, got inf"),
        ("points", [[0.0, 1.0]] + [[0.0]] * 13,
         "points: expected non-empty lists of one common length"),
        ("points", [], "points: expected a non-empty list, got []"),
        ("points", [5] * 14, "points[0]: expected a list of numbers, got 5"),
    ]

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS,
                             ids=["radius-nan", "radius-bool", "radius-zero",
                                  "costs-nan", "costs-string", "costs-short",
                                  "points-infinity", "points-ragged", "points-empty",
                                  "points-scalar"])
    def test_bad_field_exits_1_naming_it(self, tmp_path, capsys, field, value, message):
        data = read_json(case("demo_landscape.json"))
        assert len(data["points"]) == 14
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))  # NaN and Infinity as JSON literals
        assert main(["classify", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message}" in capsys.readouterr().err


class TestConfig:
    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples": 3, "seed": 9}))
        out = str(tmp_path / "run")
        code = main(["opf", case("demo_2bus.json"), "--out", out,
                     "--config", str(config), "--seed", "1"])
        assert code == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["sample_count"] == 3  # from config
        assert report["seed"] == 1          # flag wins

    def test_unknown_config_key_exits_1(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        code = main(["opf", case("demo_2bus.json"), "--out",
                     str(tmp_path / "out"), "--config", str(config)])
        assert code == 1

    @pytest.mark.parametrize("entry, message", [
        # parser attributes that are not flag options
        ({"input": case("demo_3bus.json")}, "config: unknown option 'input'"),
        ({"fn": 1}, "config: unknown option 'fn'"),
        ({"command": "lrsdp"}, "config: unknown option 'command'"),
        ({"config": "other.json"}, "config: unknown option 'config'"),
        ({"out": 5}, "--out: expected a string, got 5"),
    ], ids=["input", "fn", "command", "config", "out"])
    def test_config_sets_only_flag_options(self, tmp_path, capsys, monkeypatch,
                                           entry, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a bad config entry reached the solver")

        monkeypatch.setattr(cli, "solve_opf_relaxation", unreachable)
        monkeypatch.chdir(tmp_path)  # no --out flag, so the config's out applies
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry))
        code = main(["opf", case("demo_2bus.json"), "--config", str(config)])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--samp", "3"], ["--samples=3"]],
                             ids=["abbreviated", "joined"])
    def test_a_flag_wins_under_any_spelling_argparse_accepts(self, tmp_path, flag):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples": 0}))
        out = str(tmp_path / "run")
        code = main(["opf", case("demo_2bus.json"), "--out", out, *flag,
                     "--config", str(config)])
        assert code == 0
        assert read_json(os.path.join(out, "report.json"))["sample_count"] == 3


LOADED_AFTER_EACH_STEP = """
import json, sys
import relaxcert.cli

def loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.spatial", "scipy.stats")
                  if m in sys.modules)

steps = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    steps.append([argv[0], relaxcert.cli.main(argv), loaded()])
print(json.dumps(steps))
"""


class TestFreshInterpreter:
    """Each command in a new interpreter, as a user runs it; in-process
    tests cannot see what a command imports, since other tests have
    already loaded it."""

    def test_only_the_landscape_layer_loads_the_optimizer(self, tmp_path):
        out = str(tmp_path / "run")
        commands = [["opf", case("demo_2bus.json"), "--out", out],
                    ["lrsdp", case("demo_lrsdp.json"), "--out", out],
                    ["certify", case("demo_2bus.json"), "--out", out]]
        run = fresh_python("-c", LOADED_AFTER_EACH_STEP, json.dumps(commands))
        assert run.returncode == 0, run.stderr
        steps = json.loads(run.stdout.splitlines()[-1])
        assert steps == [["import", 0, []], ["opf", 0, []], ["lrsdp", 0, []],
                         ["certify", 0, []]]

    @pytest.mark.parametrize("argv, artifact", [
        (["oracle", case("demo_2bus.json"), "--resolution", "0.02"], "oracle.json"),
        (["classify", case("demo_landscape.json")], "labels.json"),
    ], ids=["oracle", "classify"])
    def test_a_cold_landscape_command_matches_the_in_process_run(
            self, tmp_path, argv, artifact):
        cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
        run = fresh_python("-m", "relaxcert.cli", *argv, "--out", cold)
        assert run.returncode == 0, run.stderr
        assert main([*argv, "--out", warm]) == 0
        a, b = (read_json(os.path.join(d, artifact)) for d in (cold, warm))
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b
