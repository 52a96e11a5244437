"""Seeded instance generators for the benchmark.

The draws follow the test-suite generators (random radial feeders fitted
around a forward-substitution point, pinned-root two-bus feeders, trace-one
spectraplex SDPs), but this module is self-contained: it uses numpy only and
emits plain dicts in the case and instance file schemas, so neither edits to
the tests nor edits to the package change the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_pairs(M: np.ndarray) -> list:
    return [[[float(v), 0.0] for v in row] for row in M]


def _forward_point(parents: list[int], z: np.ndarray, S: np.ndarray,
                   root_v: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Injections, squared voltages and squared currents that satisfy the
    DistFlow equations with the cone held at equality.  Line k runs from
    ``parents[k]`` to bus ``k + 1``, and every parent precedes its child."""
    n_bus = len(parents) + 1
    v = np.zeros(n_bus)
    ell = np.zeros(n_bus - 1)
    v[0] = root_v
    for k, t in enumerate(parents):
        ell[k] = abs(S[k]) ** 2 / v[t]
        v[k + 1] = v[t] - 2.0 * (z[k] * np.conj(S[k])).real + abs(z[k]) ** 2 * ell[k]
    s = np.zeros(n_bus, dtype=complex)
    np.add.at(s, parents, S)
    np.add.at(s, np.arange(1, n_bus), -(S - z * ell))
    return s, v, ell


def radial_feeder(rng: np.random.Generator, n_bus: int,
                  finite_s_box: bool = False) -> dict:
    """Random radial feeder that meets the structural assumptions.

    Voltage, injection and current boxes are fitted around a
    forward-substitution point, so the case is feasible with room for cone
    inflation.  Injections are unbounded below (``s_min: null``) unless
    ``finite_s_box`` is set.
    """
    parents = [int(rng.integers(0, k)) for k in range(1, n_bus)]
    n_line = n_bus - 1
    z = rng.uniform(0.01, 0.05, n_line) + 1j * rng.uniform(0.01, 0.05, n_line)
    S = rng.normal(0, 0.3, n_line) + 1j * rng.normal(0, 0.3, n_line)
    s, v, ell = _forward_point(parents, z, S, 1.0)

    v_lo = min(0.9, float(np.min(v)) - 0.05)
    v_hi = max(1.1, float(np.max(v)) + 0.05)
    buses = []
    for i in range(n_bus):
        s_lo = complex(s[i].real - 4.0, s[i].imag - 4.0)
        buses.append({
            "id": str(i), "v_min": v_lo, "v_max": v_hi,
            "s_min": _pair(s_lo) if finite_s_box else None,
            "s_max": _pair(complex(s[i].real + 2.0, s[i].imag + 2.0)),
        })
    lines = []
    for k, t in enumerate(parents):
        cap = v_lo / abs(z[k]) ** 2  # current-limit ceiling of the assumptions
        lines.append({"from": str(t), "to": str(k + 1), "z": _pair(z[k]),
                      "l_max": float(min(0.999 * cap, ell[k] + 2.0))})
    return {"buses": buses, "lines": lines, "root": "0",
            "cost": _linear_cost(rng, n_bus)}


def two_bus_feeder(rng: np.random.Generator) -> dict:
    """Single-line feeder with the root voltage pinned: its eliminated model
    has two real degrees of freedom (Re S, Im S)."""
    z = complex(rng.uniform(0.01, 0.04), rng.uniform(0.01, 0.04))
    l_max = min(2.0, 0.999 * 0.9 / abs(z) ** 2)
    buses = [
        {"id": "0", "v_min": 1.0, "v_max": 1.0, "s_min": None,
         "s_max": [2.0, 2.0]},
        {"id": "1", "v_min": 0.9, "v_max": 1.1, "s_min": None,
         "s_max": [2.0, 2.0]},
    ]
    lines = [{"from": "0", "to": "1", "z": _pair(z), "l_max": l_max}]
    return {"buses": buses, "lines": lines, "root": "0",
            "cost": _linear_cost(rng, 2)}


def _linear_cost(rng: np.random.Generator, n_bus: int) -> dict:
    return {"cp": [float(c) for c in rng.uniform(0.5, 2.0, n_bus)],
            "cq": [float(c) for c in rng.uniform(0.1, 1.0, n_bus)],
            "qp": [0.0] * n_bus, "qq": [0.0] * n_bus}


def spectraplex(rng: np.random.Generator, n: int,
                degenerate: bool = False) -> dict:
    """Trace-one SDP (one constraint, A = I, b = 1, target rank 1).  A generic
    symmetric C has a rank-one optimum; ``degenerate`` sets C = I, whose
    optimum set is the whole spectraplex."""
    if degenerate:
        C = np.eye(n)
    else:
        M = rng.normal(size=(n, n))
        C = (M + M.T) / 2
    return {"n": n, "m": 1, "r": 1, "C": _matrix_pairs(C),
            "A": [_matrix_pairs(np.eye(n))], "b": [1.0]}
