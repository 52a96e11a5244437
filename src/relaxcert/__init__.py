"""Certification toolkit for convex relaxations: restore feasibility from
relaxed solutions of radial-network OPF and low-rank SDP, and check the
monotone-path conditions that certify exact relaxation and the absence of
spurious local optima."""

from relaxcert.compose import (
    CertifiedProblem,
    CompositionError,
    compose_cost,
    intersect_feasible,
    union_feasible,
)
from relaxcert.core import (
    CertificateViolationError,
    HandleValues,
    PathTrace,
    PreconditionError,
    ProblemHandle,
    arc_length_reparameterize,
    check_piecewise_linear_family,
    norm_m,
    partition_length,
)

__all__ = [
    "CertificateViolationError",
    "CertifiedProblem",
    "CompositionError",
    "HandleValues",
    "PathTrace",
    "PreconditionError",
    "ProblemHandle",
    "arc_length_reparameterize",
    "check_piecewise_linear_family",
    "compose_cost",
    "intersect_feasible",
    "norm_m",
    "partition_length",
    "union_feasible",
]

__version__ = "0.1.0"
