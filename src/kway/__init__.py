"""Desk-scale toolkit for k-way-signaling bounds and their quantum violation.

Covers: behavior tables and the witness inequality, the k-way polytope
(closed-form vertex count and witness bound, compact LP membership with
exact certificates), Helstrom discrimination of phase-encoded
spatial superpositions (numeric and closed-form routes), and the Grover-style
multi-query protocol with its quadratic speed-up over classical querying.
"""
from .behavior import (
    Behavior,
    BehaviorError,
    classical_win_bound,
    eval_B,
)
from .grover import (
    optimal_query_count,
    quantum_win_prob,
    speedup_curve,
)
from .polytope import (
    CertificationError,
    DeterministicVertex,
    MembershipResult,
    is_k_way,
    max_B_over_vertices,
    vertex_count,
)
from .single_query import (
    PhasePattern,
    build_discrimination_pair,
    delta_closed_form,
    delta_max,
    delta_numeric,
    helstrom,
    induced_behavior,
    violation_threshold,
)

__version__ = "0.1.0"
