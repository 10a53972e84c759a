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
    GameSpec,
    classical_win_bound,
    eval_B,
    win_prob_game1,
    win_prob_game2,
)
from .grover import (
    GroverRun,
    ScanRecord,
    grover_state_closed,
    grover_state_iterative,
    optimal_query_count,
    quantum_win_prob,
    speedup_curve,
)
from .polytope import (
    CertificationError,
    DeterministicVertex,
    MembershipResult,
    enumerate_vertices,
    is_k_way,
    max_B_over_vertices,
    vertex_count,
    vertex_to_behavior,
)
from .single_query import (
    BinaryPOVM,
    ClosedFormSpectrum,
    PhasePattern,
    Regime,
    apply_phase_oracle,
    build_discrimination_pair,
    delta_closed_form,
    delta_max,
    delta_numeric,
    helstrom,
    induced_behavior,
    uniform_state,
    violation_threshold,
)

__version__ = "0.1.0"
