"""Desk-scale toolkit for k-way-signaling bounds and their quantum violation.

Import each name from its module; `import kway` alone loads none of them:

- `kway.behavior`: behavior tables, the witness B and the classical bound;
- `kway.polytope`: the k-way polytope (closed-form vertex count and
  witness bound, compact LP membership with exact certificates);
- `kway.exactlp`: the exact arithmetic behind those certificates;
- `kway.linalg`: Hermitian eigensolves;
- `kway.single_query`: Helstrom discrimination of phase-encoded spatial
  superpositions (numeric and closed-form routes);
- `kway.grover`: the Grover-style multi-query protocol and its quadratic
  speed-up over classical querying;
- `kway.cli`: the `kway` command.
"""

__version__ = "0.1.0"
