"""Reference computations the tests compare the production routes against."""
from kway.linalg import trace_norm
from kway.single_query import build_discrimination_pair


def dense_delta(n, pattern):
    """delta = B - (N - 1) from the dense density operators and the eigensolver."""
    p0, rho0, p1, rho1 = build_discrimination_pair(n, pattern)
    return 0.5 - n / 2 + (n + 1) / 2 * trace_norm(p1 * rho1 - p0 * rho0)
