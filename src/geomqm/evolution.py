"""Time evolution by unitary Cayley steps, and Heisenberg-picture checks.

Propagators are ordered products of Cayley (Crank-Nicolson) steps

    U_step = (1 + i H delta / 2)^-1 (1 - i H delta / 2)

with the Hamiltonian sampled at step midpoints.  Each step is exactly
unitary up to the linear-solve tolerance, so unitarity never drifts with
the step count; the error against exp(-i H T) is O(delta^2).  Dense
matrices throughout, so dimensions above operators.DENSE_LIMIT are
refused before any n x n matrix is made.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .operators import OperatorError, _asmat, _dense, _dense_size


def _sample(h_sampler, t):
    return _dense(h_sampler(t) if callable(h_sampler) else h_sampler)


def suggested_steps(H, t1, t2):
    """Step count keeping ||H|| * delta below 0.1.

    Uses the row-sum bound on the spectral norm (exact enough for step
    selection and cheap on sparse operators).
    """
    mat = _asmat(H)
    norm = float(np.max(np.abs(mat).sum(axis=1)))
    return max(1, int(np.ceil(norm * (t2 - t1) / 0.1)))


def propagator(h_sampler, t1, t2, steps):
    """Ordered product of midpoint Cayley steps from t1 to t2, as a dense
    complex ndarray.

    h_sampler is either a fixed operator or a callable t -> operator.
    Composition is exact when step boundaries align:
    U(t2, t3) U(t1, t2) = U(t1, t3).
    """
    if steps < 1:
        raise OperatorError(f"steps must be >= 1, got {steps}")
    if not t2 > t1:
        raise OperatorError(f"need t2 > t1, got {t1} -> {t2}")
    delta = (t2 - t1) / steps
    static = not callable(h_sampler)
    u = None
    lu = None
    minus = None
    for s in range(steps):
        if lu is None or not static:
            Hd = _sample(h_sampler, t1 + (s + 0.5) * delta)
            n = Hd.shape[0]
            plus = np.eye(n) + 0.5j * delta * Hd
            minus = np.eye(n) - 0.5j * delta * Hd
            lu = sla.lu_factor(plus)
        u = sla.lu_solve(lu, minus if u is None else minus @ u)
    return u


def unitarity_defect(u):
    """Max-entry defect of U^dagger U = 1."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def heisenberg_evolve(a, U):
    """Heisenberg-picture observable a_t = U^dagger mult(a) U (dense)."""
    a = np.asarray(a, dtype=float)
    if U.shape[0] != len(a):
        raise OperatorError("dimension mismatch between field and unitary")
    return U.conj().T @ (a[:, None] * U)


def heisenberg_residual(h_sampler, a, t, delta):
    """Max-entry defect of the Heisenberg equation a_dot = i [H, a].

    Central difference (a_{t+delta} - a_{t-delta}) / (2 delta) against
    i [H(t), a_t], with propagators built from Cayley steps of size
    delta (t should be an integer multiple of delta).  O(delta^2) for
    static Hamiltonians.
    """
    if delta <= 0:
        raise OperatorError("delta must be positive")
    _dense_size(len(a))
    n_minus = max(0, int(round((t - delta) / delta)))
    u_minus = (
        propagator(h_sampler, 0.0, t - delta, n_minus)
        if n_minus
        else np.eye(len(a), dtype=complex)
    )
    u_t = propagator(h_sampler, t - delta, t, 1) @ u_minus
    u_plus = propagator(h_sampler, t, t + delta, 1) @ u_t
    a_minus = heisenberg_evolve(a, u_minus)
    a_t = heisenberg_evolve(a, u_t)
    a_plus = heisenberg_evolve(a, u_plus)
    fd = (a_plus - a_minus) / (2.0 * delta)
    Ht = _sample(h_sampler, t)
    rhs = 1j * (Ht @ a_t - a_t @ Ht)
    return float(np.max(np.abs(fd - rhs)))
