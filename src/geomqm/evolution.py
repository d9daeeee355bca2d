"""Time evolution by unitary Cayley steps, and Heisenberg-picture checks.

Propagators are ordered products of Cayley (Crank-Nicolson) steps

    U_step = (1 + i H delta / 2)^-1 (1 - i H delta / 2)

with the Hamiltonian sampled at step midpoints.  Each step is exactly
unitary, so unitarity never drifts with the step count.

A static operator H = V diag(lambda) V^dagger commutes with every step,
so N steps multiply to a function of H, taken from one Hermitian
eigendecomposition (O(n^3), once, whatever N):

    U = V diag(exp(-2i N arctan(delta lambda / 2))) V^dagger.

Since x - x^3/3 <= arctan(x) <= x for x >= 0, the phase of each level
lags exp(-i lambda T), T = N delta, by at most T delta^2 |lambda|^3 / 12,
which is also its leading term.  The sequential product would leave
subnormal round-off in the entries that should vanish, and every later
product with such a U runs about ten times slower; the eigenvector route
(the standard stable way to apply a function of a normal matrix) does
not.  A callable t -> H(t) has no fixed eigenbasis, so its steps are
solved one by one with a dense LU (O(n^3) per step); that product is
also the oracle the static route is tested against.  Dense matrices
throughout, so dimensions above operators.DENSE_LIMIT are refused before
any n x n matrix is made.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .operators import OperatorError, _asmat, _dense, _dense_size


def _sample(h_sampler, t):
    return _dense(h_sampler(t) if callable(h_sampler) else h_sampler)


def _cayley_phase(lam, delta, steps):
    """Phases phi of `steps` Cayley steps of size delta on the levels lam,
    U = exp(-i phi), from (1 - i lam delta / 2) / (1 + i lam delta / 2)
    = exp(-2i arctan(lam delta / 2))."""
    return 2.0 * steps * np.arctan(0.5 * delta * lam)


def _spectral(V, phase):
    """V diag(exp(-i phase)) V^dagger."""
    return (V * np.exp(-1j * phase)) @ V.conj().T


def suggested_steps(H, t1, t2):
    """Step count keeping ||H|| * delta below 0.1.

    Uses the row-sum bound on the spectral norm (exact enough for step
    selection and cheap on sparse operators).
    """
    mat = _asmat(H)
    norm = float(np.max(np.abs(mat).sum(axis=1)))
    return max(1, int(np.ceil(norm * (t2 - t1) / 0.1)))


def propagator(h_sampler, t1, t2, steps):
    """Ordered product of `steps` midpoint Cayley steps from t1 to t2, as
    a dense complex ndarray.

    h_sampler is either a fixed operator or a callable t -> operator.  A
    fixed operator takes one `eigh` and the phases
    -2 steps arctan(delta lambda / 2), delta = (t2 - t1) / steps; a
    callable takes one LU solve per step.  Composition is exact when
    step boundaries align: U(t2, t3) U(t1, t2) = U(t1, t3).
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise OperatorError(f"steps must be an integer >= 1, got {steps!r}")
    if not t2 > t1:
        raise OperatorError(f"need t2 > t1, got {t1} -> {t2}")
    delta = (t2 - t1) / steps
    if not callable(h_sampler):
        lam, V = np.linalg.eigh(_dense(h_sampler))
        return _spectral(V, _cayley_phase(lam, delta, steps))
    u = None
    for s in range(steps):
        Hd = _sample(h_sampler, t1 + (s + 0.5) * delta)
        n = Hd.shape[0]
        plus = np.eye(n) + 0.5j * delta * Hd
        minus = np.eye(n) - 0.5j * delta * Hd
        u = sla.lu_solve(sla.lu_factor(plus), minus if u is None else minus @ u)
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
    i [H(t), a_t].  The propagator to t - delta takes
    max(1, round((t - delta) / delta)) Cayley steps (none at t = delta),
    the two after it one step of delta each; t < delta is refused.  A
    fixed operator is decomposed once for all three.  O(delta^2) for
    static Hamiltonians.
    """
    if delta <= 0:
        raise OperatorError("delta must be positive")
    if t < delta:
        raise OperatorError(f"need t >= delta, got t = {t}, delta = {delta}")
    _dense_size(len(a))
    n_minus = max(1, round((t - delta) / delta)) if t > delta else 0
    Ht = _sample(h_sampler, t)
    if callable(h_sampler):
        u_minus = (
            propagator(h_sampler, 0.0, t - delta, n_minus)
            if n_minus
            else np.eye(len(a), dtype=complex)
        )
        u_t = propagator(h_sampler, t - delta, t, 1) @ u_minus
        u_plus = propagator(h_sampler, t, t + delta, 1) @ u_t
        unitaries = (u_minus, u_t, u_plus)
    else:
        lam, V = np.linalg.eigh(Ht)
        phase = _cayley_phase(lam, (t - delta) / n_minus, n_minus) if n_minus else 0.0
        step = _cayley_phase(lam, delta, 1)
        # made one at a time, so only one n x n unitary is held at once
        unitaries = (_spectral(V, phase + k * step) for k in range(3))
    a_minus, a_t, a_plus = (heisenberg_evolve(a, u) for u in unitaries)
    fd = (a_plus - a_minus) / (2.0 * delta)
    rhs = 1j * (Ht @ a_t - a_t @ Ht)
    return float(np.max(np.abs(fd - rhs)))
