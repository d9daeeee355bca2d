"""Time evolution by unitary Cayley steps, and Heisenberg-picture checks.

A propagator of the static Hamiltonian H is an ordered product of Cayley
(Crank-Nicolson) steps

    U_step = (1 + i H delta / 2)^-1 (1 - i H delta / 2).

Each step is exactly unitary, so unitarity never drifts with the step
count.  H = V diag(lambda) V^dagger commutes with every step, so N steps
multiply to a function of H, taken from one Hermitian eigendecomposition
(O(n^3), once, whatever N):

    U = V diag(exp(-2i N arctan(delta lambda / 2))) V^dagger.

Since x - x^3/3 <= arctan(x) <= x for x >= 0, the phase of each level
lags exp(-i lambda T), T = N delta, by at most T delta^2 |lambda|^3 / 12,
which is also its leading term.  The step-by-step product would leave
subnormal round-off in the entries that should vanish, and every later
product with such a U runs about ten times slower; the eigenvector route
(the standard stable way to apply a function of a normal matrix) does
not.  Dense matrices throughout, so dimensions above
operators.DENSE_LIMIT are refused before any n x n matrix is made.
"""

from __future__ import annotations

import numpy as np

from .operators import OperatorError, _asmat, _dense


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


def propagator(H, t1, t2, steps):
    """Ordered product of `steps` Cayley steps of the static operator H
    from t1 to t2, as a dense complex ndarray.

    One `eigh` of H and the phases -2 steps arctan(delta lambda / 2),
    delta = (t2 - t1) / steps.  Composition is exact when step boundaries
    align: U(t2, t3) U(t1, t2) = U(t1, t3).  t1 < t2 must both be finite.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise OperatorError(f"steps must be an integer >= 1, got {steps!r}")
    if not -np.inf < t1 < t2 < np.inf:
        raise OperatorError(f"need finite t1 < t2, got {t1} -> {t2}")
    lam, V = np.linalg.eigh(_dense(H))
    return _spectral(V, _cayley_phase(lam, (t2 - t1) / steps, steps))


def unitarity_defect(u):
    """Max-entry defect of U^dagger U = 1."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def heisenberg_evolve(a, U):
    """Heisenberg-picture observable a_t = U^dagger mult(a) U (dense)."""
    a = np.asarray(a, dtype=float)
    if U.shape[0] != len(a):
        raise OperatorError("dimension mismatch between field and unitary")
    return U.conj().T @ (a[:, None] * U)


def heisenberg_residual(H, a, t, delta):
    """Max-entry defect of the Heisenberg equation a_dot = i [H, a] for a
    static operator H.

    Central difference (a_{t+delta} - a_{t-delta}) / (2 delta) against
    i [H, a_t].  The propagator to t - delta takes
    max(1, round((t - delta) / delta)) Cayley steps (none at t = delta),
    the two after it one step of delta each, all from one decomposition
    of H; t < delta and a t or delta that is not finite are refused.
    O(delta^2).
    """
    if not 0 < delta < np.inf:
        raise OperatorError(f"delta must be positive and finite, got {delta}")
    if not delta <= t < np.inf:
        raise OperatorError(f"need t >= delta and t finite, got t = {t}, delta = {delta}")
    n_minus = max(1, round((t - delta) / delta)) if t > delta else 0
    Hd = _dense(H)
    lam, V = np.linalg.eigh(Hd)
    phase = _cayley_phase(lam, (t - delta) / n_minus, n_minus) if n_minus else 0.0
    step = _cayley_phase(lam, delta, 1)
    # made one at a time, so only one n x n unitary is held at once
    a_minus, a_t, a_plus = (heisenberg_evolve(a, _spectral(V, phase + k * step)) for k in range(3))
    fd = (a_plus - a_minus) / (2.0 * delta)
    rhs = 1j * (Hd @ a_t - a_t @ Hd)
    return float(np.max(np.abs(fd - rhs)))
