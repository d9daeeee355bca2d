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

`decompose(H)` takes that decomposition once as an `Eigensystem`, and
`propagator` and `heisenberg_residual` accept it wherever they accept H
(given an operator, they decompose it themselves), so the evolve task's
two propagators and its residual share one O(n^3) `eigh`.  The residual
spends each of its three unitaries on its field as soon as it is made
(conjugated in place), forms the central difference in place, and
rebuilds dense H only for the commutator: with the eigenvectors it holds
at most six n x n complex matrices, 16 n^2 bytes each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperatorError, _asmat, _dense, _row_sums


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
    if not -np.inf < t1 < t2 < np.inf:
        raise OperatorError(f"need finite t1 < t2, got {t1} -> {t2}")
    mat = _asmat(H)
    norm = float(np.max(_row_sums(mat, np.abs(mat.data))))
    return max(1, int(np.ceil(norm * (t2 - t1) / 0.1)))


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """H = vectors diag(levels) vectors^dagger for the static operator op."""

    op: object
    levels: np.ndarray
    vectors: np.ndarray


def decompose(H):
    """The Eigensystem of H from one dense `eigh`; a dimension above
    operators.DENSE_LIMIT is refused before the dense matrix is made."""
    levels, vectors = np.linalg.eigh(_dense(H))
    return Eigensystem(H, levels, vectors)


def _eigensystem(H):
    return H if isinstance(H, Eigensystem) else decompose(H)


def propagator(H, t1, t2, steps):
    """Ordered product of `steps` Cayley steps of the static operator H
    (or its Eigensystem) from t1 to t2, as a dense complex ndarray.

    One `eigh` of H and the phases -2 steps arctan(delta lambda / 2),
    delta = (t2 - t1) / steps.  Composition is exact when step boundaries
    align: U(t2, t3) U(t1, t2) = U(t1, t3).  t1 < t2 must both be finite,
    and steps an integer >= 1 that is not a bool.
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise OperatorError(f"steps must be an integer >= 1, got {steps!r}")
    if not -np.inf < t1 < t2 < np.inf:
        raise OperatorError(f"need finite t1 < t2, got {t1} -> {t2}")
    spectrum = _eigensystem(H)
    return _spectral(spectrum.vectors, _cayley_phase(spectrum.levels, (t2 - t1) / steps, steps))


def unitarity_defect(u):
    """Max-entry defect of U^dagger U = 1; u must be square."""
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise OperatorError(f"u must be a square matrix, got shape {u.shape}")
    w = u.conj().T @ u
    w -= np.eye(u.shape[0])
    return float(np.max(np.abs(w)))


def heisenberg_evolve(a, U):
    """Heisenberg-picture observable a_t = U^dagger mult(a) U (dense); U
    must be square and match a, and is left unchanged."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or U.shape != (a.size, a.size):
        raise OperatorError(f"dimension mismatch between field and unitary: U must be "
                            f"{a.size}x{a.size} for a of shape {a.shape}, got {U.shape}")
    return _evolve(a, np.array(U))


def _evolve(a, U):
    """U^dagger mult(a) U, conjugating U in place: U is spent."""
    aU = a[:, None] * U
    np.conj(U, out=U)
    return U.T @ aU


def heisenberg_residual(H, a, t, delta):
    """Max-entry defect of the Heisenberg equation a_dot = i [H, a] for a
    static operator H (or its Eigensystem).

    Central difference (a_{t+delta} - a_{t-delta}) / (2 delta) against
    i [H, a_t].  The propagator to t - delta takes
    max(1, round((t - delta) / delta)) Cayley steps (none at t = delta),
    the two after it one step of delta each, all from one decomposition
    of H; t < delta, a t or delta that is not finite, and a field a that
    is not finite or not of shape (n,) are refused before it.  O(delta^2).
    """
    if not 0 < delta < np.inf:
        raise OperatorError(f"delta must be positive and finite, got {delta}")
    if not delta <= t < np.inf:
        raise OperatorError(f"need t >= delta and t finite, got t = {t}, delta = {delta}")
    a = np.asarray(a, dtype=float)
    n = len(H.levels) if isinstance(H, Eigensystem) else _asmat(H).shape[0]
    if a.shape != (n,):
        raise OperatorError(f"a must have shape ({n},) for a {n}-site operator, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise OperatorError("a must be finite")
    spectrum = _eigensystem(H)
    lam, V = spectrum.levels, spectrum.vectors
    n_minus = max(1, round((t - delta) / delta)) if t > delta else 0
    phase = _cayley_phase(lam, (t - delta) / n_minus, n_minus) if n_minus else 0.0
    step = _cayley_phase(lam, delta, 1)
    # the phases to t - delta, t and t + delta; each unitary is spent on
    # its field as soon as it is made
    minus, now, plus = (phase + k * step for k in range(3))
    fd = _evolve(a, _spectral(V, plus))
    fd -= _evolve(a, _spectral(V, minus))
    fd /= 2.0 * delta
    a_t = _evolve(a, _spectral(V, now))
    Hd = _dense(spectrum.op)
    rhs = Hd @ a_t
    rhs -= a_t @ Hd
    np.multiply(1j, rhs, out=rhs)
    fd -= rhs
    return float(np.max(np.abs(fd)))
