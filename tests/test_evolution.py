import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from geomqm import (
    LatticeSpec,
    OperatorError,
    build_hamiltonian,
    build_lattice,
    constant_metric,
    eigenvalues,
    flat_connection,
    heisenberg_evolve,
    heisenberg_residual,
    mult_op,
    propagator,
    unitarity_defect,
)
from geomqm.operators import DENSE_LIMIT, _dense


def interval(n):
    return build_lattice(LatticeSpec("interval", (n,), (1.0,)))


def free_hamiltonian(lat, m=1.0):
    return build_hamiltonian(lat, constant_metric(lat), None, None, m)


def test_diagonal_propagator_matches_exponential_oracle():
    lat = interval(12)
    vals = np.linspace(-1.0, 1.5, 12)
    H = mult_op(lat, vals)
    T = 2.0
    exact = np.diag(np.exp(-1j * vals * T))
    errs = []
    for steps in (20, 40):
        U = propagator(H, 0.0, T, steps)
        errs.append(np.max(np.abs(U - exact)))
    assert 3.2 < errs[0] / errs[1] < 4.8  # O(delta^2), ratio ~ 4


def test_unitarity_defect_many_steps():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    H = sp.csr_matrix(M + M.conj().T)
    U = propagator(H, 0.0, 1.0, 1000)
    assert unitarity_defect(U) <= 1e-10


def test_composition_with_aligned_steps():
    lat = interval(16)
    H = free_hamiltonian(lat)
    U02 = propagator(H, 0.0, 2.0, 20)
    U01 = propagator(H, 0.0, 1.0, 10)
    U12 = propagator(H, 1.0, 2.0, 10)
    assert np.max(np.abs(U12 @ U01 - U02)) <= 1e-12


def test_cyclicity_backward_is_dagger():
    lat = interval(16)
    H = free_hamiltonian(lat)
    U = propagator(H, 0.0, 1.5, 15)
    eye = U.conj().T @ U
    assert np.max(np.abs(eye - np.eye(16))) <= 1e-10


def test_propagator_preconditions():
    lat = interval(8)
    H = free_hamiltonian(lat)
    for steps in (0, -3, 4.0, 2.5):
        with pytest.raises(OperatorError, match="steps must be an integer >= 1"):
            propagator(H, 0.0, 1.0, steps)
    with pytest.raises(OperatorError, match="need finite t1 < t2"):
        propagator(H, 1.0, 1.0, 4)
    assert np.array_equal(propagator(H, 0.0, 1.0, np.int64(4)), propagator(H, 0.0, 1.0, 4))


def sequential_propagator(H, t1, t2, steps):
    """The step-by-step product of `steps` Cayley steps, one dense LU
    solve each: the oracle for the spectral route of `propagator`."""
    Hd = _dense(H)
    delta = (t2 - t1) / steps
    plus = np.eye(len(Hd)) + 0.5j * delta * Hd
    minus = np.eye(len(Hd)) - 0.5j * delta * Hd
    lu = sla.lu_factor(plus)
    u = np.eye(len(Hd))
    for _ in range(steps):
        u = sla.lu_solve(lu, minus @ u)
    return u


def sequential_heisenberg_residual(H, a, t, delta):
    """`heisenberg_residual` with its three propagators taken from
    sequential_propagator, n_minus steps to t - delta and one step each
    after it."""
    n_minus = max(1, round((t - delta) / delta)) if t > delta else 0
    u_minus = sequential_propagator(H, 0.0, t - delta, n_minus) if n_minus else np.eye(len(a))
    u_t = sequential_propagator(H, t - delta, t, 1) @ u_minus
    u_plus = sequential_propagator(H, t, t + delta, 1) @ u_t
    a_minus, a_t, a_plus = (heisenberg_evolve(a, u) for u in (u_minus, u_t, u_plus))
    Hd = _dense(H)
    return float(np.max(np.abs((a_plus - a_minus) / (2.0 * delta) - 1j * (Hd @ a_t - a_t @ Hd))))


def _ring_with_flux():
    lat = build_lattice(LatticeSpec("ring", (48,), (1.0,)))
    return build_hamiltonian(lat, constant_metric(lat), flat_connection(lat, (0.7,)), None, 1.0)


def _torus_with_random_potential():
    lat = build_lattice(LatticeSpec("torus", (8, 8), (1.0, 1.0)))
    phi = np.random.default_rng(5).uniform(-0.5, 0.5, lat.n_sites)
    return build_hamiltonian(lat, constant_metric(lat), None, phi, 1.0)


@pytest.mark.parametrize("make", [
    lambda: free_hamiltonian(interval(64)),
    _ring_with_flux,
    _torus_with_random_potential,
], ids=["interval64", "ring48-flux", "torus8x8-potential"])
def test_static_propagator_matches_the_sequential_oracle(make):
    H = make()
    spectral = propagator(H, 0.0, 1.0, 40)
    sequential = sequential_propagator(H, 0.0, 1.0, 40)
    assert np.max(np.abs(spectral - sequential)) <= 1e-12


def test_ring_eigenphases_are_cayley_phases_of_the_bloch_levels():
    n, alpha, steps, T = 48, 0.7, 25, 1.0
    U = propagator(_ring_with_flux(), 0.0, T, steps)
    bloch = 1.0 - np.cos((2 * np.pi * np.arange(n) - alpha) / n)
    expect = -2 * steps * np.arctan(0.5 * (T / steps) * bloch)  # in [-2, 0]: no wrap
    got = np.angle(np.linalg.eigvals(U))
    assert np.max(np.abs(np.sort(got) - np.sort(expect))) <= 1e-12


def test_diagonal_phase_error_within_the_cayley_bound():
    lat = interval(12)
    vals = np.linspace(-1.5, 1.2, 12)
    T, steps = 2.0, 20
    delta = T / steps
    U = propagator(mult_op(lat, vals), 0.0, T, steps)
    # arctan(x) >= x - x^3/3 bounds the lag behind exp(-i lambda T)
    lag = np.angle(np.diag(U) * np.exp(1j * vals * T))
    bound = T * delta**2 * np.abs(vals) ** 3 / 12
    assert np.all(np.abs(lag) <= bound + 1e-13)
    assert np.abs(lag[0]) >= 0.95 * bound[0]  # and it is the leading term


def test_heisenberg_identity_evolution():
    lat = interval(8)
    a = np.arange(8.0)
    at = heisenberg_evolve(a, np.eye(8, dtype=complex))
    assert np.allclose(at, np.diag(a))


def test_heisenberg_spectrum_preserved():
    lat = interval(24)
    H = free_hamiltonian(lat)
    rng = np.random.default_rng(1)
    a = rng.normal(size=24)
    U = propagator(H, 0.0, 1.0, 30)
    at = heisenberg_evolve(a, U)
    assert np.max(np.abs(np.linalg.eigvalsh(at) - np.sort(a))) <= 1e-10
    assert abs(np.max(np.abs(np.linalg.eigvalsh(at))) - np.max(np.abs(a))) <= 1e-10


def test_slices_fail_to_commute():
    lat = interval(64)
    H = free_hamiltonian(lat)
    x = lat.positions[:, 0]
    U = propagator(H, 0.0, 1.0, 40)
    xt = heisenberg_evolve(x, U)
    x0 = np.diag(x.astype(complex))
    assert np.linalg.norm(x0 @ xt - xt @ x0, 2) > 0.01


def test_heisenberg_residual_constant_field():
    lat = interval(16)
    H = free_hamiltonian(lat)
    assert heisenberg_residual(H, np.full(16, 2.0), 1.0, 0.1) <= 1e-12


def test_heisenberg_residual_second_order():
    lat = interval(24)
    H = free_hamiltonian(lat)
    x = lat.positions[:, 0]
    r1 = heisenberg_residual(H, x, 1.0, 0.2)
    r2 = heisenberg_residual(H, x, 1.0, 0.1)
    assert 3.2 < r1 / r2 < 4.8


def test_heisenberg_residual_diagonal_hamiltonian():
    lat = interval(12)
    H = mult_op(lat, np.linspace(0.0, 1.0, 12))
    rng = np.random.default_rng(2)
    a = rng.normal(size=12)
    # diagonal H commutes with mult(a) evolution: a_t = a for all t
    assert heisenberg_residual(H, a, 1.0, 0.1) <= 1e-12


def test_heisenberg_residual_reaches_back_to_t_minus_delta():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    H = sp.csr_matrix(M + M.conj().T)
    a = rng.normal(size=12)
    at_delta = heisenberg_residual(H, a, 0.1, 0.1)
    values = set()
    for t in (0.11, 0.12, 0.14, 0.149):
        static = heisenberg_residual(H, a, t, 0.1)
        assert abs(static - sequential_heisenberg_residual(H, a, t, 0.1)) <= 1e-10 * static
        values.add(static)
    assert len(values) == 4 and at_delta not in values
    for t in (0.05, 0.0999):
        with pytest.raises(OperatorError, match="need t >= delta"):
            heisenberg_residual(H, a, t, 0.1)


@pytest.mark.parametrize("call", [
    lambda H, a: eigenvalues(H),
    lambda H, a: propagator(H, 0.0, 1.0, 2),
    lambda H, a: heisenberg_residual(H, a, 0.5, 0.5),  # t = delta: the identity branch
], ids=["eigenvalues", "propagator", "heisenberg_residual"])
def test_dense_paths_refuse_above_the_dense_limit_before_allocating(monkeypatch, call):
    n = DENSE_LIMIT + 1
    H = sp.identity(n, dtype=complex, format="csr")

    def refuse(*args, **kwargs):
        raise AssertionError("an n x n dense matrix was made")

    monkeypatch.setattr(sp.csr_matrix, "toarray", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    with pytest.raises(OperatorError, match=f"dimension {n} exceeds the dense limit 4096"):
        call(H, np.zeros(n))
