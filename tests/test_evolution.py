import json
import tracemalloc

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
from geomqm import evolution
from geomqm.evolution import decompose, suggested_steps
from geomqm.operators import DENSE_LIMIT, _dense
from geomqm.scenario import run_scenario, validate_config


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


def separate_propagator(H, t1, t2, steps):
    """`propagator` as first written: its own `eigh` of dense H on every call."""
    lam, V = np.linalg.eigh(_dense(H))
    phase = 2.0 * steps * np.arctan(0.5 * ((t2 - t1) / steps) * lam)
    return (V * np.exp(-1j * phase)) @ V.conj().T


def separate_heisenberg_residual(H, a, t, delta):
    """`heisenberg_residual` as first written: a third `eigh`, all three
    evolved fields held at once, out-of-place arithmetic."""
    n_minus = max(1, round((t - delta) / delta)) if t > delta else 0
    Hd = _dense(H)
    lam, V = np.linalg.eigh(Hd)
    phase = 2.0 * n_minus * np.arctan(0.5 * ((t - delta) / n_minus) * lam) if n_minus else 0.0
    step = 2.0 * 1 * np.arctan(0.5 * delta * lam)
    U = [(V * np.exp(-1j * (phase + k * step))) @ V.conj().T for k in range(3)]
    a_minus, a_t, a_plus = (u.conj().T @ (a[:, None] * u) for u in U)
    fd = (a_plus - a_minus) / (2.0 * delta)
    rhs = 1j * (Hd @ a_t - a_t @ Hd)
    return float(np.max(np.abs(fd - rhs)))


def separate_evolve_payload(doc):
    """The evolve task's payload by its first formulas: three
    decompositions of the same H, every n x n intermediate kept."""
    cfg, lat, fields = validate_config(doc)
    H = build_hamiltonian(lat, *fields, cfg["mass"])
    duration = cfg["params.duration"]
    steps = cfg["params.steps"] or suggested_steps(H, 0.0, duration)
    steps += steps % 2
    U = separate_propagator(H, 0.0, duration, steps)
    half = separate_propagator(H, 0.0, duration / 2, steps // 2)
    probe = cfg["params.probe_delta"] or duration / steps
    return {
        "steps": steps,
        "unitarity_defect": unitarity_defect(U),
        "composition_defect": float(np.max(np.abs(half @ half - U))),
        "heisenberg_residual": separate_heisenberg_residual(H, lat.positions[:, 0], duration / 2.0,
                                                            probe),
    }


def evolve_doc(lattice, params, fields=None):
    doc = {"lattice": lattice, "mass": 1.0, "task": "evolve", "params": params}
    if fields:
        doc["fields"] = fields
    return doc


TORUS_FIELDS = {
    "connection": {"components": [{"profile": "zero"},
                                  {"profile": "sine", "amplitude": 0.3, "axis": 0}],
                   "holonomies": [0.8, -0.5]},
    "potential": {"profile": "gaussian_bump", "amplitude": 0.6, "center": 0.4, "axis": 1},
}


@pytest.mark.parametrize("doc", [
    evolve_doc({"topology": "interval", "sizes": [16], "spacings": [1.0]},
               {"duration": 1.0, "steps": 40, "probe_delta": 0.1}),
    evolve_doc({"topology": "ring", "sizes": [12], "spacings": [1.0]}, {"duration": 2.0}),
    evolve_doc({"topology": "torus", "sizes": [4, 4], "spacings": [1.0, 0.8]},
               {"duration": 1.5, "steps": 30, "probe_delta": 0.2}, TORUS_FIELDS),
    evolve_doc({"topology": "interval", "sizes": [10], "spacings": [0.5]},
               {"duration": 1.0, "steps": 7, "probe_delta": 0.15}),
    evolve_doc({"topology": "ring", "sizes": [12], "spacings": [1.0]},
               {"duration": 1.0, "steps": 10, "probe_delta": 0.5}),  # t = delta
], ids=["interval16", "ring12-default-steps", "torus4x4-flux-potential", "odd-steps", "t-equals-delta"])
def test_evolve_payload_equals_the_three_decomposition_formulas(tmp_path, doc):
    path = tmp_path / "evolve.yaml"
    path.write_text(json.dumps(doc), encoding="utf-8")  # JSON is YAML
    run_scenario(path, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "report.json").read_text())["payload"]
    assert payload == separate_evolve_payload(doc)


def test_an_eigensystem_stands_in_for_its_operator():
    H = _torus_with_random_potential()
    spectrum = decompose(H)
    x = np.linspace(-1.0, 1.0, 64)
    assert np.array_equal(propagator(spectrum, 0.0, 1.0, 7), propagator(H, 0.0, 1.0, 7))
    assert heisenberg_residual(spectrum, x, 0.5, 0.1) == heisenberg_residual(H, x, 0.5, 0.1)


def test_heisenberg_evolve_leaves_its_unitary_unchanged():
    U = propagator(free_hamiltonian(interval(8)), 0.0, 1.0, 4)
    kept = U.copy()
    heisenberg_evolve(np.arange(8.0), U)
    assert np.array_equal(U, kept)


@pytest.mark.parametrize("call, match", [
    (lambda H: heisenberg_residual(H, np.zeros((8, 2)), 0.5, 0.1), r"a must have shape \(8,\)"),
    (lambda H: heisenberg_residual(H, np.full(8, np.nan), 0.5, 0.1), "a must be finite"),
    (lambda H: heisenberg_residual(H, np.zeros(8), 0.05, 0.1), "need t >= delta"),
    (lambda H: propagator(H, 0.0, 1.0, True), "steps must be an integer >= 1"),
    (lambda H: propagator(H, 1.0, 0.0, 4), "need finite t1 < t2"),
], ids=["field-shape", "field-nan", "t-below-delta", "steps-bool", "t2-before-t1"])
def test_argument_gates_run_before_the_decomposition(monkeypatch, call, match):
    H = free_hamiltonian(interval(8))
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("H was decomposed"))
    with pytest.raises(OperatorError, match=match):
        call(H)


def test_evolve_run_holds_a_bounded_number_of_dense_matrices(tmp_path):
    """One evolve run at 256 sites peaks at six n x n complex matrices of
    traced memory (the eigenvectors, the difference, a(t), dense H, the
    commutator and one product); three decompositions with every
    intermediate kept peaked at 10.6."""
    n = 256
    path = tmp_path / "evolve.yaml"
    path.write_text(json.dumps(evolve_doc({"topology": "interval", "sizes": [n], "spacings": [1.0]},
                                          {"duration": 1.0, "steps": 40, "probe_delta": 0.1})),
                    encoding="utf-8")
    run_scenario(path, tmp_path / "warm")  # imports and caches outside the measurement
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_scenario(path, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 6.5 * 16 * n**2
