import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    LatticeSpec,
    LocalityViolation,
    OperatorError,
    PhaseAmbiguity,
    axiom_report,
    build_hamiltonian,
    build_lattice,
    constant_metric,
    coordinate_cure_residual,
    d0,
    default_test_vector,
    eigenvalues,
    flat_connection,
    gauge_transform,
    hermiticity_defect,
    link_average_metric,
    peierls_decompose,
    plaquette_sums,
    reconstruct_metric,
    reconstruct_potential,
    roundtrip_report,
    row_sum_field,
    tree_gauge_canonicalize,
    tree_gauge_connection,
    validate_operator,
    velocity,
    wrap_angle,
)


def interval(n, h=1.0):
    return build_lattice(LatticeSpec("interval", (n,), (h,)))


def free_hamiltonian(lat, m=1.0):
    return build_hamiltonian(lat, constant_metric(lat), None, None, m)


# ---------------------------------------------------------------- velocity

def test_velocity_of_constant_vanishes():
    lat = interval(8)
    H = free_hamiltonian(lat)
    v = velocity(H, np.full(8, 4.2))
    assert np.max(np.abs(v.mat.toarray())) < 1e-14
    # [mult f, mult g] = 0: a diagonal operator has no velocity entries
    rng = np.random.default_rng(1)
    assert velocity(np.diag(rng.normal(size=8)), rng.normal(size=8)).mat.nnz == 0


@pytest.mark.parametrize("m", [1.0, 2.0])
def test_flat_commutator_row_sums(m):
    # -i m [x, xdot] row-sums to exactly 1 at interior sites
    lat = interval(16)
    H = free_hamiltonian(lat, m)
    x = lat.positions[:, 0]
    xdot = velocity(H, x)
    rows = m * row_sum_field(velocity(xdot, x))  # -i m [x, xdot] = m i [xdot, x]
    interior = lat.interior_mask()
    assert np.max(np.abs(rows[interior] - 1.0)) < 1e-12


def test_velocity_linear():
    lat = interval(6)
    H = free_hamiltonian(lat)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=6), rng.normal(size=6)
    lhs = velocity(H, 2.0 * a - 0.5 * b).mat.toarray()
    rhs = 2.0 * velocity(H, a).mat.toarray() - 0.5 * velocity(H, b).mat.toarray()
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_velocity_hermitian():
    lat = interval(10)
    H = free_hamiltonian(lat)
    assert hermiticity_defect(velocity(H, lat.positions[:, 0])) < 1e-12


def _diagonal_identity_cases():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lat = interval(5, 0.5)
    return [(M, rng.normal(size=4)), (free_hamiltonian(lat).mat.toarray(), lat.positions[:, 0])]


@pytest.mark.parametrize("M, a", _diagonal_identity_cases(), ids=["random", "interval-coordinate"])
def test_velocity_diagonal_identity(M, a):
    # i [M, diag(a)]_ij = i (a_j - a_i) M_ij
    expect = 1j * (a[None, :] - a[:, None]) * M
    assert np.allclose(velocity(M, a).mat.toarray(), expect, atol=1e-13)


def test_velocity_product_rule():
    # i [H, fg] = i [H, f] g + f i [H, g]
    lat = interval(7)
    H = free_hamiltonian(lat)
    rng = np.random.default_rng(3)
    f, g = rng.normal(size=7), rng.normal(size=7)
    lhs = velocity(H, f * g).mat.toarray()
    rhs = velocity(H, f).mat.toarray() @ np.diag(g) + np.diag(f) @ velocity(H, g).mat.toarray()
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_velocity_double_commutator_symmetric():
    # Jacobi with [a, b] = 0: [[H, a], b] = [[H, b], a]
    lat = build_lattice(LatticeSpec("rectangle", (4, 5), (1.0, 0.3)))
    H = build_hamiltonian(lat, constant_metric(lat, [[1.3, 0.2], [0.2, 0.9]]), None, None, 1.0)
    x, y = lat.positions[:, 0], lat.positions[:, 1]
    xy = velocity(velocity(H, x), y).mat.toarray()
    assert np.count_nonzero(np.abs(xy) > 0.01) > 0  # diagonal links: not vacuous
    assert np.allclose(xy, velocity(velocity(H, y), x).mat.toarray(), atol=1e-13)


# ---------------------------------------------------------------- peierls

def test_peierls_single_phase_roundtrip():
    lat = interval(8)
    theta = np.zeros(lat.n_links)
    link = lat.link_index(2, (1,))
    theta[link] = 0.3
    theta[lat.link_reverse[link]] = -0.3
    H = build_hamiltonian(lat, constant_metric(lat), theta, None, 1.0)
    dec = peierls_decompose(lat, H)
    assert abs(dec.phases[link] - 0.3) < 1e-14
    rebuilt = build_hamiltonian(lat, reconstruct_metric(lat, dec, 1.0), dec.phases,
                                reconstruct_potential(lat, dec), 1.0)
    diff = rebuilt.mat.toarray() - H.mat.toarray()
    assert np.max(np.abs(diff)) < 1e-12


def test_peierls_real_operator_has_zero_phases():
    lat = interval(8)
    dec = peierls_decompose(lat, free_hamiltonian(lat))
    assert np.max(np.abs(dec.phases)) == 0.0


def test_peierls_locality_violation():
    lat = interval(8)
    H = sp.csr_matrix(free_hamiltonian(lat).mat.toarray())
    hop = sp.csr_matrix(([1e-3], ([0], [2])), shape=(8, 8))
    with pytest.raises(LocalityViolation):
        peierls_decompose(lat, (H + hop + hop.T).tocsr())


def test_peierls_phase_ambiguity():
    lat = interval(4)
    H = sp.lil_matrix(free_hamiltonian(lat).mat.toarray())
    H[0, 1] = 0.5j
    H[1, 0] = -0.5j
    with pytest.raises(PhaseAmbiguity):
        peierls_decompose(lat, H.tocsr())


# ---------------------------------------------------------------- metric

def test_flat_ring_metric_exact():
    lat = build_lattice(LatticeSpec("ring", (8,), (1.0,)))
    g = reconstruct_metric(lat, peierls_decompose(lat, free_hamiltonian(lat)), 1.0)
    assert np.max(np.abs(g[:, 0, 0] - 1.0)) == 0.0


def test_sine_metric_pointwise_convergence():
    # pointwise error is O(h^2): ratios in [3.2, 4.8] under halving
    errs = []
    for n in (16, 32, 64):
        lat = build_lattice(LatticeSpec("ring", (n,), (1.0 / n,)))
        x = lat.positions[:, 0]
        g = (1.0 + 0.3 * np.sin(2 * np.pi * x)).reshape(-1, 1, 1)
        H = build_hamiltonian(lat, g, None, None, 1.0)
        g_rec = reconstruct_metric(lat, peierls_decompose(lat, H), 1.0)
        errs.append(np.max(np.abs(g_rec[:, 0, 0] - g[:, 0, 0])))
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert 3.2 < errs[1] / errs[2] < 4.8


def test_torus_constant_cross_term_exact():
    lat = build_lattice(LatticeSpec("torus", (6, 6), (1.0, 1.0)))
    g = constant_metric(lat, np.array([[1.0, 0.2], [0.2, 1.0]]))
    H = build_hamiltonian(lat, g, None, None, 1.0)
    g_rec = reconstruct_metric(lat, peierls_decompose(lat, H), 1.0)
    assert np.max(np.abs(g_rec[:, 0, 1] - 0.2)) < 1e-10
    assert np.max(np.abs(g_rec[:, 1, 0] - 0.2)) < 1e-10


def test_row_sum_metric_symmetry():
    # g(da, db) = g(db, da) at the row-sum level, so the cure residuals agree
    lat = build_lattice(LatticeSpec("torus", (5, 5), (1.0, 1.0)))
    pos = lat.positions
    g = np.zeros((lat.n_sites, 2, 2))
    g[:, 0, 0] = 1.0 + 0.2 * np.sin(2 * np.pi * pos[:, 0] / 5)
    g[:, 1, 1] = 1.3
    g[:, 0, 1] = g[:, 1, 0] = 0.15
    H = build_hamiltonian(lat, g, None, None, 1.0)
    psi = default_test_vector(lat)
    assert coordinate_cure_residual(lat, H, 0, 1, psi) == coordinate_cure_residual(lat, H, 1, 0, psi)


def test_row_sum_bilinearity_constant_rescale():
    # the same operator read on a lattice of spacing 3 rescales both
    # coordinates of the pair by 3, so the residual by 9
    lat = interval(12)
    wide = interval(12, 3.0)
    H = free_hamiltonian(lat)
    base = reconstruct_metric(lat, peierls_decompose(lat, H), 1.0)[:, 0, 0]
    psi = default_test_vector(lat)
    r1 = coordinate_cure_residual(wide, H, 0, 0, psi)
    r0 = coordinate_cure_residual(lat, H, 0, 0, psi)
    assert abs(r1 - 9.0 * r0) < 1e-12
    assert np.all(base[lat.interior_mask()] > 0)


# ---------------------------------------------------------------- connection

def test_zero_connection_reconstructs_zero():
    lat = interval(8)
    dec = peierls_decompose(lat, free_hamiltonian(lat))
    assert np.max(np.abs(dec.phases)) == 0.0


def test_pure_gauge_tree_representative_vanishes():
    lat = build_lattice(LatticeSpec("cylinder", (5, 4), (1.0, 1.0)))
    chi = np.sin(np.arange(lat.n_sites) * 0.61)
    H = build_hamiltonian(lat, constant_metric(lat), 0.4 * d0(lat, chi), None, 1.0)
    dec = peierls_decompose(lat, H)
    tree = tree_gauge_connection(lat, dec)
    assert np.max(np.abs(tree)) < 1e-12
    assert np.max(np.abs(plaquette_sums(lat, dec.phases))) < 1e-13


def test_ring_flux_holonomy_recovered():
    lat = build_lattice(LatticeSpec("ring", (8,), (1.0,)))
    alpha = 1.1
    H = build_hamiltonian(lat, constant_metric(lat), flat_connection(lat, (alpha,)), None, 1.0)
    dec = peierls_decompose(lat, H)
    (cycle,) = lat.pi1_generators
    hol = wrap_angle(dec.phases[cycle].sum())
    assert abs(hol - alpha) < 1e-12


# ---------------------------------------------------------------- potential

def test_potential_of_pure_laplacian_is_zero():
    lat = build_lattice(LatticeSpec("cylinder", (6, 6), (1.0, 1.0)))
    g = constant_metric(lat, np.array([[1.0, 0.1], [0.1, 1.2]]))
    H = build_hamiltonian(lat, g, None, None, 1.0)
    phi = reconstruct_potential(lat, peierls_decompose(lat, H))
    assert np.max(np.abs(phi)) < 1e-10


def test_quadratic_potential_recovered():
    lat = interval(12)
    x = lat.positions[:, 0]
    H = build_hamiltonian(lat, constant_metric(lat), None, x**2, 1.0)
    phi = reconstruct_potential(lat, peierls_decompose(lat, H))
    assert np.max(np.abs(phi - x**2)) < 1e-10


def test_constant_potential_recovered():
    lat = interval(8)
    H = build_hamiltonian(lat, constant_metric(lat), None, np.full(8, 5.0), 1.0)
    phi = reconstruct_potential(lat, peierls_decompose(lat, H))
    assert np.max(np.abs(phi - 5.0)) < 1e-12


# ---------------------------------------------------------------- cure

def test_cure_residual_free_convergence():
    # h = 1 lattice units: residual ~ h^2 psi''/2 falls by ~4 per refinement
    residuals = {}
    for n in (32, 64):
        lat = interval(n)
        H = free_hamiltonian(lat)
        residuals[n] = coordinate_cure_residual(lat, H, 0, 0, default_test_vector(lat))
    assert residuals[32] <= 0.05
    assert 3.2 < residuals[32] / residuals[64] < 4.8


def test_cure_residual_diagonal_operator_zero():
    lat = interval(16)
    H = np.diag(np.linspace(0.0, 2.0, 16))
    assert coordinate_cure_residual(lat, H, 0, 0, default_test_vector(lat)) < 1e-14


def test_cure_residual_range2_plateau():
    # a fixed 0.1 range-2 hop is not second order: residual stays up
    for n in (32, 64):
        lat = interval(n)
        H = sp.csr_matrix(free_hamiltonian(lat).mat.toarray())
        rows = np.arange(n - 2)
        hop = sp.csr_matrix((0.1 * np.ones(n - 2), (rows, rows + 2)), shape=(n, n))
        Hp = (H + hop + hop.T).tocsr()
        r = coordinate_cure_residual(lat, Hp, 0, 0, default_test_vector(lat))
        assert r > 0.02


def test_cure_residual_requires_normalized_vector():
    lat = interval(8)
    with pytest.raises(ValueError):
        coordinate_cure_residual(lat, free_hamiltonian(lat), 0, 0, np.ones(8))


# ---------------------------------------------------------------- axioms

def test_axiom_report_builder_is_positive():
    lat = build_lattice(LatticeSpec("torus", (6, 6), (1.0, 1.0)))
    g = constant_metric(lat, np.array([[1.0, 0.2], [0.2, 1.5]]))
    H = build_hamiltonian(lat, g, None, None, 1.0)
    rep = axiom_report(lat, H, 1.0)
    assert rep.positivity_ok and rep.nondegenerate
    assert rep.unquantized_axes == ()


def test_axiom_report_flags_flipped_coupling():
    lat = build_lattice(LatticeSpec("torus", (16, 16), (1.0, 1.0)))
    H = sp.lil_matrix(free_hamiltonian(lat).mat.toarray())
    link = lat.link_index(17, (1, 0))
    i, j = 17, int(lat.link_dst[link])
    H[i, j] = -H[i, j]
    H[j, i] = -H[j, i]
    rep = axiom_report(lat, H.tocsr(), 1.0)
    assert not rep.positivity_ok
    # brute force: the sign flip kills positivity exactly at the two sites
    bad = set(np.flatnonzero(rep.metric_min_eigenvalue <= 1e-10).tolist())
    assert bad == {i, j}


def test_indefinite_invertible_metric_fails_positivity_only():
    # every axis-1 amplitude negated: g = diag(1, -1) at every site, no axis decoupled
    lat = build_lattice(LatticeSpec("torus", (6, 6), (1.0, 1.0)))
    H = sp.lil_matrix(free_hamiltonian(lat).mat.toarray())
    k, l = lat.stencil.axes[lat.link_step].T
    for idx in np.flatnonzero((k == 1) & (l == 1)):
        i, j = int(lat.link_src[idx]), int(lat.link_dst[idx])
        H[i, j] = -H[i, j]
    rep = axiom_report(lat, H.tocsr(), 1.0)
    assert np.allclose(rep.metric_min_eigenvalue, -1.0)
    assert rep.unquantized_axes == ()
    assert not rep.positivity_ok
    assert rep.nondegenerate


def test_axiom_report_flags_unquantized_axis():
    lat = build_lattice(LatticeSpec("torus", (16, 16), (1.0, 1.0)))
    H = sp.lil_matrix(free_hamiltonian(lat).mat.toarray())
    k, l = lat.stencil.axes[lat.link_step].T
    axis1 = (k == 1) & (l == 1)
    for idx in np.flatnonzero(axis1):
        H[int(lat.link_src[idx]), int(lat.link_dst[idx])] = 0.0
    rep = axiom_report(lat, H.tocsr(), 1.0)
    assert not rep.nondegenerate
    assert rep.unquantized_axes == (1,)


# ---------------------------------------------------------------- gauge

def test_gauge_transform_constant_is_identity():
    lat = interval(8)
    H = free_hamiltonian(lat)
    Hg = gauge_transform(H, np.full(8, 0.8))
    assert np.max(np.abs(Hg.mat.toarray() - H.mat.toarray())) < 1e-15


def test_gauge_transform_preserves_spectrum():
    lat = build_lattice(LatticeSpec("cylinder", (6, 5), (1.0, 1.0)))
    H = build_hamiltonian(lat, constant_metric(lat), flat_connection(lat, (0.7,)),
                          np.sin(lat.positions[:, 1]), 1.0)
    rng = np.random.default_rng(4)
    Hg = gauge_transform(H, rng.uniform(-2.0, 2.0, lat.n_sites))
    assert np.max(np.abs(eigenvalues(H) - eigenvalues(Hg))) < 1e-10


def test_gauge_transform_shifts_connection_by_exact_form():
    lat = build_lattice(LatticeSpec("ring", (10,), (1.0,)))
    H = build_hamiltonian(lat, constant_metric(lat), flat_connection(lat, (0.4,)), None, 1.0)
    rng = np.random.default_rng(6)
    chi = rng.uniform(-0.4, 0.4, lat.n_sites)
    t0 = peierls_decompose(lat, H).phases
    t1 = peierls_decompose(lat, gauge_transform(H, chi)).phases
    assert np.max(np.abs((t1 - t0) - d0(lat, chi))) < 1e-12


def test_observables_gauge_invariant():
    lat = build_lattice(LatticeSpec("cylinder", (6, 6), (1.0, 1.0)))
    g = constant_metric(lat, np.array([[1.0, 0.15], [0.15, 1.2]]))
    theta = flat_connection(lat, (0.8,))
    phi = 0.3 * np.cos(2 * np.pi * lat.positions[:, 0] / 6)
    H = build_hamiltonian(lat, g, theta, phi, 1.0)
    dec0 = peierls_decompose(lat, H)
    g0 = reconstruct_metric(lat, dec0, 1.0)
    F0 = plaquette_sums(lat, dec0.phases)
    phi0 = reconstruct_potential(lat, dec0)
    rng = np.random.default_rng(8)
    for _ in range(5):
        chi = rng.uniform(-0.3, 0.3, lat.n_sites)
        Hg = gauge_transform(H, chi)
        dec = peierls_decompose(lat, Hg)
        assert np.max(np.abs(reconstruct_metric(lat, dec, 1.0) - g0)) < 1e-10
        assert np.max(np.abs(plaquette_sums(lat, dec.phases) - F0)) < 1e-10
        assert np.max(np.abs(reconstruct_potential(lat, dec) - phi0)) < 1e-10


def test_gauge_equivalent_operators_canonicalize_equal():
    # uniqueness: same (g, F, phi, holonomy) => equal tree-gauge forms
    lat = build_lattice(LatticeSpec("torus", (5, 5), (1.0, 1.0)))
    g = constant_metric(lat, np.array([[1.0, 0.1], [0.1, 1.3]]))
    H = build_hamiltonian(lat, g, flat_connection(lat, (0.5, -0.9)),
                          np.cos(lat.positions[:, 0]), 1.0)
    rng = np.random.default_rng(10)
    C0 = tree_gauge_canonicalize(lat, H)
    for _ in range(5):
        Hg = gauge_transform(H, rng.uniform(-0.3, 0.3, lat.n_sites))
        Cg = tree_gauge_canonicalize(lat, Hg)
        assert np.max(np.abs(Cg.mat.toarray() - C0.mat.toarray())) < 1e-10


def test_wrap_angle_branch():
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert abs(wrap_angle(3 * np.pi) - np.pi) < 1e-12
    assert abs(wrap_angle(0.3) - 0.3) < 1e-15


# ---------------------------------------------------------------- round trip

def test_roundtrip_cylinder_exact():
    lat = build_lattice(LatticeSpec("cylinder", (16, 16), (1.0, 1.0)))
    pos = lat.positions
    g = np.zeros((lat.n_sites, 2, 2))
    g[:, 0, 0] = 1.0 + 0.3 * np.sin(2 * np.pi * pos[:, 0] / 16)
    g[:, 1, 1] = 1.2 + 0.2 * np.cos(2 * np.pi * pos[:, 1] / 16)
    g[:, 0, 1] = g[:, 1, 0] = 0.1 + 0.05 * np.sin(2 * np.pi * pos[:, 0] / 16)
    theta = flat_connection(lat, (np.pi / 3,))
    phi = 0.5 * np.exp(-((pos[:, 0] - 8) ** 2 + (pos[:, 1] - 8) ** 2) / 8)
    rep = roundtrip_report(lat, g, theta, phi, 1.0)
    assert rep.e_g <= 1e-9 and rep.e_F <= 1e-9 and rep.e_phi <= 1e-9
    assert rep.axiom.positivity_ok


def test_roundtrip_zero_data():
    lat = build_lattice(LatticeSpec("rectangle", (5, 5), (1.0, 1.0)))
    rep = roundtrip_report(lat, constant_metric(lat), None, None, 1.0)
    assert rep.e_g == 0.0 and rep.e_F == 0.0 and rep.e_phi == 0.0


def test_roundtrip_pointwise_mode_is_second_order():
    errs = []
    for n in (16, 32):
        lat = build_lattice(LatticeSpec("ring", (n,), (1.0 / n,)))
        x = lat.positions[:, 0]
        g = (1.0 + 0.3 * np.sin(2 * np.pi * x)).reshape(-1, 1, 1)
        errs.append(roundtrip_report(lat, g, None, None, 1.0, reference="pointwise").e_g)
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_link_average_reference_matches_reconstruction():
    lat = build_lattice(LatticeSpec("rectangle", (6, 6), (1.0, 1.0)))
    rng = np.random.default_rng(12)
    g = np.zeros((lat.n_sites, 2, 2))
    g[:, 0, 0] = 1.0 + 0.2 * rng.random(lat.n_sites)
    g[:, 1, 1] = 1.0 + 0.2 * rng.random(lat.n_sites)
    g[:, 0, 1] = g[:, 1, 0] = 0.1 * rng.random(lat.n_sites)
    H = build_hamiltonian(lat, g, None, None, 1.0)
    g_rec = reconstruct_metric(lat, peierls_decompose(lat, H), 1.0)
    assert np.max(np.abs(g_rec - link_average_metric(lat, g))) < 1e-12


def test_roundtrip_box3_with_all_cross_terms():
    lat = build_lattice(LatticeSpec("box3", (5, 4, 4), (1.0, 0.8, 1.2)))
    pos = lat.positions
    g = np.zeros((lat.n_sites, 3, 3))
    g[:, 0, 0] = 1.0 + 0.2 * np.sin(2 * np.pi * pos[:, 0] / 4)
    g[:, 1, 1] = 1.3
    g[:, 2, 2] = 1.1 + 0.1 * np.cos(2 * np.pi * pos[:, 2] / 3.6)
    g[:, 0, 1] = g[:, 1, 0] = 0.15
    g[:, 0, 2] = g[:, 2, 0] = -0.1
    g[:, 1, 2] = g[:, 2, 1] = 0.12
    phi = 0.3 * pos[:, 1]
    rep = roundtrip_report(lat, g, None, phi, 1.5)
    assert rep.e_g <= 1e-9 and rep.e_F <= 1e-9 and rep.e_phi <= 1e-9
    assert rep.axiom.positivity_ok
    H = build_hamiltonian(lat, g, None, phi, 1.5)
    assert eigenvalues(H)[0] >= float(phi.min()) - 1e-9


def test_row_sum_bilinearity_operator_level():
    # replacing a by (const c) a rescales the double-commutator row sums
    # by exactly c
    lat = interval(10)
    H = free_hamiltonian(lat)
    x = lat.positions[:, 0]
    # [a, [H, x]] = velocity(velocity(H, x), a)
    base = row_sum_field(velocity(velocity(H, x), x))
    scaled = row_sum_field(velocity(velocity(H, x), 3.0 * x))
    assert np.max(np.abs(scaled - 3.0 * base)) < 1e-13


# ---------------------------------------------------------------- operator size

@pytest.mark.parametrize("op_sites, lattice_sites", [(64, 24), (24, 64)])
def test_wrong_size_operator_names_both_sizes(op_sites, lattice_sites):
    # a size mismatch is reported as such, not as an IndexError or as a
    # locality violation of the wrapped-around links
    lat = build_lattice(LatticeSpec("ring", (lattice_sites,), (0.5,)))
    other = build_lattice(LatticeSpec("ring", (op_sites,), (0.5,)))
    H = free_hamiltonian(other)
    psi = default_test_vector(lat)
    message = f"operator is {op_sites}x{op_sites} but the lattice has {lattice_sites} sites"
    for call in (
        lambda: peierls_decompose(lat, H),
        lambda: validate_operator(lat, H),
        lambda: coordinate_cure_residual(lat, H, 0, 0, psi),
    ):
        with pytest.raises(OperatorError, match=message) as info:
            call()
        assert type(info.value) is OperatorError


# ---------------------------------------------------------------- decomposition count

def test_roundtrip_report_decomposes_once(monkeypatch):
    # the axiom certificates reuse the reconstruction's metric instead of
    # decomposing H a second time
    from geomqm import reconstruct

    calls = []
    decompose = reconstruct.peierls_decompose

    def counting(lattice, H):
        calls.append(1)
        return decompose(lattice, H)

    monkeypatch.setattr(reconstruct, "peierls_decompose", counting)
    lat = build_lattice(LatticeSpec("torus", (6, 5), (1.0, 0.8)))
    g = constant_metric(lat, np.array([[1.0, 0.1], [0.1, 1.2]]))
    rep = roundtrip_report(lat, g, None, None, 1.0)
    assert rep.axiom.positivity_ok
    assert len(calls) == 1


def test_reports_split_h_once_and_skip_the_public_checks(monkeypatch):
    # one link-entry table per report: the decomposition, the cure
    # residuals and the commutant all read it
    from collections import Counter

    from geomqm import operators, reconstruct

    calls = Counter()
    for name in ("_link_entries", "coordinate_cure_residual", "validate_operator"):
        for module in (operators, reconstruct):  # wherever the name is bound
            if hasattr(module, name):
                def counted(*args, _name=name, _original=getattr(module, name)):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
    lat = build_lattice(LatticeSpec("torus", (6, 5), (1.0, 0.8)))
    g = constant_metric(lat, np.array([[1.0, 0.1], [0.1, 1.2]]))
    H = build_hamiltonian(lat, g, None, None, 1.0)
    for report in (reconstruct.reconstruction_report, reconstruct.axiom_report):
        calls.clear()
        report(lat, H, 1.0)
        assert calls == {"_link_entries": 1}, report.__name__
    calls.clear()
    operators.validate_operator(lat, H)
    assert calls == {"validate_operator": 1}


def test_array_holding_records_compare_by_identity():
    # value equality over array fields is ambiguous; these compare and
    # hash by identity instead of raising
    from geomqm import AnalyticMetric, geodesic_integrate, reconstruction_report

    lat = build_lattice(LatticeSpec("ring", (5,), (1.0,)))

    def make():
        H = free_hamiltonian(lat)
        traj = geodesic_integrate(AnalyticMetric(lambda q: np.eye(1), ndim=1),
                                  np.zeros(1), np.ones(1), 0.5, 1.0)
        return [peierls_decompose(lat, H), reconstruction_report(lat, H, 1.0),
                axiom_report(lat, H, 1.0), H, traj]

    for obj, twin in zip(make(), make()):
        assert obj == obj and obj != twin
        assert len({obj, twin, obj}) == 2
