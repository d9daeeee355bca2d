"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import scipy.sparse as sp

from geomqm import (
    AnalyticMetric,
    LatticeSpec,
    Trajectory,
    ab_spectrum,
    assemble_potential,
    axiom_report,
    build_hamiltonian,
    build_lattice,
    build_spacetime_complex,
    chern_number,
    commutator,
    constant_metric,
    continuity_defect,
    coordinate_cure_residual,
    current,
    d0,
    d_cochain,
    default_test_vector,
    flat_connection,
    flatness_defect,
    gauge_transform,
    geodesic_integrate,
    heisenberg_residual,
    hodge_factors,
    lorentzian_lift,
    mult_op,
    peierls_decompose,
    plaquette_sums,
    propagator,
    reconstruct_metric,
    reconstruct_potential,
    roundtrip_report,
    row_sum_field,
    tree_gauge_canonicalize,
    unitarity_defect,
    velocity,
    zeroth_residual,
)
from geomqm.evolution import heisenberg_evolve


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(num, title, timer, budget):
    print(f"ACCEPTANCE {num:2d} PASS ({timer.elapsed:.2f}s < {budget:.0f}s): {title}")
    assert timer.elapsed < budget


def test_acceptance_01_flat_commutator():
    with _Timer() as t:
        lat = build_lattice(LatticeSpec("interval", (32,), (1.0,)))
        x = lat.positions[:, 0]
        interior = lat.interior_mask()
        for m in (1.0, 2.0):
            H = build_hamiltonian(lat, constant_metric(lat), None, None, m)
            rows = row_sum_field(-1j * m * commutator(mult_op(lat, x), velocity(H, x)))
            assert np.max(np.abs(rows[interior] - 1.0)) <= 1e-12
    _report(1, "flat commutator row sums = 1 at interior sites, m in {1, 2}", t, 1.0)


def test_acceptance_02_roundtrip_uniqueness():
    with _Timer() as t:
        lat = build_lattice(LatticeSpec("cylinder", (16, 16), (1.0, 1.0)))
        pos = lat.positions
        g = np.zeros((lat.n_sites, 2, 2))
        g[:, 0, 0] = 1.0 + 0.3 * np.sin(2 * np.pi * pos[:, 0] / 16)
        g[:, 1, 1] = 1.2 + 0.2 * np.cos(2 * np.pi * pos[:, 1] / 16)
        g[:, 0, 1] = g[:, 1, 0] = 0.1 + 0.05 * np.sin(2 * np.pi * pos[:, 0] / 16)
        theta = flat_connection(lat, (np.pi / 3,)) + 0.04 * d0(lat, np.sin(pos[:, 1]))
        phi = 0.5 * np.exp(-((pos[:, 0] - 8.0) ** 2 + (pos[:, 1] - 8.0) ** 2) / 8.0)
        rep = roundtrip_report(lat, g, theta, phi, 1.0)
        assert rep.e_g <= 1e-9
        assert rep.e_F <= 1e-9
        assert rep.e_phi <= 1e-9
    _report(2, f"round trip e_g={rep.e_g:.1e} e_F={rep.e_F:.1e} e_phi={rep.e_phi:.1e} <= 1e-9", t, 5.0)


def test_acceptance_03_continuum_convergence():
    with _Timer() as t:
        errs = []
        for n in (16, 32, 64):
            lat = build_lattice(LatticeSpec("ring", (n,), (1.0 / n,)))
            x = lat.positions[:, 0]
            g = (1.0 + 0.3 * np.sin(2 * np.pi * x)).reshape(-1, 1, 1)
            H = build_hamiltonian(lat, g, None, None, 1.0)
            g_rec = reconstruct_metric(lat, peierls_decompose(lat, H), 1.0)
            errs.append(np.max(np.abs(g_rec[:, 0, 0] - g[:, 0, 0])))
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8
    _report(3, f"pointwise metric error ratios {r1:.2f}, {r2:.2f} in [3.2, 4.8]", t, 5.0)


def test_acceptance_04_cure_second_order_detection():
    with _Timer() as t:
        clean, perturbed = {}, {}
        for n in (32, 64):
            lat = build_lattice(LatticeSpec("interval", (n,), (1.0,)))
            H = build_hamiltonian(lat, constant_metric(lat), None, None, 1.0)
            psi = default_test_vector(lat)
            clean[n] = coordinate_cure_residual(lat, H, 0, 0, psi)
            rows = np.arange(n - 2)
            hop = sp.csr_matrix((0.1 * np.ones(n - 2), (rows, rows + 2)), shape=(n, n))
            H_hop = (sp.csr_matrix(H.mat.toarray()) + hop + hop.T).tocsr()
            perturbed[n] = coordinate_cure_residual(lat, H_hop, 0, 0, psi)
        assert perturbed[32] > 0.02 and perturbed[64] > 0.02
        ratio = clean[32] / clean[64]
        assert 3.2 <= ratio <= 4.8
    _report(4, f"range-2 hop plateaus ({perturbed[32]:.2f}, {perturbed[64]:.2f} > 0.02), "
               f"clean residual falls x{ratio:.2f}", t, 5.0)


def test_acceptance_05_axiom_detection():
    with _Timer() as t:
        lat = build_lattice(LatticeSpec("torus", (16, 16), (1.0, 1.0)))
        base = build_hamiltonian(lat, constant_metric(lat), None, None, 1.0)
        flipped = sp.lil_matrix(base.mat.toarray())
        link = lat.link_index(17, (1, 0))
        i, j = 17, int(lat.link_dst[link])
        flipped[i, j] = -flipped[i, j]
        flipped[j, i] = -flipped[j, i]
        rep1 = axiom_report(lat, flipped.tocsr(), 1.0)
        assert not rep1.positivity_ok
        decoupled = sp.lil_matrix(base.mat.toarray())
        k, l = lat.stencil.axes[lat.link_step].T
        axis1 = (k == 1) & (l == 1)
        for idx in np.flatnonzero(axis1):
            decoupled[int(lat.link_src[idx]), int(lat.link_dst[idx])] = 0.0
        rep2 = axiom_report(lat, decoupled.tocsr(), 1.0)
        assert not rep2.nondegenerate
        assert rep2.unquantized_axes == (1,)
    _report(5, "sign flip breaks positivity; decoupled axis flags unquantized direction", t, 2.0)


def _random_series(lat, n_t, amplitude, rng):
    canon = lat.link_reverse > np.arange(lat.n_links)
    A_series, phi_series = [], []
    for _ in range(n_t):
        theta = np.zeros(lat.n_links)
        vals = rng.normal(0.0, amplitude, int(canon.sum()))
        theta[canon] = vals
        theta[lat.link_reverse[canon]] = -vals
        A_series.append(theta)
        phi_series.append(rng.normal(0.0, amplitude, lat.n_sites))
    return A_series, phi_series


def _maxwell_ensemble():
    lat = build_lattice(LatticeSpec("cylinder", (8, 8), (1.0, 1.0)))
    cx = build_spacetime_complex(lat, 8, 0.5)
    g = constant_metric(lat)
    series = np.broadcast_to(g, (8,) + g.shape).copy()
    met = {
        s: lorentzian_lift(lat, series, np.arange(8) * 0.5, g00=s) for s in (-1.0, 1.0)
    }
    rng = np.random.default_rng(2024)
    pots = []
    for _ in range(10):
        A_series, phi_series = _random_series(lat, 8, 0.4, rng)
        pots.append(assemble_potential(cx, A_series, phi_series))
    return cx, met, pots


def test_acceptance_06_homogeneous_maxwell():
    with _Timer() as t:
        cx, met, pots = _maxwell_ensemble()
        worst = 0.0
        for pot in pots:
            dF = d_cochain(d_cochain(pot)).values
            dF_again = d_cochain(d_cochain(pot)).values
            assert np.array_equal(dF, dF_again)  # no metric enters at all
            worst = max(worst, float(np.max(np.abs(dF))))
        assert worst <= 1e-12
    _report(6, f"max |dF| = {worst:.1e} <= 1e-12 over 10 random series, "
               "independent of the lift sign", t, 5.0)


def test_acceptance_07_source_continuity():
    with _Timer() as t:
        cx, met, pots = _maxwell_ensemble()
        stars = [hodge_factors(cx, met[sign]) for sign in (-1.0, 1.0)]
        worst = 0.0
        for pot in pots:
            for star in stars:
                j = current(star, d_cochain(pot))
                worst = max(worst, continuity_defect(star, j))
        assert worst <= 1e-12
    _report(7, f"max |d*j| = {worst:.1e} <= 1e-12 for both lift signs", t, 5.0)


def test_acceptance_08_aharonov_bohm():
    with _Timer() as t:
        lat4 = build_lattice(LatticeSpec("ring", (4,), (1.0,)))
        table = ab_spectrum(lat4, 1.0, [0.0, np.pi])
        oracle = np.sort([1 - np.sqrt(2) / 2, 1 - np.sqrt(2) / 2,
                          1 + np.sqrt(2) / 2, 1 + np.sqrt(2) / 2])
        assert np.max(np.abs(table[1] - oracle)) <= 1e-10
        gap = abs(table[1, 0] - table[0, 0])
        assert gap >= 0.1
        assert flatness_defect(lat4, flat_connection(lat4, (np.pi,))) == 0.0
        lat64 = build_lattice(LatticeSpec("ring", (64,), (1.0,)))
        grid = np.linspace(0.0, 2 * np.pi, 33)
        periodicity = float(np.max(np.abs(
            ab_spectrum(lat64, 1.0, grid) - ab_spectrum(lat64, 1.0, grid + 2 * np.pi)
        )))
        assert periodicity <= 1e-9
    _report(8, f"flux-pi oracle matched, min-eig gap {gap:.2f} >= 0.1, "
               f"2pi periodicity defect {periodicity:.1e}", t, 10.0)


def test_acceptance_09_geodesics():
    with _Timer() as t:
        flat = AnalyticMetric(lambda q: np.eye(2), ndim=2)
        q0, v0 = np.array([0.0, 0.0]), np.array([0.7, -0.4])
        traj = geodesic_integrate(flat, q0, v0, 1e-2, 10.0, record_every=10)
        straight = np.max(np.abs(traj.positions - (q0 + traj.times[:, None] * v0)))
        assert straight <= 1e-8

        polar = AnalyticMetric(
            lambda q: np.diag([1.0, 0.0]) + q[..., 0, None, None] ** -2 * np.diag([0.0, 1.0]),
            ndim=2, default_eta=1e-4,
        )
        st = (np.array([2.0, 0.0]), np.array([-0.1, 0.15]))
        cons = geodesic_integrate(polar, *st, 1e-3, 10.0, record_every=100)
        assert cons.speed2_drift() <= 1e-8

        st2 = (np.array([2.0, 0.0]), np.array([-0.5, 0.4]))
        runs = {
            dt: geodesic_integrate(polar, *st2, dt, 2.0, record_every=int(round(0.2 / dt)))
            for dt in (0.04, 0.02, 0.01)
        }
        e1 = np.max(np.abs(runs[0.04].positions - runs[0.02].positions))
        e2 = np.max(np.abs(runs[0.02].positions - runs[0.01].positions))
        ratio = e1 / e2
        assert ratio >= 12.0
    _report(9, f"straightness {straight:.1e}, speed^2 drift {cons.speed2_drift():.1e}, "
               f"4th-order ratio {ratio:.1f} >= 12", t, 10.0)


def test_acceptance_10_zeroth_component_obstruction():
    with _Timer() as t:
        lat = build_lattice(LatticeSpec("rectangle", (8, 8), (1.0, 1.0)))
        g = constant_metric(lat)
        v = np.array([0.5, 0.3])
        ts = np.linspace(0.0, 2.0, 11)
        qs = np.array([[2.0, 2.0] + v * tt for tt in ts])
        traj = Trajectory(ts, qs, np.broadcast_to(v, (11, 2)).copy(),
                          np.full(11, float(v @ v)))
        static = lorentzian_lift(lat, np.broadcast_to(g, (5,) + g.shape).copy(),
                                 np.linspace(0.0, 2.0, 5))
        static_max = float(np.max(np.abs(zeroth_residual(static, traj))))
        assert static_max <= 1e-12

        eps = 0.01
        times = np.linspace(0.0, 2.0, 9)
        samples = np.array([g / (1.0 + eps * tt) for tt in times])
        st = lorentzian_lift(lat, samples, times)
        r = zeroth_residual(st, traj)
        expect = 0.5 * eps * float(v @ v)
        rel = float(np.max(np.abs(r - expect)) / expect)
        assert rel <= 2e-3
    _report(10, f"static residual {static_max:.1e}; scaling residual matches "
                f"eps|v|^2/2 to {rel:.1e} relative", t, 5.0)


def test_acceptance_11_gauge_program():
    with _Timer() as t:
        lat = build_lattice(LatticeSpec("cylinder", (8, 8), (1.0, 1.0)))
        pos = lat.positions
        g = np.zeros((lat.n_sites, 2, 2))
        g[:, 0, 0] = 1.0 + 0.2 * np.sin(2 * np.pi * pos[:, 0] / 8)
        g[:, 1, 1] = 1.3
        g[:, 0, 1] = g[:, 1, 0] = 0.15
        theta = flat_connection(lat, (0.9,)) + 0.03 * d0(lat, np.cos(pos[:, 1]))
        phi = 0.3 * np.cos(2 * np.pi * pos[:, 1] / 8)
        H = build_hamiltonian(lat, g, theta, phi, 1.0)
        dec0 = peierls_decompose(lat, H)
        g0 = reconstruct_metric(lat, dec0, 1.0)
        F0 = plaquette_sums(lat, dec0.phases)
        phi0 = reconstruct_potential(lat, dec0)
        C0 = tree_gauge_canonicalize(lat, H)
        rng = np.random.default_rng(11)
        worst = {"g": 0.0, "F": 0.0, "phi": 0.0, "shift": 0.0, "canon": 0.0}
        for _ in range(20):
            chi = rng.uniform(-0.35, 0.35, lat.n_sites)
            Hg = gauge_transform(H, chi)
            dec = peierls_decompose(lat, Hg)
            worst["g"] = max(worst["g"], float(np.max(np.abs(
                reconstruct_metric(lat, dec, 1.0) - g0))))
            worst["F"] = max(worst["F"], float(np.max(np.abs(
                plaquette_sums(lat, dec.phases) - F0))))
            worst["phi"] = max(worst["phi"], float(np.max(np.abs(
                reconstruct_potential(lat, dec) - phi0))))
            worst["shift"] = max(worst["shift"], float(np.max(np.abs(
                (dec.phases - dec0.phases) - d0(lat, chi)))))
            Cg = tree_gauge_canonicalize(lat, Hg)
            worst["canon"] = max(worst["canon"], float(np.max(np.abs(
                Cg.mat.toarray() - C0.mat.toarray()))))
        assert worst["g"] <= 1e-10 and worst["F"] <= 1e-10 and worst["phi"] <= 1e-10
        assert worst["shift"] <= 1e-10
        assert worst["canon"] <= 1e-10
    _report(11, "20 random gauges: (g, F, phi) invariant, A shifts by d0(chi), "
                "tree-gauge forms entrywise equal", t, 10.0)


def test_acceptance_12_chern_numbers():
    with _Timer() as t:
        lat = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
        nx, ny = lat.sizes
        for k in (-2, -1, 0, 1, 2):
            flux = 2 * np.pi * k / (nx * ny)
            theta = np.zeros(lat.n_links)
            for s in range(lat.n_sites):
                ix, iy = lat.coords[s]
                ly = lat.link_index(s, (0, 1))
                theta[ly] = flux * ix
                theta[lat.link_reverse[ly]] = -flux * ix
                if ix == nx - 1:
                    lx = lat.link_index(s, (1, 0))
                    theta[lx] = -flux * nx * iy
                    theta[lat.link_reverse[lx]] = flux * nx * iy
            assert chern_number(lat, theta) == k
    _report(12, "uniform-flux classes k in {-2..2} recovered exactly", t, 2.0)


def test_acceptance_13_evolution():
    with _Timer() as t:
        lat = build_lattice(LatticeSpec("interval", (64,), (1.0,)))
        H = build_hamiltonian(lat, constant_metric(lat), None, None, 1.0)
        U = propagator(H, 0.0, 1.0, 40)
        defect = unitarity_defect(U)
        assert defect <= 1e-10
        x = lat.positions[:, 0]
        xt = heisenberg_evolve(x, U)
        x0 = np.diag(x.astype(complex))
        noncomm = float(np.linalg.norm(x0 @ xt - xt @ x0, 2))
        assert noncomm > 0.01
        r1 = heisenberg_residual(H, x, 1.0, 0.2)
        r2 = heisenberg_residual(H, x, 1.0, 0.1)
        ratio = r1 / r2
        assert 3.2 <= ratio <= 4.8
    _report(13, f"unitarity {defect:.1e}, residual ratio {ratio:.2f}, "
                f"slice noncommutation {noncomm:.2f} > 0.01", t, 10.0)
