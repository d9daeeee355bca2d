"""Array code against per-site / per-entry loop reference implementations.

The loops below are the straightforward definitions of the lattice link
structure, of the Peierls split and of the tree-gauge BFS: one site or
one matrix entry at a time, with a dict from (site, step), (i, j) or
site to link ids.  At small n
they are the oracle: every array the vectorized code produces must equal
theirs bit for bit, on all six topologies (including ring (3,) and
torus (3, 3), where every pair of distinct sites is joined by a link)
and on an operator with range-2 couplings.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    LatticeSpec,
    LocalityViolation,
    OperatorError,
    PeierlsDecomposition,
    PhaseAmbiguity,
    build_hamiltonian,
    build_lattice,
    commutator,
    constant_metric,
    coordinate_cure_residual,
    covariant_laplacian,
    cure_residual,
    d0,
    default_test_vector,
    mult_op,
    peierls_decompose,
    reconstruct_metric,
    reconstruction_report,
    tree_gauge_connection,
    tree_gauge_potential,
    validate_operator,
    wrap_angle,
)
from geomqm.operators import HermitianOperator, _asmat
from geomqm.reconstruct import _link_entries

LATTICES = [
    ("interval", (5,), (0.7,)),
    ("ring", (3,), (1.0,)),
    ("ring", (7,), (0.5,)),
    ("rectangle", (4, 5), (1.0, 0.3)),
    ("cylinder", (5, 4), (0.5, 1.0)),
    ("torus", (3, 3), (1.0, 0.8)),
    ("torus", (4, 6), (1.0, 0.5)),
    ("box3", (3, 4, 3), (1.0, 0.5, 0.25)),
]
LATTICE_IDS = [f"{t}{s}" for t, s, _ in LATTICES]


# ---------------------------------------------------------------- oracles

def _loop_steps(ndim):
    steps = []
    for k in range(ndim):
        e = np.zeros(ndim, dtype=int)
        e[k] = 1
        steps.append((e.copy(), (k, k), 1))
        steps.append((-e, (k, k), 1))
    for k in range(ndim):
        for l in range(k + 1, ndim):
            for sk in (1, -1):
                for sl in (1, -1):
                    e = np.zeros(ndim, dtype=int)
                    e[k], e[l] = sk, sl
                    steps.append((e, (k, l), sk * sl))
    return steps


def loop_build_lattice(spec):
    """Per-site build: (arrays, (site, step) -> link dict, pi_1 cycles)."""
    ndim, sizes, periodic = spec.ndim, spec.sizes, spec.periodic
    spacings = np.asarray(spec.spacings)
    coords = np.stack(
        [a.ravel() for a in np.meshgrid(*[np.arange(n) for n in sizes], indexing="ij")],
        axis=1,
    ).astype(int)
    n_sites = len(coords)

    def wrap(c):
        out = []
        for k in range(ndim):
            v = c[k]
            if periodic[k]:
                v %= sizes[k]
            elif v < 0 or v >= sizes[k]:
                return None
            out.append(int(v))
        return tuple(out)

    src, dst, disp, axes, dsign = [], [], [], [], []
    lookup = {}
    for s in range(n_sites):
        for step, ax, sg in _loop_steps(ndim):
            target = wrap(coords[s] + step)
            if target is None:
                continue
            lookup[(s, tuple(int(v) for v in step))] = len(src)
            src.append(s)
            dst.append(int(np.ravel_multi_index(target, sizes)))
            disp.append(step * spacings)
            axes.append(ax)
            dsign.append(sg)
    steps_of = {idx: key[1] for key, idx in lookup.items()}
    reverse = [lookup[(dst[idx], tuple(-v for v in steps_of[idx]))] for idx in range(len(src))]

    plaq_links = []
    for s in range(n_sites):
        c = coords[s]
        for k in range(ndim):
            for l in range(k + 1, ndim):
                ek = np.zeros(ndim, dtype=int)
                el = np.zeros(ndim, dtype=int)
                ek[k], el[l] = 1, 1
                if wrap(c + ek) is None or wrap(c + el) is None:
                    continue
                b = int(np.ravel_multi_index(wrap(c + ek), sizes))
                d2 = int(np.ravel_multi_index(wrap(c + ek + el), sizes))
                e2 = int(np.ravel_multi_index(wrap(c + el), sizes))
                plaq_links.append([
                    lookup[(s, tuple(ek))],
                    lookup[(b, tuple(el))],
                    lookup[(d2, tuple(-ek))],
                    lookup[(e2, tuple(-el))],
                ])

    gens = []
    for k in range(ndim):
        if not periodic[k]:
            continue
        cycle, c = [], np.zeros(ndim, dtype=int)
        ek = np.zeros(ndim, dtype=int)
        ek[k] = 1
        for _ in range(sizes[k]):
            cycle.append(lookup[(int(np.ravel_multi_index(wrap(c), sizes)), tuple(ek))])
            c = c + ek
        gens.append(np.asarray(cycle, dtype=int))

    arrays = dict(
        coords=coords,
        positions=coords * spacings,
        link_src=np.asarray(src, dtype=int),
        link_dst=np.asarray(dst, dtype=int),
        link_disp=np.asarray(disp, dtype=float).reshape(len(src), ndim),
        link_reverse=np.asarray(reverse, dtype=int),
        link_axes=np.asarray(axes, dtype=int),
        link_diag_sign=np.asarray(dsign, dtype=int),
        plaq_links=np.asarray(plaq_links, dtype=int).reshape(len(plaq_links), 4),
    )
    return arrays, lookup, gens


def _loop_min_image(lat, i, j):
    delta = lat.coords[j] - lat.coords[i]
    for k in range(lat.ndim):
        if lat.periodic[k]:
            n = lat.sizes[k]
            delta[k] = (delta[k] + n // 2) % n - n // 2
    return delta


def loop_graph_distance(lat, i, j):
    a = np.abs(_loop_min_image(lat, i, j))
    return int(max(a.max(initial=0), -(-int(a.sum()) // 2)))


def loop_minimal_image_displacement(lat, i, j):
    delta = (lat.coords[j] - lat.coords[i]).astype(float)
    for k in range(lat.ndim):
        if lat.periodic[k]:
            n = lat.sizes[k]
            delta[k] = (delta[k] + n // 2) % n - n // 2
    return delta * np.asarray(lat.spacings)


def _loop_lut(lat):
    return {(int(i), int(j)): idx for idx, (i, j) in enumerate(zip(lat.link_src, lat.link_dst))}


def loop_peierls_decompose(lat, H):
    mat = _asmat(H).tocoo()
    herm = np.max(np.abs((mat - mat.getH()).data), initial=0.0)
    if herm > 1e-10 * max(1.0, np.max(np.abs(mat.data), initial=0.0)):
        raise OperatorError(f"operator not Hermitian (defect {herm:g})")
    lut = _loop_lut(lat)
    couplings = np.zeros(lat.n_links)
    phases = np.zeros(lat.n_links)
    diagonal = np.zeros(lat.n_sites)
    for i, j, v in zip(mat.row, mat.col, mat.data):
        if i == j:
            diagonal[i] = v.real
            continue
        if v == 0:
            continue
        link = lut.get((int(i), int(j)))
        if link is None:
            raise LocalityViolation(
                f"coupling {i}->{j} at graph distance {loop_graph_distance(lat, i, j)} "
                "is outside the range-1 link stencil"
            )
        if v.real == 0.0 and v.imag != 0.0:
            raise PhaseAmbiguity(
                f"entry {i}->{j} is purely imaginary: phase on the pi/2 boundary"
            )
        c = -np.sign(v.real) * abs(v)
        couplings[link] = c
        phases[link] = -np.angle(-v / c) if c != 0.0 else 0.0
    return PeierlsDecomposition(couplings, phases, diagonal)


def loop_tree_gauge_potential(lat, theta):
    chi = np.zeros(lat.n_sites)
    seen = np.zeros(lat.n_sites, dtype=bool)
    seen[0] = True
    frontier = [0]
    axis_links = np.flatnonzero(lat.link_axes[:, 0] == lat.link_axes[:, 1])
    by_src = {}
    for idx in axis_links:
        by_src.setdefault(int(lat.link_src[idx]), []).append(int(idx))
    while frontier:
        nxt = []
        for s in frontier:
            for idx in by_src.get(s, ()):
                j = int(lat.link_dst[idx])
                if not seen[j]:
                    seen[j] = True
                    chi[j] = chi[s] - theta[idx]
                    nxt.append(j)
        frontier = nxt
    return chi


def _loop_stencil_couplings(lat, H):
    mat = _asmat(H).tocoo()
    lut = _loop_lut(lat)
    c = np.zeros(lat.n_links)
    for i, j, v in zip(mat.row, mat.col, mat.data):
        if i == j or v == 0:
            continue
        link = lut.get((int(i), int(j)))
        if link is None:
            continue
        if v.real == 0.0 and v.imag != 0.0:
            raise PhaseAmbiguity("phase on the pi/2 boundary")
        c[link] = -np.sign(v.real) * abs(v)
    return c


def _row_sums(lat, c, da, db):
    return np.bincount(lat.link_src, weights=da * db * c, minlength=lat.n_sites)


def loop_cure_residual(lat, H, a, b, psi):
    psi = np.asarray(psi, dtype=complex)
    M = commutator(mult_op(lat, a).mat, commutator(_asmat(H), mult_op(lat, b).mat))
    c = _loop_stencil_couplings(lat, H)
    s = _row_sums(lat, c, a[lat.link_dst] - a[lat.link_src], b[lat.link_dst] - b[lat.link_src])
    return float(np.linalg.norm(M @ psi - s * psi))


def loop_coordinate_cure_residual(lat, H, k, l, psi):
    psi = np.asarray(psi, dtype=complex)
    mat = _asmat(H).tocoo()
    off = mat.row != mat.col
    rows, cols, vals = mat.row[off], mat.col[off], mat.data[off]
    dak = np.empty(len(rows))
    dbl = np.empty(len(rows))
    for n, (i, j) in enumerate(zip(rows, cols)):
        dx = loop_minimal_image_displacement(lat, i, j)
        dak[n], dbl[n] = dx[k], dx[l]
    M = sp.csr_matrix((-dak * dbl * vals, (rows, cols)), shape=mat.shape)
    c = _loop_stencil_couplings(lat, H)
    s = _row_sums(lat, c, lat.link_disp[:, k], lat.link_disp[:, l])
    return float(np.linalg.norm(M @ psi - s * psi))


def loop_validate_operator(lat, M, tol=1e-12):
    mat = _asmat(M).tocoo()
    herm = HermitianOperator(mat.tocsr()).hermiticity_defect()
    offdiag = mat.row != mat.col
    significant = offdiag & (np.abs(mat.data) > tol)
    radius = 0
    for i, j in zip(mat.row[significant], mat.col[significant]):
        radius = max(radius, loop_graph_distance(lat, i, j))
    max_offdiag = np.max(np.abs(mat.data[offdiag]), initial=0.0)
    comm_max = 0.0
    for k in range(lat.ndim):
        cm = commutator(M, sp.diags(lat.positions[:, k].astype(complex)))
        comm_max = max(comm_max, np.max(np.abs(cm.data), initial=0.0))
    return {
        "hermiticity_defect": float(herm),
        "locality_radius": int(radius),
        "commutant_defect": (float(max_offdiag), float(comm_max)),
    }


# ---------------------------------------------------------------- helpers

def assert_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def lattice(case):
    return build_lattice(LatticeSpec(*case))


def seeded_hamiltonian(lat, seed):
    """Variable metric with cross terms, generic connection and potential."""
    rng = np.random.default_rng(seed)
    d = lat.ndim
    a = 0.3 * rng.normal(size=(lat.n_sites, d, d))
    g = np.eye(d) + a @ np.swapaxes(a, 1, 2)
    w = rng.uniform(-0.6, 0.6, size=lat.n_links)
    theta = 0.5 * (w - w[lat.link_reverse])
    phi = rng.normal(size=lat.n_sites)
    return build_hamiltonian(lat, g, theta, phi, 1.3)


def range2_operator(n):
    """The interval operator with a fixed 0.1 range-2 hop."""
    lat = build_lattice(LatticeSpec("interval", (n,), (1.0,)))
    H = covariant_laplacian(lat, constant_metric(lat), None, 1.0).mat
    rows = np.arange(n - 2)
    hop = sp.csr_matrix((0.1 * np.ones(n - 2), (rows, rows + 2)), shape=(n, n))
    return lat, (H + hop + hop.T).tocsr()


def outcome(fn, *args):
    """Return value, or (exception class, message) when fn raises."""
    try:
        return fn(*args)
    except (KeyError, OperatorError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------- lattice

@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_lattice_arrays_match_loop(case):
    lat = lattice(case)
    arrays, _, gens = loop_build_lattice(lat.spec)
    for name, want in arrays.items():
        assert_bits(getattr(lat, name), want)
    assert len(lat.pi1_generators) == len(gens)
    for got, want in zip(lat.pi1_generators, gens):
        assert_bits(got, want)


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_link_table_matches_loop_lookup(case):
    lat = lattice(case)
    _, lookup, _ = loop_build_lattice(lat.spec)
    d = lat.ndim
    assert lat.link_table.shape == (lat.n_sites, len(_loop_steps(d)))
    assert np.count_nonzero(lat.link_table >= 0) == lat.n_links
    for (site, step), idx in lookup.items():
        assert lat.link_table[site, [tuple(s) for s, _, _ in _loop_steps(d)].index(step)] == idx
    # every step in {-2..2}^d (plus a wrong-dimension step) from every site
    # and from two sites out of range: KeyError exactly where the loop's
    # dict has no entry
    grid = np.stack(np.meshgrid(*[np.arange(-2, 3)] * d, indexing="ij"), -1).reshape(-1, d)
    steps = [tuple(int(v) for v in s) for s in grid] + [(1,) * (d + 1)]
    for site in [-1, *range(lat.n_sites), lat.n_sites]:
        for step in steps:
            got = outcome(lat.link_index, site, step)
            if (site, step) in lookup:
                assert got == lookup[(site, step)]
                assert type(got) is int
            else:
                assert got[0] is KeyError


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_pair_lookups_match_loop(case):
    lat = lattice(case)
    i, j = (a.ravel() for a in np.meshgrid(np.arange(lat.n_sites), np.arange(lat.n_sites),
                                           indexing="ij"))
    assert_bits(lat.graph_distance(i, j),
                np.array([loop_graph_distance(lat, p, q) for p, q in zip(i, j)]))
    assert_bits(lat.minimal_image_displacement(i, j),
                np.array([loop_minimal_image_displacement(lat, p, q) for p, q in zip(i, j)]))
    # scalar sites keep their scalar return types
    assert type(lat.graph_distance(0, 1)) is int
    assert_bits(lat.minimal_image_displacement(0, 1), loop_minimal_image_displacement(lat, 0, 1))


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_entry_links_match_loop_lookup(case):
    # an operator coupling every pair of distinct sites
    lat = lattice(case)
    H = np.ones((lat.n_sites, lat.n_sites)) - np.eye(lat.n_sites)
    rows, cols, _, links = _link_entries(lat, H)
    lut = _loop_lut(lat)
    assert len(rows) == lat.n_sites * (lat.n_sites - 1)
    assert_bits(links, np.array([lut.get((int(p), int(q)), -1) for p, q in zip(rows, cols)]))


def test_every_neighbour_adjacent_on_smallest_periodic_lattices():
    for case in (("ring", (3,), (1.0,)), ("torus", (3, 3), (1.0, 1.0))):
        lat = lattice(case)
        n = lat.n_sites
        assert lat.n_links == n * (n - 1)
        assert np.all(lat.graph_distance(lat.link_src, lat.link_dst) == 1)


# ---------------------------------------------------------------- operators

@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_inverse_path_matches_loop(case):
    lat = lattice(case)
    H = seeded_hamiltonian(lat, seed=len(lat.link_src))
    got, want = peierls_decompose(lat, H), loop_peierls_decompose(lat, H)
    for name in ("couplings", "phases", "diagonal"):
        assert_bits(getattr(got, name), getattr(want, name))
    assert validate_operator(lat, H) == loop_validate_operator(lat, H)
    psi = default_test_vector(lat)
    for k in range(lat.ndim):
        for l in range(k, lat.ndim):
            assert (coordinate_cure_residual(lat, H, k, l, psi)
                    == loop_coordinate_cure_residual(lat, H, k, l, psi))


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_peierls_errors_match_loop(case):
    lat = lattice(case)
    H = seeded_hamiltonian(lat, seed=1).mat.tolil()
    i, j = int(lat.link_src[0]), int(lat.link_dst[0])
    H[i, j], H[j, i] = 0.5j, -0.5j  # phase on the pi/2 boundary
    if lat.graph_distance(0, lat.n_sites // 2) > 1:
        far = lat.n_sites // 2
        H[0, far] = H[far, 0] = 0.25  # off the stencil
    H = H.tocsr()
    got = outcome(peierls_decompose, lat, H)
    assert got == outcome(loop_peierls_decompose, lat, H)
    assert got[0] in (LocalityViolation, PhaseAmbiguity)


@pytest.mark.parametrize("n", [32, 64])
def test_range2_operator_matches_loop(n):
    lat, H = range2_operator(n)
    x = lat.positions[:, 0]
    psi = default_test_vector(lat)
    assert cure_residual(lat, H, x, x, psi) == loop_cure_residual(lat, H, x, x, psi)
    assert (coordinate_cure_residual(lat, H, 0, 0, psi)
            == loop_coordinate_cure_residual(lat, H, 0, 0, psi))
    assert validate_operator(lat, H) == loop_validate_operator(lat, H)
    assert validate_operator(lat, H)["locality_radius"] == 2
    got = outcome(peierls_decompose, lat, H)
    assert got == outcome(loop_peierls_decompose, lat, H)
    assert got[0] is LocalityViolation


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_tree_gauge_matches_loop(case):
    lat = lattice(case)
    dec = peierls_decompose(lat, seeded_hamiltonian(lat, seed=2))
    assert_bits(tree_gauge_potential(lat, dec.phases), loop_tree_gauge_potential(lat, dec.phases))
    want = wrap_angle(dec.phases + d0(lat, loop_tree_gauge_potential(lat, dec.phases)))
    want[dec.couplings == 0.0] = 0.0
    assert_bits(tree_gauge_connection(lat, dec), want)


def composed_axiom_report(lat, H, m):
    """The axiom report composed from public calls: the metric's
    eigenvalues, one coordinate_cure_residual per coordinate pair, and the
    commutant pair of the commutator loop in loop_validate_operator."""
    g = reconstruct_metric(lat, peierls_decompose(lat, H), m)
    mins = np.linalg.eigvalsh(g).min(axis=1) if lat.ndim > 1 else g[:, 0, 0]
    psi = default_test_vector(lat)
    cures = tuple(((k, l), coordinate_cure_residual(lat, H, k, l, psi))
                  for k in range(lat.ndim) for l in range(k, lat.ndim))
    return mins, cures, loop_validate_operator(lat, H)["commutant_defect"]


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_axiom_report_matches_composition(case):
    lat = lattice(case)
    H = seeded_hamiltonian(lat, seed=3)
    got = reconstruction_report(lat, H, 1.3).axiom
    mins, cures, commutant = composed_axiom_report(lat, H, 1.3)
    assert_bits(got.metric_min_eigenvalue, mins)
    assert [pair for pair, _ in got.cure_residuals] == [pair for pair, _ in cures]
    assert_bits([r for _, r in got.cure_residuals], [r for _, r in cures])
    assert_bits(got.commutant_defect, commutant)
    assert got.positivity_ok == bool(mins.min() > 1e-10)
