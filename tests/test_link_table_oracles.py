"""Array code against per-site / per-entry loop reference implementations.

The loops below are the straightforward definitions of the lattice link
structure and its plaquettes, of the Peierls split and of the tree-gauge
BFS: one site or one matrix entry at a time, with a dict from
(site, step), (i, j) or site to link ids.  At small n
they are the oracle: every array the vectorized code produces must equal
theirs bit for bit, on all six topologies (including ring (3,) and
torus (3, 3), where every pair of distinct sites is joined by a link)
and on an operator with range-2 couplings.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    Cochain,
    Lattice,
    LatticeSpec,
    LocalityViolation,
    OperatorError,
    PeierlsDecomposition,
    PhaseAmbiguity,
    build_hamiltonian,
    build_lattice,
    build_spacetime_complex,
    constant_metric,
    coordinate_cure_residual,
    d0,
    d_cochain,
    default_test_vector,
    link_field,
    peierls_decompose,
    plaquette_sums,
    reconstruct_metric,
    reconstruction_report,
    tree_gauge_connection,
    tree_gauge_potential,
    validate_operator,
    wrap_angle,
)
from geomqm.operators import _asmat
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
    """Per-site build: (arrays, (site, step) -> link dict, pi_1 cycles,
    (n_plaq, 4) plaquette link cycles)."""
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

    src, dst, columns = [], [], []
    lookup = {}
    for s in range(n_sites):
        for col, (step, _, _) in enumerate(_loop_steps(ndim)):
            target = wrap(coords[s] + step)
            if target is None:
                continue
            lookup[(s, tuple(int(v) for v in step))] = len(src)
            src.append(s)
            dst.append(int(np.ravel_multi_index(target, sizes)))
            columns.append(col)
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
        link_step=np.asarray(columns, dtype=int),
        link_reverse=np.asarray(reverse, dtype=int),
    )
    return arrays, lookup, gens, np.asarray(plaq_links, dtype=int).reshape(-1, 4)


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


def _coo(H):
    """H as a scipy COO matrix, in the entry order of its record."""
    mat = _asmat(H)
    return sp.coo_matrix((mat.data, (mat.row, mat.col)), shape=mat.shape)


def loop_peierls_decompose(lat, H):
    mat = _coo(H)
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
    axes = np.array([ax for _, ax, _ in _loop_steps(lat.ndim)])[lat.link_step]
    axis_links = np.flatnonzero(axes[:, 0] == axes[:, 1])
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
    mat = _coo(H)
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


def loop_coordinate_cure_residual(lat, H, k, l, psi):
    psi = np.asarray(psi, dtype=complex)
    mat = _coo(H)
    off = mat.row != mat.col
    rows, cols, vals = mat.row[off], mat.col[off], mat.data[off]
    dak = np.empty(len(rows))
    dbl = np.empty(len(rows))
    for n, (i, j) in enumerate(zip(rows, cols)):
        dx = loop_minimal_image_displacement(lat, i, j)
        dak[n], dbl[n] = dx[k], dx[l]
    M = sp.csr_matrix((-dak * dbl * vals, (rows, cols)), shape=mat.shape)
    c = _loop_stencil_couplings(lat, H)
    disp = np.array([step * np.asarray(lat.spacings) for step, _, _ in _loop_steps(lat.ndim)])
    s = _row_sums(lat, c, disp[lat.link_step, k], disp[lat.link_step, l])
    return float(np.linalg.norm(M @ psi - s * psi))


def loop_validate_operator(lat, M, tol=1e-12):
    mat = _coo(M)
    herm = np.max(np.abs((mat - mat.getH()).data), initial=0.0)
    offdiag = mat.row != mat.col
    significant = offdiag & (np.abs(mat.data) > tol)
    radius = 0
    for i, j in zip(mat.row[significant], mat.col[significant]):
        radius = max(radius, loop_graph_distance(lat, i, j))
    max_offdiag = np.max(np.abs(mat.data[offdiag]), initial=0.0)
    comm_max = 0.0
    for k in range(lat.ndim):
        a = sp.diags(lat.positions[:, k].astype(complex))
        cm = mat @ a - a @ mat
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
    H = _coo(build_hamiltonian(lat, constant_metric(lat), None, None, 1.0))
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
    arrays, _, gens, plaq_links = loop_build_lattice(lat.spec)
    for name, want in arrays.items():
        assert_bits(getattr(lat, name), want)
    # a field that is not antisymmetric, so each of the four directed links counts
    w = np.random.default_rng(3).normal(size=lat.n_links)
    assert_bits(plaquette_sums(lat, w), w[plaq_links].sum(axis=1))
    steps, axes, signs = zip(*_loop_steps(lat.ndim))
    for got, want in zip(lat.stencil[:3], (steps, axes, signs)):
        assert_bits(got, np.array(want))
    assert len(lat.pi1_generators) == len(gens)
    for got, want in zip(lat.pi1_generators, gens):
        assert_bits(got, want)


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_one_sample_complex_2_cells_are_the_plaquettes(case):
    # order and orientation: dA of a seeded antisymmetric field on the 2-cells
    # of lattice x {one time sample} equals its plaquette sums.  Both add the
    # same four +-w terms, each partial sum at most 4 max|w|, in different
    # orders, so they differ by at most 2 * 3 * (eps / 2) * 4 max|w|.
    lat = lattice(case)
    r = np.random.default_rng(4).normal(size=lat.n_links)
    w = link_field(lat, r - r[lat.link_reverse])
    cx = build_spacetime_complex(lat, 1, 0.5)
    dA = d_cochain(Cochain(cx, 1, w[cx.edge_link])).values
    F = plaquette_sums(lat, w)
    assert dA.shape == F.shape
    assert np.max(np.abs(dA - F), initial=0.0) <= 12 * np.finfo(float).eps * np.abs(w).max()


@pytest.mark.parametrize("case", LATTICES, ids=LATTICE_IDS)
def test_link_table_matches_loop_lookup(case):
    lat = lattice(case)
    _, lookup, _, _ = loop_build_lattice(lat.spec)
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
    rows, cols, _, links, _ = _link_entries(lat, H)
    lut = _loop_lut(lat)
    assert len(rows) == lat.n_sites * (lat.n_sites - 1)
    assert_bits(links, np.array([lut.get((int(p), int(q)), -1) for p, q in zip(rows, cols)]))


def loop_entry_links(lat, rows, cols):
    """Per-entry Lattice.link_index along the minimal-image step, -1 where it raises."""
    links = []
    for i, j in zip(rows, cols):
        try:
            links.append(lat.link_index(i, tuple(_loop_min_image(lat, i, j))))
        except KeyError:
            links.append(-1)
    return np.array(links)


@pytest.mark.parametrize("case", [
    ("ring", (3,), (1.0,)),
    ("torus", (3, 3), (1.0, 0.8)),
    ("cylinder", (3, 5), (0.5, 1.0)),
    ("box3", (3, 3, 3), (1.0, 0.5, 0.25)),
], ids=["ring(3,)", "torus(3, 3)", "cylinder(3, 5)", "box3(3, 3, 3)"])
def test_entry_links_match_link_index(case, monkeypatch):
    # shapes where a step code could alias: periodic axes of 3 sites, and
    # box3's off-stencil steps like (1, 1, 1) with every component in
    # {-1, 0, 1}; a 0.1 coupling joins every pair at graph distance 2
    # (there are none on ring (3,) and torus (3, 3))
    lat = lattice(case)
    n = lat.n_sites
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    far = lat.graph_distance(i, j) == 2
    H = (_coo(seeded_hamiltonian(lat, seed=4))
         + sp.csr_matrix((np.full(far.sum(), 0.1), (i[far], j[far])), shape=(n, n)))
    with monkeypatch.context() as mp:
        mp.setattr(Lattice, "link_index", lambda *args: pytest.fail("link_index called"))
        rows, cols, _, links, _ = _link_entries(build_lattice(lat.spec), H)
    assert_bits(links, loop_entry_links(lat, rows, cols))
    off = lat.graph_distance(rows, cols) == 2
    assert np.all(links[off] == -1) and np.all(links[~off] >= 0)
    assert off.any() == (lat.spec.topology in ("cylinder", "box3"))
    got = outcome(peierls_decompose, lat, H)
    if off.any():
        assert got[0] is LocalityViolation
    else:
        assert isinstance(got, PeierlsDecomposition)


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
    H = _coo(seeded_hamiltonian(lat, seed=1)).tolil()
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
    psi = default_test_vector(lat)
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
