"""Array-built spacetime complex against per-vertex / per-cell loop references.

The loops below are the straightforward definitions of the cubical
complex on lattice x time and of its diagonal Hodge star: walk every
vertex and every increasing axis tuple, step through the lattice one
link at a time, keep a dict from (axes, anchor) to cell id, and read the
metric once per cell.  At small n they are the oracle: every cell
table, incidence matrix, Hodge factor and assembled cochain of the
array code must equal theirs bit for bit, on all six topologies
(including ring (3,) and torus (3, 3)), with one and with three time
samples, and for both lapse signs.  The oracle's incidences are scipy
CSR matrices, so its products are scipy's: the coboundary, the source
and the continuity defect, computed from the complex's face tables, must
equal them bit for bit.
"""

from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    Cochain,
    ComplexError,
    LatticeSpec,
    assemble_potential,
    build_lattice,
    build_spacetime_complex,
    continuity_defect,
    current,
    d_cochain,
    hodge,
    hodge_factors,
    lorentzian_lift,
)

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

def _unit_step(d, k):
    e = [0] * d
    e[k] = 1
    return tuple(e)


def _is_canonical_axis_link(lattice, link, axis):
    step = lattice.link_step[link]
    ax = lattice.stencil.axes[step]
    return ax[0] == axis and ax[1] == axis and lattice.stencil.steps[step][axis] > 0


def loop_complex(lattice, n_t, dt):
    """Per-vertex loop build: cell lists, (axes, anchor) dicts, COO incidences."""
    d = lattice.ndim
    n_ax = d + 1
    ns = lattice.n_sites

    def vert(site, it):
        return it * ns + site

    def step(v, axis):
        it, site = divmod(v, ns)
        if axis == 0:
            return v + ns if it + 1 < n_t else None
        try:
            link = lattice.link_index(site, _unit_step(d, axis - 1))
        except KeyError:
            return None
        return vert(int(lattice.link_dst[link]), it)

    n_verts = ns * n_t
    edge_axes, edge_anchor, edge_lookup = [], [], {}
    edge_link, edge_time, edge_site = [], [], []
    d0_rows, d0_cols, d0_vals = [], [], []
    for it in range(n_t):
        for k in range(d):
            for link in range(lattice.n_links):
                if not _is_canonical_axis_link(lattice, link, k):
                    continue
                src, dst = int(lattice.link_src[link]), int(lattice.link_dst[link])
                v = vert(src, it)
                idx = len(edge_axes)
                edge_axes.append((k + 1,))
                edge_anchor.append(v)
                edge_lookup[((k + 1,), v)] = idx
                edge_link.append(link)
                edge_time.append(it)
                edge_site.append(src)
                d0_rows += [idx, idx]
                d0_cols += [vert(dst, it), v]
                d0_vals += [1.0, -1.0]
    for it in range(n_t - 1):
        for site in range(ns):
            v = vert(site, it)
            idx = len(edge_axes)
            edge_axes.append((0,))
            edge_anchor.append(v)
            edge_lookup[((0,), v)] = idx
            edge_link.append(-1)
            edge_time.append(it)
            edge_site.append(site)
            d0_rows += [idx, idx]
            d0_cols += [v + ns, v]
            d0_vals += [1.0, -1.0]

    face_axes, face_anchor, face_lookup = [], [], {}
    d1_rows, d1_cols, d1_vals = [], [], []
    for v in range(n_verts):
        for mu in range(n_ax):
            v_mu = step(v, mu)
            if v_mu is None:
                continue
            for nu in range(mu + 1, n_ax):
                v_nu = step(v, nu)
                if v_nu is None or step(v_mu, nu) is None:
                    continue
                idx = len(face_axes)
                face_axes.append((mu, nu))
                face_anchor.append(v)
                face_lookup[((mu, nu), v)] = idx
                for edge_key, sign in (
                    (((mu,), v), 1.0),
                    (((nu,), v_mu), 1.0),
                    (((mu,), v_nu), -1.0),
                    (((nu,), v), -1.0),
                ):
                    d1_rows.append(idx)
                    d1_cols.append(edge_lookup[edge_key])
                    d1_vals.append(sign)

    cube_axes, cube_anchor, cube_lookup = [], [], {}
    d2_rows, d2_cols, d2_vals = [], [], []
    for v in range(n_verts):
        for mu in range(n_ax):
            v_mu = step(v, mu)
            if v_mu is None:
                continue
            for nu in range(mu + 1, n_ax):
                v_nu = step(v, nu)
                if v_nu is None or step(v_mu, nu) is None:
                    continue
                for rho in range(nu + 1, n_ax):
                    v_rho = step(v, rho)
                    if v_rho is None:
                        continue
                    if step(v_mu, rho) is None or step(v_nu, rho) is None:
                        continue
                    if step(step(v_mu, nu), rho) is None:
                        continue
                    idx = len(cube_axes)
                    cube_axes.append((mu, nu, rho))
                    cube_anchor.append(v)
                    cube_lookup[((mu, nu, rho), v)] = idx
                    for face_key, sign in (
                        (((nu, rho), v), -1.0),
                        (((nu, rho), v_mu), 1.0),
                        (((mu, rho), v), 1.0),
                        (((mu, rho), v_nu), -1.0),
                        (((mu, nu), v), -1.0),
                        (((mu, nu), v_rho), 1.0),
                    ):
                        d2_rows.append(idx)
                        d2_cols.append(face_lookup[face_key])
                        d2_vals.append(sign)

    n_edges, n_faces, n_cubes = len(edge_axes), len(face_axes), len(cube_axes)
    return SimpleNamespace(
        lattice=lattice,
        n_t=n_t,
        n=n_ax,
        spacings=(dt,) + tuple(lattice.spacings),
        cell_axes=([()] * n_verts, edge_axes, face_axes, cube_axes),
        cell_anchor=(
            np.arange(n_verts),
            np.asarray(edge_anchor, dtype=int),
            np.asarray(face_anchor, dtype=int),
            np.asarray(cube_anchor, dtype=int),
        ),
        cell_lookup=({((), v): v for v in range(n_verts)}, edge_lookup, face_lookup, cube_lookup),
        incidence=(
            sp.csr_matrix((d0_vals, (d0_rows, d0_cols)), shape=(n_edges, n_verts)),
            sp.csr_matrix((d1_vals, (d1_rows, d1_cols)), shape=(n_faces, n_edges)),
            sp.csr_matrix((d2_vals, (d2_rows, d2_cols)), shape=(n_cubes, n_faces)),
        ),
        edge_link=np.asarray(edge_link, dtype=int),
        edge_time=np.asarray(edge_time, dtype=int),
        edge_site=np.asarray(edge_site, dtype=int),
    )


def _permutation_sign(order):
    sign = 1
    order = list(order)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


def _loop_diag_upper(ox, metric, site, it):
    if metric is None:
        return (-1.0,) + (1.0,) * ox.lattice.ndim
    fields = metric.fields
    sample = it if fields.shape[0] == ox.n_t else 0
    g = fields[sample][site]
    off = g - np.diag(np.diag(g))
    if np.max(np.abs(off), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise ComplexError("Hodge star supports diagonal spatial metrics only")
    return (metric.g00,) + tuple(np.diag(g))


def loop_hodge_factors(ox, k, metric):
    """Per-cell Hodge factors; sqrt|det g| = 1 / sqrt(|g00| prod g^kk)."""
    h = np.asarray(ox.spacings)
    ns = ox.lattice.n_sites
    out = np.empty(len(ox.cell_anchor[k]))
    for idx in range(len(ox.cell_anchor[k])):
        axes = ox.cell_axes[k][idx]
        it, site = divmod(int(ox.cell_anchor[k][idx]), ns)
        gup = _loop_diag_upper(ox, metric, site, it)
        comp = tuple(a for a in range(ox.n) if a not in axes)
        sqrt_det = 1.0 / np.sqrt(np.prod((abs(gup[0]),) + gup[1:]))
        lam = _permutation_sign(axes + comp) * sqrt_det
        for mu in axes:
            lam *= gup[mu] / h[mu]
        for nu in comp:
            lam *= h[nu]
        out[idx] = lam
    return out


def loop_hodge(ox, k, values, metric):
    nk = ox.n - k
    lam = loop_hodge_factors(ox, k, metric)
    out = np.zeros(len(ox.cell_anchor[nk]))
    lookup = ox.cell_lookup[nk]
    for idx in range(len(ox.cell_anchor[k])):
        axes = ox.cell_axes[k][idx]
        comp = tuple(a for a in range(ox.n) if a not in axes)
        target = lookup.get((comp, int(ox.cell_anchor[k][idx])))
        if target is not None:
            out[target] += lam[idx] * values[idx]
    return out


def loop_assemble_potential(ox, dt, A_series, phi_series):
    vals = np.zeros(len(ox.cell_anchor[1]))
    spatial = ox.edge_link >= 0
    for idx in np.flatnonzero(spatial):
        vals[idx] = A_series[ox.edge_time[idx]][ox.edge_link[idx]]
    for idx in np.flatnonzero(~spatial):
        vals[idx] = phi_series[ox.edge_time[idx]][ox.edge_site[idx]] * dt
    return vals


# ---------------------------------------------------------------- helpers

def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def incidence_csr(cx, k):
    """D_k of the complex as a scipy CSR matrix, its rows the face tables' rows."""
    faces, signs = cx.incidence[k]
    n_rows, width = faces.shape
    return sp.csr_matrix((signs.ravel(), faces.ravel(), np.arange(0, n_rows * width + 1, width)),
                         shape=(n_rows, cx.n_cells(k)))


def spread_values(rng, n):
    """n values of random sign and magnitude 1e-300..1e300, about 30% of
    them 0.0 or -0.0 (0.0 + -0.0 is 0.0: a sum must start from 0.0)."""
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    values[rng.random(n) < 0.3] *= 0.0
    return values


def diagonal_series(lat, n_t, rng):
    """Position- and time-dependent diagonal inverse metrics, (n_t, n, d, d)."""
    g = np.zeros((n_t, lat.n_sites, lat.ndim, lat.ndim))
    for k in range(lat.ndim):
        g[:, :, k, k] = rng.uniform(0.5, 2.0, size=(n_t, lat.n_sites))
    return g


def complexes(topology, sizes, spacings, n_t):
    lat = build_lattice(LatticeSpec(topology, sizes, spacings))
    dt = 0.3
    return lat, dt, build_spacetime_complex(lat, n_t, dt), loop_complex(lat, n_t, dt)


GRID = [(*case, n_t) for case in LATTICES for n_t in (1, 3)]
GRID_IDS = [f"{name}-nt{n_t}" for name in LATTICE_IDS for n_t in (1, 3)]


# ---------------------------------------------------------------- complex

@pytest.mark.parametrize("topology,sizes,spacings,n_t", GRID, ids=GRID_IDS)
def test_cells_and_incidence_match_loop_oracle(topology, sizes, spacings, n_t):
    lat, _, cx, ox = complexes(topology, sizes, spacings, n_t)
    for k in range(4):
        assert cx.n_cells(k) == len(ox.cell_anchor[k])
        assert_bits_equal(cx.cell_anchor[k], ox.cell_anchor[k])
        want_axes = np.array(ox.cell_axes[k], dtype=int).reshape(len(ox.cell_axes[k]), k)
        assert_bits_equal(cx.cell_axes[k], want_axes)
        combos = list(combinations(range(cx.n), k))
        assert cx.cell_table[k].shape == (cx.n_cells(0), len(combos))
        assert np.count_nonzero(cx.cell_table[k] >= 0) == len(ox.cell_lookup[k])
        for (axes, anchor), idx in ox.cell_lookup[k].items():
            assert cx.cell_table[k][anchor, combos.index(axes)] == idx
    for got, want in zip((incidence_csr(cx, k) for k in range(3)), ox.incidence):
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert_bits_equal(getattr(got, attr), getattr(want, attr))
    assert_bits_equal(cx.edge_link, ox.edge_link)
    edge_time, edge_site = np.divmod(cx.cell_anchor[1], lat.n_sites)
    assert_bits_equal(edge_time, ox.edge_time)
    assert_bits_equal(edge_site, ox.edge_site)


@pytest.mark.parametrize("topology,sizes,spacings,n_t", GRID, ids=GRID_IDS)
def test_products_equal_the_csr_products_bit_for_bit(topology, sizes, spacings, n_t):
    # terms over 600 decades with random signs: any other order of addition
    # rounds differently somewhere
    lat, dt, cx, ox = complexes(topology, sizes, spacings, n_t)
    for faces, _ in cx.incidence:
        assert all(len(set(row)) == len(row) for row in faces.tolist())
    rng = np.random.default_rng(15)
    for k, D in enumerate(ox.incidence):
        omega = Cochain(cx, k, spread_values(rng, cx.n_cells(k)))
        assert_bits_equal(d_cochain(omega).values, D @ omega.values)
    D0, D1, _ = ox.incidence
    metric = lorentzian_lift(lat, diagonal_series(lat, n_t, rng), dt)
    for star in (hodge_factors(cx), hodge_factors(cx, metric)):
        pot = Cochain(cx, 1, spread_values(rng, cx.n_cells(1)))
        want = D1.T @ (star.factors[2] * (D1 @ pot.values))
        assert_bits_equal(current(star, d_cochain(pot)).values, want / star.factors[1])
        j = Cochain(cx, 1, spread_values(rng, cx.n_cells(1)))
        top = D0.T @ (star.factors[1] * j.values)
        assert continuity_defect(star, j) == float(np.max(np.abs(top), initial=0.0))


# ---------------------------------------------------------------- hodge

@pytest.mark.parametrize("g00", [-1.0, 1.0])
@pytest.mark.parametrize("topology,sizes,spacings,n_t", GRID, ids=GRID_IDS)
def test_hodge_matches_loop_oracle(topology, sizes, spacings, n_t, g00):
    lat, dt, cx, ox = complexes(topology, sizes, spacings, n_t)
    rng = np.random.default_rng(11)
    series = diagonal_series(lat, n_t, rng)
    metrics = [
        None,
        lorentzian_lift(lat, series, dt, g00=g00),
        lorentzian_lift(lat, series[0], g00=g00),  # one sample for every time
    ]
    for metric in metrics:
        star = hodge_factors(cx, metric)
        for k in range(4):
            assert_bits_equal(star.factors[k], loop_hodge_factors(ox, k, metric))
            if 0 <= cx.n - k <= 3:
                omega = Cochain(cx, k, rng.normal(size=cx.n_cells(k)))
                assert_bits_equal(hodge(star, omega).values,
                                  loop_hodge(ox, k, omega.values, metric))


@pytest.mark.parametrize("topology,sizes,spacings", LATTICES, ids=LATTICE_IDS)
def test_hodge_matches_loop_oracle_off_unit_lapse(topology, sizes, spacings):
    lat, dt, cx, ox = complexes(topology, sizes, spacings, 3)
    metric = lorentzian_lift(lat, diagonal_series(lat, 3, np.random.default_rng(12)), dt,
                             g00=-4.0)
    star = hodge_factors(cx, metric)
    for k in range(4):
        assert_bits_equal(star.factors[k], loop_hodge_factors(ox, k, metric))


@pytest.mark.parametrize(
    "topology,sizes,spacings,n_t",
    [case for case in GRID if len(case[1]) >= 2],
    ids=[i for case, i in zip(GRID, GRID_IDS) if len(case[1]) >= 2],
)
def test_nondiagonal_metric_rejected_for_the_same_degrees(topology, sizes, spacings, n_t):
    # one non-diagonal sample at the last vertex, which anchors cells of
    # some degrees only (on open axes it is a top corner and anchors only
    # its 0-cell); the loop refuses those degrees, the star refuses once
    lat, dt, cx, ox = complexes(topology, sizes, spacings, n_t)
    series = diagonal_series(lat, n_t, np.random.default_rng(13))
    series[-1, -1, 0, 1] = series[-1, -1, 1, 0] = 0.1
    metric = lorentzian_lift(lat, series, dt)
    with pytest.raises(ComplexError, match="diagonal spatial metrics only"):
        loop_hodge_factors(ox, 0, metric)
    with pytest.raises(ComplexError, match="diagonal spatial metrics only"):
        hodge_factors(cx, metric)


# ---------------------------------------------------------------- potential

@pytest.mark.parametrize("topology,sizes,spacings,n_t", GRID, ids=GRID_IDS)
def test_assemble_potential_matches_loop_oracle(topology, sizes, spacings, n_t):
    lat, dt, cx, ox = complexes(topology, sizes, spacings, n_t)
    rng = np.random.default_rng(14)
    A_series = [rng.normal(size=lat.n_links) for _ in range(n_t)]
    phi_series = [rng.normal(size=lat.n_sites) for _ in range(n_t)]
    assert_bits_equal(assemble_potential(cx, A_series, phi_series).values,
                      loop_assemble_potential(ox, dt, A_series, phi_series))
