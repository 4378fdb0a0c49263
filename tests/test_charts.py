import itertools
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rtgeo.charts import (
    Chart,
    GridField,
    JacobianField,
    _d1,
    connection_field,
    dump_field,
    interpolate,
    load_field,
    make_chart,
    sample_field,
)
from rtgeo.errors import ConfigurationError, DomainExit, JacobianError, SamplingError, SolverError
from rtgeo.geodesics import _sampled_rhs


def test_make_chart_spacing():
    c = make_chart(2, [(0, 1), (0, 1)], [65, 65])
    assert np.allclose(c.h, 1 / 64)
    c2 = make_chart(2, [(0, 1), (0, 2)], [33, 65])
    assert np.allclose(c2.h, [1 / 32, 1 / 32])
    assert c2.npoints == 33 * 65


def test_make_chart_preconditions():
    with pytest.raises(ConfigurationError):
        make_chart(1, [(0, 1)], [33])
    with pytest.raises(ConfigurationError):
        make_chart(2, [(0, 1), (0, 1)], [7, 33])
    with pytest.raises(ConfigurationError):
        make_chart(2, [(0, 1), (1, 1)], [33, 33])
    with pytest.raises(ConfigurationError):
        make_chart(2, [(0, 1)], [33, 33])


def test_sample_field_constant_and_linear(unit_chart):
    z = sample_field(unit_chart, lambda p: np.zeros((p.shape[0], 1)), (1,))
    assert np.all(z.values == 0)
    f = sample_field(unit_chart, lambda p: p[:, :1], (1,))
    # values {0, .5, 1, ...} repeated per row of the grid
    assert np.allclose(f.values[..., 0], unit_chart.nodes[..., 0])


def test_sample_field_nonfinite_names_node(unit_chart):
    def bad(p):
        out = np.ones((p.shape[0], 1))
        out[p[:, 0] > 0.9] = np.inf
        return out

    with pytest.raises(SamplingError):
        sample_field(unit_chart, bad, (1,))


def test_sphere_christoffels_error_at_pole():
    from rtgeo.harness import sphere_christoffel

    chart = Chart((0.0, 0.0), (np.pi / 2, 1.0), (33, 33))
    with pytest.raises(SamplingError), np.errstate(divide="ignore", invalid="ignore"):
        sample_field(chart, lambda p: sphere_christoffel(p), (2, 2, 2))
    chart_ok = Chart((np.pi / 4, 0.0), (3 * np.pi / 4, 1.0), (33, 33))
    f = sample_field(chart_ok, lambda p: sphere_christoffel(p), (2, 2, 2))
    assert np.all(np.isfinite(f.values))


def test_interpolate_constant_affine_exact(unit_chart):
    c = GridField(unit_chart, np.full(unit_chart.res + (1,), 3.25))
    assert abs(interpolate(c, np.array([0.37, 0.61]))[0] - 3.25) < 1e-14
    f = GridField(unit_chart, unit_chart.nodes[..., :1].copy())
    assert abs(interpolate(f, np.array([0.3, 0.7]))[0] - 0.3) < 1e-14
    aff = GridField(
        unit_chart,
        (1.5 + 2.0 * unit_chart.nodes[..., 0] - 0.7 * unit_chart.nodes[..., 1])[..., None],
    )
    pts = np.array([[0.11, 0.52], [0.93, 0.18]])
    want = 1.5 + 2.0 * pts[:, 0] - 0.7 * pts[:, 1]
    assert np.allclose(interpolate(aff, pts)[:, 0], want, atol=1e-13)


def test_interpolate_nodes_identity(unit_chart):
    rng = np.random.default_rng(3)
    f = GridField(unit_chart, rng.standard_normal(unit_chart.res + (2,)))
    pts = unit_chart.nodes.reshape(-1, 2)
    got = interpolate(f, pts)
    assert np.allclose(got, f.values.reshape(-1, 2), atol=1e-12)


def test_interpolate_cell_center_average_of_corners(unit_chart):
    f = GridField(unit_chart, (unit_chart.nodes[..., 0] ** 2)[..., None])
    h = unit_chart.h
    center = np.array([h[0] / 2, h[1] / 2])
    got = interpolate(f, center)[0]
    corners = f.values[0, 0, 0], f.values[1, 0, 0], f.values[0, 1, 0], f.values[1, 1, 0]
    assert abs(got - np.mean(corners)) < 1e-14
    # interpolation error of the quadratic is O(h^2)
    assert abs(got - (h[0] / 2) ** 2) < h[0] ** 2


def test_interpolate_domain_exit(unit_chart):
    f = GridField(unit_chart, np.zeros(unit_chart.res + (1,)))
    with pytest.raises(DomainExit):
        interpolate(f, np.array([1.2, 0.5]))


def bilinear_reference(fld, pts):
    """The n = 2 bilinear formula, (1-a)(1-b) v00 + a(1-b) v10 + (1-a)b v01 + ab v11."""
    chart = fld.chart
    t = (pts - chart.lo) / chart.h
    i0 = np.minimum(t.astype(int), np.asarray(chart.res) - 2)
    frac = t - i0
    a, b = frac[:, :1], frac[:, 1:]
    i, j = i0[:, 0], i0[:, 1]
    v = fld.values.reshape(chart.res + (-1,))
    return (
        (1 - a) * (1 - b) * v[i, j]
        + a * (1 - b) * v[i + 1, j]
        + (1 - a) * b * v[i, j + 1]
        + a * b * v[i + 1, j + 1]
    )


def probe_points(chart, rng, m=400):
    """Random points, every grid node, and points on each hi face, where the
    cell index clamps to res - 2."""
    pts = [chart.lo + rng.random((m, chart.n)) * (chart.hi - chart.lo), chart.nodes.reshape(-1, chart.n)]
    for ax in range(chart.n):
        face = chart.lo + rng.random((m // 4, chart.n)) * (chart.hi - chart.lo)
        face[:, ax] = chart.hi[ax]
        pts.append(face)
    pts.append(chart.hi[None, :])
    return np.concatenate(pts)


def test_interpolate_matches_bilinear_formula():
    rng = np.random.default_rng(11)
    chart = Chart((-0.3, 0.1), (1.7, 0.93), (17, 23))
    # non-positive values with -0.0 nodes: at a node every corner term is
    # -0.0, so only a sum started from the first term keeps the sign bit
    vals = -np.abs(rng.standard_normal(chart.res + (3,)))
    vals[rng.random(vals.shape) < 0.3] = -0.0
    for values in (vals, rng.standard_normal(chart.res + (2, 2))):
        fld = GridField(chart, values)
        pts = probe_points(chart, rng)
        got = interpolate(fld, pts).reshape(len(pts), -1)
        want = bilinear_reference(fld, pts)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    at_nodes = interpolate(GridField(chart, vals), chart.nodes.reshape(-1, 2))
    assert (np.signbit(at_nodes) & (at_nodes == 0)).any()  # the -0.0 case occurs


def corner_sum_reference(fld, pts):
    """The multilinear corner sum with tuple-indexed corners: for the 2^n
    corners, axis 0 fastest, the weight is a left-to-right product of (1 - f)
    or f over the axes and the sum starts from the first corner's term."""
    chart = fld.chart
    t = (pts - chart.lo) / chart.h
    i0 = np.minimum(t.astype(int), np.asarray(chart.res) - 2)
    frac = t - i0
    v = fld.values.reshape(chart.res + (-1,))
    out = None
    for bits in itertools.product((0, 1), repeat=chart.n):
        bits = bits[::-1]
        w = None
        for k, b in enumerate(bits):
            f = frac[:, k : k + 1] if b else 1 - frac[:, k : k + 1]
            w = f if w is None else w * f
        term = w * v[tuple(i0[:, k] + b for k, b in enumerate(bits))]
        out = term if out is None else out + term
    return out


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes() and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("res", [(17, 23), (9, 10, 11), (8, 9, 8, 10)])
def test_interpolate_matches_tuple_indexed_corner_sum(res):
    """The flat-index gathers against tuple indexing, byte for byte: batches,
    single points, clipped points, -0.0 samples and points on the hi faces."""
    rng = np.random.default_rng(sum(res))
    n = len(res)
    chart = Chart(rng.uniform(-1, 0, n), rng.uniform(0.5, 2, n), res)
    signed = -np.abs(rng.standard_normal(chart.res + (2,)))
    signed[rng.random(signed.shape) < 0.3] = -0.0
    for values in (signed, rng.standard_normal(chart.res + (n, n))):
        fld = GridField(chart, values)
        pts = probe_points(chart, rng, m=200)
        want = corner_sum_reference(fld, pts)
        assert same_bits(interpolate(fld, pts).reshape(len(pts), -1), want)
        for i in range(0, len(pts), 17):
            assert same_bits(interpolate(fld, pts[i]).ravel(), want[i])
        wide = 0.5 * (chart.lo + chart.hi) + 1.5 * (pts - 0.5 * (chart.lo + chart.hi))
        assert not chart.contains(wide).all()
        got = interpolate(fld, wide, clip=True).reshape(len(pts), -1)
        assert same_bits(got, corner_sum_reference(fld, np.clip(wide, chart.lo, chart.hi)))
    at_nodes = interpolate(GridField(chart, signed), chart.nodes.reshape(-1, n))
    assert (np.signbit(at_nodes) & (at_nodes == 0)).any()  # the -0.0 case occurs


def gamma_vv_reference(fld, x, v):
    """The sampled right-hand side as the array code has it."""
    return -np.einsum("mrn,r,n->m", interpolate(fld, x), v, v)


@pytest.mark.parametrize("res", [(17, 23), (9, 10, 11)])
def test_sampled_rhs_matches_interpolate(res):
    rng = np.random.default_rng(len(res))
    n = len(res)
    chart = Chart(rng.uniform(-1, 0, n), rng.uniform(0.5, 2, n), res)
    vals = rng.standard_normal(chart.res + (n, n, n))
    vals[rng.random(vals.shape) < 0.2] = -0.0
    fld = connection_field(chart, vals)
    pts = probe_points(chart, rng)
    for x, row in zip(pts, interpolate(fld, pts)):  # the one-point reference is the batch's
        assert interpolate(fld, x).tobytes() == row.tobytes()
    # a random velocity, each axis alone (a row then reads one interpolated
    # component, G[m, a, a]), and a velocity with a -0.0 entry
    signed_zero = np.where(np.arange(n) == 0, -0.0, rng.standard_normal(n))
    velocities = [rng.standard_normal(n), *np.eye(n), signed_zero]
    want = {i: [gamma_vv_reference(fld, x, v) for v in velocities] for i, x in enumerate(pts)}
    assert any((w == 0).any() for rows in want.values() for w in rows)  # zero rows occur
    cells = np.minimum(((pts - chart.lo) / chart.h).astype(int), np.array(res) - 2)
    rhs = _sampled_rhs(fld)
    for ax in range(n):
        # ordered by cell with axis ax slowest: runs of points share the
        # right-hand side's kept cell, and neighbouring runs share axis ax's index
        order = np.lexsort([*np.delete(cells, ax, axis=1).T, cells[:, ax]])
        assert (np.diff(cells[order], axis=0) == 0).all(axis=1).any()
        for i in order:
            x = tuple(pts[i].tolist())
            for v, w in zip(velocities, want[i]):
                got = np.array(rhs(0.0, x, tuple(v.tolist())))
                assert got.tobytes() == w.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(w))


@pytest.mark.parametrize("res", [(17, 23), (9, 10, 11)])
def test_interpolators_raise_domain_exit(res):
    n = len(res)
    chart = Chart(np.linspace(-0.5, 0.2, n), np.linspace(0.7, 1.9, n), res)
    fld = connection_field(chart, np.ones(chart.res + (n, n, n)))
    rhs = _sampled_rhs(fld)
    v = np.linspace(-1.0, 0.5, n)
    mid = 0.5 * (chart.lo + chart.hi)
    for ax in range(n):
        for face, away in ((chart.lo[ax], -np.inf), (chart.hi[ax], np.inf)):
            on = mid.copy()
            on[ax] = face
            off = on.copy()
            off[ax] = np.nextafter(face, away)
            got = np.array(rhs(0.0, tuple(on.tolist()), tuple(v.tolist())))
            assert got.tobytes() == gamma_vv_reference(fld, on, v).tobytes()
            with pytest.raises(DomainExit):
                rhs(0.0, tuple(off.tolist()), tuple(v.tolist()))
            with pytest.raises(DomainExit):
                interpolate(fld, off)
            with pytest.raises(DomainExit):
                interpolate(fld, np.stack([mid, off]))


def test_jacobian_field_invariants(unit_chart):
    J = np.broadcast_to(np.eye(2), unit_chart.res + (2, 2)).copy()
    jf = JacobianField(unit_chart, J)
    assert np.abs(jf.det - 1).max() < 1e-14
    bad = J.copy()
    bad[5, 5] = 0.0
    with pytest.raises(JacobianError):
        JacobianField(unit_chart, bad)


def test_jacobian_field_at_interpolates_samples(unit_chart):
    rng = np.random.default_rng(12)
    J = np.eye(2) + 0.1 * rng.standard_normal(unit_chart.res + (2, 2))
    jf = JacobianField(unit_chart, J)
    pts = rng.uniform(-0.2, 1.2, size=(50, 2))
    want = interpolate(GridField(unit_chart, J), pts, clip=True)
    assert jf.at(pts, clip=True).tobytes() == want.tobytes()
    assert jf.at(pts[0], clip=True).shape == (2, 2)
    with pytest.raises(DomainExit):
        jf.at(np.array([1.2, 0.5]))


@pytest.mark.parametrize("res", [(33, 33), (65, 65), (9, 10, 11)], ids=["n=2-33", "n=2-65", "n=3"])
def test_chart_grad_matches_per_column_stacks(res):
    chart = Chart((0.0,) * len(res), (1.0,) * len(res), res)
    n = chart.n
    rng = np.random.default_rng(n)
    u = rng.standard_normal(chart.res + (n,))  # vector components: samples of a map
    J = rng.standard_normal(chart.res + (n, n))  # matrix components: Jacobian samples
    # the Jacobian of a map, as the double stack over (component, axis)
    jac = np.stack(
        [np.stack([chart.deriv(u[..., mu], nu) for nu in range(n)], axis=-1) for mu in range(n)],
        axis=-2,
    )
    assert chart.grad(u).tobytes() == jac.tobytes()
    # dJ, one derivative per (row, column, axis)
    dJ = np.empty(J.shape + (n,))
    for a, b, rho in np.ndindex(n, n, n):
        dJ[..., a, b, rho] = chart.deriv(J[..., a, b], rho)
    assert chart.grad(J).shape == chart.res + (n, n, n)
    assert chart.grad(J).tobytes() == dJ.tobytes()


def dirichlet_matrix_by_rows(chart):
    """The Dirichlet matrix built row by row: identity, then each interior
    row replaced by the Laplacian's."""
    A = sp.eye(chart.npoints, format="csr").tolil()
    L = chart.lap_op
    for i in np.where(chart.interior_mask.ravel())[0]:
        A.rows[i] = L.indices[L.indptr[i] : L.indptr[i + 1]].tolist()
        A.data[i] = L.data[L.indptr[i] : L.indptr[i + 1]].tolist()
    return A.tocsc()


def _d1_by_items(m, h):
    """The first-derivative matrix set entry by entry in a lil_matrix, then converted."""
    D = sp.lil_matrix((m, m))
    for i in range(1, m - 1):
        D[i, i - 1] = -0.5 / h
        D[i, i + 1] = 0.5 / h
    D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D[m - 1, m - 1], D[m - 1, m - 2], D[m - 1, m - 3] = 1.5 / h, -2.0 / h, 0.5 / h
    return D.tocsr()


@pytest.mark.parametrize("m", [8, 9, 17, 33, 65, 129, 257])
def test_d1_matches_lil_construction(m):
    # every sparse product built on _d1 (diff_ops, lap_op) inherits its bytes
    h = 1.0 / (m - 1)
    got, want = _d1(m, h), _d1_by_items(m, h)
    assert got.shape == (m, m) and got.has_sorted_indices
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


@pytest.mark.parametrize("res", [(33, 33), (65, 65), (129, 129), (65, 40), (9, 10, 11), (17, 17, 17)])
def test_dirichlet_solve_matches_sparse_lu(res):
    chart = Chart((0.0,) * len(res), (1.0,) * len(res), res)
    rng = np.random.default_rng(len(res))
    source, boundary = rng.standard_normal((2,) + res + (3,))
    rhs = source.reshape(chart.npoints, -1).copy()
    rim = ~chart.interior_mask.ravel()
    rhs[rim] = boundary.reshape(chart.npoints, -1)[rim]
    want = spla.splu(dirichlet_matrix_by_rows(chart)).solve(rhs).reshape(source.shape)
    got = chart.dirichlet_solve(source, boundary)
    assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()
    assert got[~chart.interior_mask].tobytes() == boundary[~chart.interior_mask].tobytes()


@pytest.mark.parametrize("res", [(33, 33), (40, 57), (33, 33, 33)])
def test_dirichlet_solve_recovers_quadratic(res):
    # the stencil differentiates quadratics exactly, so Delta q is exact and
    # the solve with q on the rim must give q back to round-off
    n = len(res)
    chart = Chart((-0.5,) * n, (1.0,) + (0.75,) * (n - 1), res)
    X = chart.nodes
    q = np.stack([1.0 + X[..., 0] ** 2 - 0.5 * X[..., 0] * X[..., -1], X[..., 1] * (0.3 - X[..., 1])], axis=-1)
    u = chart.dirichlet_solve(chart.laplace(q), q)
    assert np.abs(u - q).max() < 1e-11
    # a wrong rim value in the middle of a face reaches the interior
    wrong = q.copy()
    wrong[(0,) + tuple(r // 2 for r in res[1:])] += 1.0
    assert np.abs(chart.dirichlet_solve(chart.laplace(q), wrong) - q)[chart.interior_mask].max() > 1e-6


def test_dirichlet_solve_rejects_non_real_spectrum(monkeypatch):
    chart = Chart((0.0, 0.0), (1.0, 1.0), (9, 12))
    real_eig = np.linalg.eig

    def eig(a):
        lam, V = real_eig(a)
        if len(a) == 10:
            lam = lam + 1j * (np.arange(len(lam)) == 0)
        return lam, V.astype(lam.dtype)

    monkeypatch.setattr(np.linalg, "eig", eig)
    with pytest.raises(SolverError, match="axis 1, m = 12"):
        chart.dirichlet_solve(np.zeros(chart.res), 0.0)


def test_import_skips_sparse_linalg():
    # no elliptic solve factorizes, so the package never loads scipy.sparse.linalg
    code = "import sys, rtgeo; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_csv_roundtrip_bit_exact(tmp_path, unit_chart):
    rng = np.random.default_rng(11)
    f = GridField(unit_chart, rng.standard_normal(unit_chart.res + (2, 2)), ("up", "down"))
    path = tmp_path / "field.csv"
    dump_field(f, path)
    g = load_field(path)
    assert g.chart == unit_chart
    assert g.variance == ("up", "down")
    assert np.array_equal(g.values, f.values)


def test_connection_field_shape(unit_chart):
    vals = np.zeros(unit_chart.res + (2, 2, 2))
    conn = connection_field(unit_chart, vals)
    assert conn.comp_shape == (2, 2, 2)
    from rtgeo.errors import ShapeError

    with pytest.raises(ShapeError):
        connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2)))
