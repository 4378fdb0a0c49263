import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rtgeo.charts import (
    DET_FLOOR,
    Chart,
    GridField,
    JacobianField,
    connection_field,
    det_inverse,
    dump_field,
    interpolate,
    load_field,
    make_chart,
    sub_connection,
)
from rtgeo.errors import ConfigurationError, DomainExit, JacobianError, SamplingError, SolverError
from rtgeo import geodesics
from rtgeo.harness import load_config, run_experiment

from conftest import interior_mask


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


def test_sphere_christoffels_error_at_pole():
    from rtgeo.harness import sphere_christoffel

    def sampled(chart):
        return GridField(chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2)))

    with pytest.raises(SamplingError), np.errstate(divide="ignore", invalid="ignore"):
        sampled(Chart((0.0, 0.0), (np.pi / 2, 1.0), (33, 33)))
    f = sampled(Chart((np.pi / 4, 0.0), (3 * np.pi / 4, 1.0), (33, 33)))
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
    # a NaN coordinate has no clamp: clip=True must not index with it
    with pytest.raises(DomainExit, match=r"\[nan 0\.5\]"):
        interpolate(f, np.array([np.nan, 0.5]), clip=True)
    with pytest.raises(DomainExit, match=r"\[0\.3 nan\]"):
        interpolate(f, np.array([[1.2, 0.5], [0.3, np.nan]]), clip=True)


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


def inline_stage(fld):
    """The sampled RK4 march's inline stage as ``(x, v) -> -Gamma(x) v v``,
    compiled from the lines the march inlines, with its kept cell in closure
    cells where the march keeps it in locals.  The march's bounds test comes
    first, so a point off the chart gives its ``(..., "domain_exit")``
    return."""
    chart, n = fld.chart, fld.chart.n
    xs, vs, out = ([f"{s}{k}" for k in range(n)] for s in ("x", "v", "o"))
    kept = [f"c{k}" for k in range(n)] + [f"r{c}_{j}" for c in range(2 ** n) for j in range(n ** 3)]
    zero = geodesics._zero_columns(fld)
    src = [
        "def make(glo, gh, ghi, top, rows):",
        *(f"    {', '.join(f'{a}{k}' for k in range(n))}, = {a}" for a in ("glo", "gh", "ghi", "top")),
        f"    {' = '.join(kept)} = -1.0",
        "    ts = xs = vs = None",
        "    def stage(x, v):",
        f"        nonlocal {', '.join(kept)}",
        f"        {', '.join(xs)}, = x",
        f"        {', '.join(vs)}, = v",
        f"        if not ({geodesics._inside(xs)}):",
        '            return ts, xs, vs, "domain_exit"',
        *(f"        {line}" for line in geodesics._stage_source(n, False, zero, "t", xs, vs, out)),
        f"        return ({', '.join(out)},)",
        "    return stage",
    ]
    ns = {}
    exec("\n".join(src), ns)
    return ns["make"](chart.lo.tolist(), chart.h.tolist(), chart.hi.tolist(), [float(r - 2) for r in chart.res],
                      fld.values.reshape(chart.res + (-1,)))


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
    rhs = inline_stage(fld)
    for ax in range(n):
        # ordered by cell with axis ax slowest: runs of points share the
        # stage's kept cell, and neighbouring runs share axis ax's index
        order = np.lexsort([*np.delete(cells, ax, axis=1).T, cells[:, ax]])
        assert (np.diff(cells[order], axis=0) == 0).all(axis=1).any()
        for i in order:
            x = tuple(pts[i].tolist())
            for v, w in zip(velocities, want[i]):
                got = np.array(rhs(x, tuple(v.tolist())))
                assert got.tobytes() == w.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(w))


@pytest.mark.parametrize("res", [(17, 23), (9, 10, 11)])
def test_interpolators_raise_domain_exit(res):
    n = len(res)
    chart = Chart(np.linspace(-0.5, 0.2, n), np.linspace(0.7, 1.9, n), res)
    fld = connection_field(chart, np.ones(chart.res + (n, n, n)))
    rhs = inline_stage(fld)
    v = np.linspace(-1.0, 0.5, n)
    mid = 0.5 * (chart.lo + chart.hi)
    for ax in range(n):
        for face, away in ((chart.lo[ax], -np.inf), (chart.hi[ax], np.inf)):
            on = mid.copy()
            on[ax] = face
            off = on.copy()
            off[ax] = np.nextafter(face, away)
            got = np.array(rhs(tuple(on.tolist()), tuple(v.tolist())))
            assert got.tobytes() == gamma_vv_reference(fld, on, v).tobytes()
            assert rhs(tuple(off.tolist()), tuple(v.tolist()))[-1] == "domain_exit"
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


def _rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def test_jacobian_field_tau_inv_catches_ill_conditioned(unit_chart):
    # negative control: det 3 clears DET_FLOOR, but at condition number 3e9
    # the closed-form inverse misses J @ Jinv = I by 2.4e-7 (measured)
    J = np.broadcast_to(np.eye(2), unit_chart.res + (2, 2)).copy()
    J[7, 9] = _rotation(0.3) @ np.diag([1e5, 3e-5]) @ _rotation(1.1).T
    assert det_inverse(J)[0][7, 9] > 1e6 * DET_FLOOR
    with pytest.raises(JacobianError, match="deviates from identity"):
        JacobianField(unit_chart, J)


def _conditioned_batch(n, rng, size, kappa):
    """Matrices U diag(s) V^T times a scale in [1e-2, 1e2]: s log-uniform in
    [1, kappa] with both ends taken, so each condition number is kappa."""
    U = np.linalg.qr(rng.standard_normal((size, n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((size, n, n)))[0]
    s = kappa ** rng.random((size, n))
    s[:, 0], s[:, -1] = 1.0, kappa if n > 1 else s[:, -1]
    return (U * s[:, None, :]) @ V.transpose(0, 2, 1) * 10.0 ** rng.uniform(-2, 2, (size, 1, 1))


# over 50 batches of 4000 (seeds 0-49) the largest relative gaps to LAPACK
# measured 5.3e-16 / 8.5e-14 / 7.5e-12 on det and 0 / 8.5e-14 / 7.5e-12 on the
# inverse; the cofactor sums cancel like kappa^(n-1), LU like kappa
@pytest.mark.parametrize("n, bound", [(1, 1e-15), (2, 1e-12), (3, 1e-10)])
def test_det_inverse_matches_linalg(n, bound):
    J = _conditioned_batch(n, np.random.default_rng(n), 4000, 1e3)
    det, inv = det_inverse(J.reshape(40, 100, n, n))
    want_det, want_inv = np.linalg.det(J), np.linalg.inv(J)
    assert (np.abs(det.ravel() - want_det) / np.abs(want_det)).max() < bound
    gap = np.abs(inv.reshape(J.shape) - want_inv).max(axis=(-2, -1))
    assert (gap / np.abs(want_inv).max(axis=(-2, -1))).max() < bound


def test_det_inverse_names_the_first_bad_node():
    J = np.broadcast_to(np.eye(3), (4, 5, 3, 3)).copy()
    J[3, 1, 0, 0] = np.nan
    J[2, 3] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]  # rank 2, det exactly 0
    with pytest.raises(JacobianError, match=r"det J = 0\.0 at node \(2, 3\)"):
        det_inverse(J)
    J[2, 3] = np.eye(3)
    with pytest.raises(JacobianError, match=r"det J = nan at node \(3, 1\)"):
        det_inverse(J)
    det, inv = det_inverse(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert det == 1.0 and inv.tolist() == [[1.0, -1.0], [-1.0, 2.0]]


def test_jacobian_field_at_interpolates_samples(unit_chart):
    rng = np.random.default_rng(12)
    J = np.eye(2) + 0.1 * rng.standard_normal(unit_chart.res + (2, 2))
    jf = JacobianField(unit_chart, J)
    pts = rng.uniform(-0.2, 1.2, size=(50, 2))
    want = interpolate(GridField(unit_chart, J), pts, clip=True)
    assert interpolate(jf, pts, clip=True).tobytes() == want.tobytes()
    assert interpolate(jf, pts[0], clip=True).shape == (2, 2)
    with pytest.raises(DomainExit):
        interpolate(jf, np.array([1.2, 0.5]))


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


def _d1_by_items(m, h):
    """The first-derivative matrix set entry by entry in a lil_matrix, then converted."""
    D = sp.lil_matrix((m, m))
    for i in range(1, m - 1):
        D[i, i - 1] = -0.5 / h
        D[i, i + 1] = 0.5 / h
    D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D[m - 1, m - 1], D[m - 1, m - 2], D[m - 1, m - 3] = 1.5 / h, -2.0 / h, 0.5 / h
    return D.tocsr()


def sparse_operators(chart):
    """The reference operators on flattened (npoints, -1) values: per axis the
    kron of the 1-D derivative with identities, and -sum_j D_j @ D_j."""
    ops = []
    for ax in range(chart.n):
        mats = [_d1_by_items(m, h) if k == ax else sp.identity(m, format="csr")
                for k, (m, h) in enumerate(zip(chart.res, chart.h))]
        M = mats[0]
        for k in range(1, chart.n):
            M = sp.kron(M, mats[k], format="csr")
        ops.append(M.tocsr())
    L = ops[0] @ ops[0]
    for D in ops[1:]:
        L = L + D @ D
    return ops, (-L).tocsr()


def dirichlet_matrix_by_rows(chart):
    """The Dirichlet matrix built row by row: identity, then each interior
    row replaced by the Laplacian's."""
    A = sp.eye(chart.npoints, format="csr").tolil()
    L = sparse_operators(chart)[1]
    for i in np.where(interior_mask(chart).ravel())[0]:
        A.rows[i] = L.indices[L.indptr[i] : L.indptr[i + 1]].tolist()
        A.data[i] = L.data[L.indptr[i] : L.indptr[i + 1]].tolist()
    return A.tocsc()


def signed_zero_samples(rng, shape):
    """Normal samples with about a third of the entries +0.0 and a third -0.0,
    so that stencil terms meet every pairing of signed zeros."""
    v = rng.standard_normal(shape)
    pick = rng.integers(0, 3, shape)
    v[pick == 1] = 0.0
    v[pick == 2] = -0.0
    return v


@pytest.mark.parametrize("res", [(33, 33), (17, 40), (9, 10, 11)])
@pytest.mark.parametrize("comp", [(), (3,), (2, 2, 2)])
def test_deriv_and_laplace_match_sparse_operators(res, comp):
    # deriv sums each node as the CSR matvec does, so its bytes are the
    # sparse product's, signed zeros included; laplace sums axis by axis
    n = len(res)
    chart = Chart((0.0,) * n, (1.0, 2.5, 0.7)[:n], res)
    ops, L = sparse_operators(chart)
    rng = np.random.default_rng(len(comp))
    v = signed_zero_samples(rng, res + comp)
    wide = np.zeros(res + comp + (2,))
    wide[..., 1] = v
    for vals in (v, np.asfortranarray(v), wide[..., 1]):  # C-order, F-order, strided
        flat = vals.reshape(chart.npoints, -1)
        for ax in range(n):
            want = (ops[ax] @ flat).reshape(v.shape)
            assert chart.deriv(vals, ax).tobytes() == want.tobytes()
        want = (L @ flat).reshape(v.shape)
        assert np.abs(chart.laplace(vals) - want).max() <= 1e-13 * np.abs(want).max()
    # the data meet the case the zero start decides: both interior terms -0.0
    lo, hi = v[:-2], v[2:]
    assert ((lo == 0) & ~np.signbit(lo) & (hi == 0) & np.signbit(hi)).any()


@pytest.mark.parametrize("m", [8, 9, 17, 33, 65, 129, 257])
def test_dirichlet_eig_reads_the_sparse_second_derivative(m, monkeypatch):
    # the solve diagonalizes (D @ D)[1:-1, 1:-1]; its bytes must be the CSR
    # product's, so that the eigenbasis and every solve stay as they were
    blocks, real_eig = [], np.linalg.eig

    def eig(a):
        blocks.append(np.array(a))
        return real_eig(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    chart = Chart((0.0, 0.0), (1.0, 2.5), (m, 8))
    assert chart._dirichlet_eig is not None
    for block, (k, h) in zip(blocks, enumerate(chart.h)):
        D = _d1_by_items(chart.res[k], h)
        assert block.tobytes() == (D @ D)[1:-1, 1:-1].toarray().tobytes()
    assert len(blocks) == 2


@pytest.mark.parametrize("config, eigs", [(None, 1), ("configs/sphere.cfg", 2)])
def test_dirichlet_eig_once_per_distinct_axis(config, eigs, monkeypatch):
    # axes with the same (m, h) have the same D^2 block and share one
    # decomposition; sphere's chart has m = 65 on both axes but different h
    calls, real_eig = [], np.linalg.eig

    def eig(a):
        calls.append(len(a))
        return real_eig(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    chart = Chart((0.0, 0.0), (1.0, 1.0), (65, 65)) if config is None else load_config(config)[0].chart()
    bases, _ = chart._dirichlet_eig
    assert len(calls) == eigs
    assert (bases[0] is bases[1]) == (eigs == 1)


@pytest.mark.parametrize("res", [(33, 33), (65, 65), (129, 129), (65, 40), (9, 10, 11), (17, 17, 17)])
def test_dirichlet_solve_matches_sparse_lu(res):
    chart = Chart((0.0,) * len(res), (1.0,) * len(res), res)
    rng = np.random.default_rng(len(res))
    source, boundary = rng.standard_normal((2,) + res + (3,))
    rhs = source.reshape(chart.npoints, -1).copy()
    rim = ~interior_mask(chart)
    rhs[rim.ravel()] = boundary.reshape(chart.npoints, -1)[rim.ravel()]
    want = spla.splu(dirichlet_matrix_by_rows(chart)).solve(rhs).reshape(source.shape)
    got = chart.dirichlet_solve(source, boundary)
    assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()
    assert got[rim].tobytes() == boundary[rim].tobytes()


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
    assert np.abs(chart.dirichlet_solve(chart.laplace(q), wrong) - q)[interior_mask(chart)].max() > 1e-6


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


def test_run_imports_no_scipy():
    # the operators are stencils, so a whole run loads no scipy module
    code = (
        "import sys, rtgeo, rtgeo.harness, rtgeo.cli\n"
        "rtgeo.harness.run_experiment('configs/sphere.cfg')\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=root, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_run_hands_lapack_no_matrix_batch(monkeypatch):
    # per-node Jacobian algebra is closed form, so a run of each shipped config
    # calls np.linalg.inv / det / solve only on single dense matrices
    def dense_only(fn):
        def guarded(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise AssertionError(f"np.linalg.{fn.__name__} on a batch of shape {np.shape(a)}")
            return fn(a, *args, **kwargs)

        return guarded

    for name in ("inv", "det", "solve"):
        monkeypatch.setattr(np.linalg, name, dense_only(getattr(np.linalg, name)))
    root = Path(__file__).resolve().parents[1]
    for cfg in ("flat_disguise", "sphere", "rough_beta06"):
        report, code = run_experiment(str(root / "configs" / f"{cfg}.cfg"))
        assert (code, report.failed_stage) == (0, ""), cfg


@pytest.mark.parametrize("res, comp", [((8, 9), (2, 2)), ((17, 40), (2,)), ((9, 10, 11), (3,))])
def test_rim_lift_is_laplace_bit_for_bit(res, comp):
    # anisotropic h, spread magnitudes, and about a third each of +0.0 and
    # -0.0 on the rim, so some lift terms are -0.0 products
    n = len(res)
    chart = Chart((0.0,) * n, 1.0 + 0.7 * np.arange(n), res)
    rng = np.random.default_rng(sum(res))
    u = rng.standard_normal(res + comp) * 10.0 ** rng.integers(-3, 4, res + comp)
    u[rng.random(u.shape) < 0.3] = 0.0
    u[rng.random(u.shape) < 0.3] = -0.0
    inner = (slice(1, -1),) * n
    u[inner] = 0.0
    assert (np.signbit(u) & (u == 0.0)).any()
    assert chart._rim_lift(u).tobytes() == chart.laplace(u)[inner].tobytes()


# every value class the dump must carry: signed zero, subnormals, the extremes
CSV_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1.7976931348623157e308,
                   -1.7976931348623157e308, 2.2250738585072014e-308]


@st.composite
def csv_fields(draw):
    n = draw(st.integers(2, 3))
    res = tuple(draw(st.lists(st.integers(8, (11, 9)[n - 2]), min_size=n, max_size=n)))
    lo = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    hi = [a + w for a, w in zip(lo, draw(st.lists(st.floats(0.01, 10), min_size=n, max_size=n)))]
    comp = tuple(draw(st.lists(st.integers(1, n), max_size=3)))
    variance = tuple(draw(st.lists(st.sampled_from(["up", "down", "form"]), min_size=len(comp), max_size=len(comp))))
    values = draw(arrays(np.float64, res + comp, elements=st.floats(allow_nan=False, allow_infinity=False)))
    flat = values.reshape(-1)
    flat[: len(CSV_EDGE_VALUES)] = draw(st.permutations(CSV_EDGE_VALUES))
    return GridField(Chart(lo, hi, res), values, variance)


@settings(max_examples=40, deadline=None)
@given(csv_fields())
def test_csv_roundtrip_bit_exact(fld):
    # tobytes, not array_equal: array_equal cannot see a signed zero
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        dump_field(fld, path)
        back = load_field(path)
    assert back.chart == fld.chart
    assert back.variance == fld.variance
    assert back.values.shape == fld.values.shape
    assert back.values.tobytes() == fld.values.tobytes()


def test_connection_field_shape(unit_chart):
    vals = np.zeros(unit_chart.res + (2, 2, 2))
    conn = connection_field(unit_chart, vals)
    assert conn.comp_shape == (2, 2, 2)
    from rtgeo.errors import ShapeError

    with pytest.raises(ShapeError):
        connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2)))


def test_inset_drops_cells_at_both_ends_of_each_axis():
    chart = Chart((0.0, -1.0), (1.0, 2.0), (33, 17))
    assert chart.inset([3, 0]) == (slice(3, 30), slice(0, 17))
    assert chart.nodes[chart.inset([3, 0])].shape == (27, 17, 2)
    assert chart.inset([0, 0]) == (slice(0, 33), slice(0, 17))


def test_window_bounds_are_the_parent_node_coordinates():
    chart = Chart((0.1, -1.0), (0.9, 2.0), (33, 17))
    sl = (slice(2, 29), slice(5, 17))
    win = chart.window(sl)
    assert win.res == (27, 12)
    assert win.lo.tolist() == [chart.axes[0][2], chart.axes[1][5]]
    assert win.hi.tolist() == [chart.axes[0][28], chart.axes[1][16]]
    assert chart.window(chart.inset([0, 0])) == chart
    with pytest.raises(ConfigurationError):
        chart.window(chart.inset([13, 0]))  # 7 nodes on axis 0


def test_sub_connection_slices_values_onto_the_window():
    chart = Chart((0.0, 0.0), (1.0, 1.0), (33, 33))
    conn = connection_field(chart, np.random.default_rng(5).standard_normal(chart.res + (2, 2, 2)))
    sl = chart.inset([8, 4])
    sub = sub_connection(conn, sl)
    assert sub.chart == chart.window(sl)
    assert sub.chart.res == (17, 25)
    assert sub.variance == conn.variance
    assert sub.values.flags.c_contiguous
    assert sub.values.tobytes() == np.ascontiguousarray(conn.values[8:25, 4:29]).tobytes()
