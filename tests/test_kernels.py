"""Kernel checks: the Hölder offset sweep against an all-pairs reference, its
Gram band bounds against per-offset slice maxima, and mollification against
an n-fold tap sum of the tensor-product bump."""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rtgeo import _kernels
from rtgeo.calculus import HOLDER_PAIR_FLOOR, mollifier_radius, mollify, norm_report
from rtgeo.charts import Chart, GridField
from rtgeo.errors import SamplingError, ShapeError
from rtgeo.harness import generate_scenario, load_config
from rtgeo.rt_solver import RTConfig, regularize


def brute_holder(coords, vals, alpha, floor):
    """All pairs i < j, with the pair arithmetic the kernel must reproduce."""
    i, j = np.triu_indices(len(coords), k=1)
    d2 = ((coords[i] - coords[j]) ** 2).sum(-1)
    dv = np.sqrt(((vals[i] - vals[j]) ** 2).sum(-1))
    f2 = floor * floor
    q = np.where(d2 >= f2, dv / np.maximum(d2, f2) ** (0.5 * alpha), 0.0)
    return float(q.max(initial=0.0))


def grid_nodes(lo, hi, res, uneven=None):
    """Product-grid nodes in C order; with a generator ``uneven`` each axis
    keeps its ends but draws its inner nodes at random."""
    axes = [np.linspace(a, b, r) for a, b, r in zip(lo, hi, res)]
    if uneven is not None:
        axes = [np.sort(np.concatenate([x[[0, -1]], uneven.uniform(x[0], x[-1], len(x) - 2)])) for x in axes]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(res))


def smooth_values(kind, coords, ncmp, rng):
    """Affine or trigonometric samples: fields whose maximum the leg bound
    and the lower-bound certificate settle before most offsets are formed."""
    n = coords.shape[1]
    if kind == "affine":
        return coords @ rng.standard_normal((n, ncmp)) + rng.standard_normal(ncmp)
    freq = rng.uniform(0.3, 4.0, (n, ncmp))
    return np.sin(coords @ freq + rng.uniform(0.0, np.pi, ncmp))


def test_holder_paths_agree():
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = 1 + trial % 2
        res = tuple(int(r) for r in rng.integers(2, 60 if n == 1 else 17, size=n))
        lo = rng.uniform(-2.0, 1.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        coords = grid_nodes(lo, hi, res)
        ncmp = int(rng.integers(1, 9))
        kind = trial % 3
        if kind == 0:
            vals = rng.standard_normal((len(coords), ncmp))
        elif kind == 1:  # rough: a random walk along the flattened node order
            vals = np.cumsum(rng.standard_normal((len(coords), ncmp)), axis=0)
        else:
            vals = np.full((len(coords), ncmp), rng.standard_normal())
        alpha = 1.0 if trial % 5 == 0 else float(rng.uniform(1e-3, 1.0))
        h = float(((hi - lo) / np.maximum(np.asarray(res) - 1, 1)).max())
        # whole multiples of h put the floor on pair distances, so some
        # offsets straddle it by rounding
        floor = float(rng.choice([0.5, 1.0, 2.0, 4.0, rng.uniform(0.1, 5.0)])) * h
        want = brute_holder(coords, vals, alpha, floor)
        assert _kernels.holder_pair_max(coords, vals, alpha, floor) == want
        if kind == 2:
            assert want == 0.0
    # n = 1..3, smooth fields too, on even and on uneven product grids:
    # offsets whose pairs straddle the floor, and certificates from pairs
    # far apart from the ones that hold the maximum
    rng = np.random.default_rng(1)
    for trial in range(90):
        n = 1 + trial % 3
        res = tuple(int(r) for r in rng.integers(2, (60, 17, 8)[n - 1], size=n))
        lo = rng.uniform(-2.0, 1.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        coords = grid_nodes(lo, hi, res, uneven=rng if trial % 2 else None)
        ncmp = int(rng.integers(1, 9))
        kind = ("noise", "affine", "trig")[trial // 3 % 3]
        if kind == "noise":
            vals = rng.standard_normal((len(coords), ncmp))
        else:
            vals = smooth_values(kind, coords, ncmp, rng)
        alpha = 1.0 if trial % 4 == 0 else float(rng.uniform(1e-3, 1.0))
        h = float(((hi - lo) / np.maximum(np.asarray(res) - 1, 1)).max())
        floor = float(rng.choice([0.5, 1.0, 2.0, 4.0, rng.uniform(0.1, 5.0)])) * h
        want = brute_holder(coords, vals, alpha, floor)
        assert _kernels.holder_pair_max(coords, vals, alpha, floor) == want, (trial, kind, res)


@st.composite
def grid_samples(draw):
    n = draw(st.integers(1, 3))
    res = tuple(draw(st.lists(st.integers(1, (24, 7, 4)[n - 1]), min_size=n, max_size=n)))
    lo = np.array(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(st.floats(0.01, 10), min_size=n, max_size=n)))
    coords = grid_nodes(lo, hi, res)
    ncmp = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["any", "affine", "trig"]))
    if kind == "any":
        vals = draw(arrays(np.float64, (len(coords), ncmp), elements=st.floats(-1e3, 1e3)))
    else:
        vals = smooth_values(kind, coords, ncmp, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    alpha = draw(st.floats(1e-3, 1.0))
    floor = draw(st.floats(1e-3, 2.0)) * float((hi - lo).max())
    return coords, vals, alpha, floor


@settings(max_examples=200, deadline=None)
@given(grid_samples())
def test_holder_sweep_matches_all_pairs(sample):
    coords, vals, alpha, floor = sample
    assert _kernels.holder_pair_max(coords, vals, alpha, floor) == brute_holder(coords, vals, alpha, floor)


@pytest.mark.parametrize("config", ["flat_disguise", "sphere", "rough_beta06"])
def test_holder_sweep_forms_few_offsets(config, monkeypatch):
    # on each shipped Gamma_x at 65^2 the leg table (one Gram band per axis)
    # and its certificate settle the maximum; without them pass 2 would form
    # one slice per offset, 8,320
    scn, _ = load_config(f"configs/{config}.cfg")
    assert scn.resolution == (65, 65)
    assert len(slices_formed(monkeypatch, scn, generate_scenario(scn).conn_x)) <= 200


@functools.lru_cache
def shipped_conn_y(config):
    """The config's scenario and the Gamma_y its RT pass yields."""
    scn, rt = load_config(f"configs/{config}.cfg")
    return scn, regularize(generate_scenario(scn).conn_x, RTConfig(**rt))[2]


def slices_formed(monkeypatch, scn, conn):
    """Offsets whose pair slices norm_report's Hölder sweep forms on ``conn``:
    one per band (leg bands included) by its leading entries, one per offset
    of pass 2."""
    formed = []
    pair_slices = _kernels._pair_slices

    def counted(d):
        formed.append(d)
        return pair_slices(d)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "_pair_slices", counted)
        norm_report(conn, scn.p, 1 - 2 / scn.p)
    return formed


@pytest.mark.parametrize("config", ["flat_disguise", "rough_beta06"])
def test_holder_sweep_forms_few_bands_on_noise(config, monkeypatch):
    # Gamma_y at 65^2 is noise-like (flat: RT round-off of range ~5e-11), so
    # the leg bound rules out few offsets: a walk by per-offset slices would
    # form 2,827 and 6,021 slices, a walk by bands forms at most the 64 bands
    # plus the few offsets of pass 2
    scn, conn_y = shipped_conn_y(config)
    assert conn_y.chart.res == (65, 65)
    assert len(slices_formed(monkeypatch, scn, conn_y)) <= 2 * 65 + 10


def test_holder_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the Gram products feed only bounds, so the result is the exact pair
    # maximum whatever BLAS's thread count does to their last bits
    scn, conn_y = shipped_conn_y("flat_disguise")
    chart = conn_y.chart
    np.save(tmp_path / "coords.npy", chart.nodes.reshape(-1, chart.n))
    np.save(tmp_path / "vals.npy", conn_y.values.reshape(chart.npoints, -1))
    code = (
        "import sys, numpy as np\n"
        "from rtgeo import _kernels\n"
        "c, v = np.load(sys.argv[1]), np.load(sys.argv[2])\n"
        "print(_kernels.holder_pair_max(c, v, float(sys.argv[3]), float(sys.argv[4])).hex())\n"
    )
    alpha, floor = 1 - 2 / scn.p, HOLDER_PAIR_FLOOR * float(chart.h.max())
    args = [str(tmp_path / "coords.npy"), str(tmp_path / "vals.npy"), repr(alpha), repr(floor)]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout.strip())
    assert outs[0] == outs[1]
    assert float.fromhex(outs[0]) > 0.0


def band_bracket_misses(vals, res, margin=None):
    """Offsets d = lead + (j,) whose exact per-offset maximum max_p |F[p+d] - F[p]|^2,
    by slice arithmetic, lies outside ``_band_bounds``; every lead, both signs."""
    V = vals.reshape(res + (-1,))
    X = V - 0.5 * (vals.max(axis=0) + vals.min(axis=0))
    if margin is None:
        margin = _kernels._gram_margin(X)
    R = res[-1]
    misses = []
    for lead in np.ndindex(*(2 * r - 1 for r in res[:-1])):
        lead = tuple(int(e) - (r - 1) for e, r in zip(lead, res))
        hi, lo = _kernels._band_bounds(X, lead, margin)
        for j in range(-(R - 1), R):
            far, near = _kernels._pair_slices(lead + (j,))
            exact = ((V[near] - V[far]) ** 2).sum(-1).max()
            if not lo[j + R - 1] <= exact <= hi[j + R - 1]:
                misses.append(lead + (j,))
    return misses


def test_band_bounds_bracket_every_offset():
    rng = np.random.default_rng(5)
    shapes = [(1,), (2,), (40,), (7, 9), (6, 1), (1, 6), (4, 3, 5), (3, 4, 1)]
    unsafe = dict.fromkeys(("noise", "affine", "trig", "large_mean"), 0)
    for res in shapes:
        coords = grid_nodes((-1.0,) * len(res), (2.0,) * len(res), res)
        for kind in unsafe:
            ncmp = int(rng.integers(1, 9))
            if kind == "noise":
                vals = rng.standard_normal((len(coords), ncmp))
            elif kind == "large_mean":
                vals = 1e6 + rng.standard_normal((len(coords), ncmp))
            else:
                vals = smooth_values(kind, coords, ncmp, rng)
            assert band_bracket_misses(vals, res) == [], (res, kind)
            # negative control: without its margin the Gram form misses the
            # slice arithmetic's last bits
            unsafe[kind] += len(band_bracket_misses(vals, res, margin=0.0))
    assert all(unsafe.values()), unsafe


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("res", [(9,), (9, 9)])
def test_holder_rejects_non_finite_samples(res, bad):
    coords = grid_nodes((0.0,) * len(res), (1.0,) * len(res), res)
    vals = np.random.default_rng(4).standard_normal((len(coords), 3))
    vals[5, 1] = bad
    with pytest.raises(SamplingError, match=r"first bad node index 5\b"):
        _kernels.holder_pair_max(coords, vals, 0.5, 0.25)


def test_holder_rejects_scattered_nodes():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((400, 3))
    with pytest.raises(ShapeError):
        _kernels.holder_pair_max(rng.uniform(0, 1, size=(400, 2)), vals, 0.5, 0.05)
    # grid nodes out of C order are not a product grid either
    coords = grid_nodes((0.0, 0.0), (1.0, 1.0), (20, 20))
    with pytest.raises(ShapeError):
        _kernels.holder_pair_max(coords[rng.permutation(400)], vals, 0.5, 0.05)


def tensor_reference_mollify(fld, eps):
    """The tensor bump's normalized zero-fill sum, one shifted copy per tap:
    each tap's weight is the n-fold product prod_k (1 - s_k^2)^4, and the
    denominator is the same sum over ones."""
    chart = fld.chart
    rad = mollifier_radius(chart, eps)
    comp = fld.values.reshape(chart.res + (-1,))
    pad = [(r, r) for r in rad]
    padded, ones = np.pad(comp, pad + [(0, 0)]), np.pad(np.ones(chart.res), pad)
    num, den = np.zeros(comp.shape), np.zeros(chart.res)
    for tap in np.ndindex(*[2 * r + 1 for r in rad]):
        w = 1.0
        for k, r in enumerate(rad):
            s = (tap[k] - r) * chart.h[k] / eps
            w *= (1.0 - min(s * s, 1.0)) ** 4
        window = tuple(slice(t, t + m) for t, m in zip(tap, chart.res))
        num += w * padded[window]
        den += w * ones[window]
    return (num / den[..., None]).reshape(fld.values.shape)


def test_mollify_matches_tensor_reference():
    # calculus.mollify's per-axis products against the n-fold tap sum, at
    # n = 2 and 3, on data with signed zeros; only the summation order differs
    rng = np.random.default_rng(2)
    for res in ((33, 33), (17, 18, 19)):
        chart = Chart((0.0,) * len(res), (1.0,) * len(res), res)
        for comp in ((1,), (2,), (2, 2, 2)):
            vals = rng.standard_normal(chart.res + comp)
            vals[rng.random(vals.shape) < 0.2] = 0.0
            vals[rng.random(vals.shape) < 0.2] = -0.0
            fld = GridField(chart, vals)
            got = mollify(fld, 1 / 8).values
            assert got.shape == vals.shape
            assert np.abs(got - tensor_reference_mollify(fld, 1 / 8)).max() < 1e-14


def test_mollify_kernel_factorizes():
    """A unit spike spreads to the outer product of the normalized 1-D rows,
    nonzero out to the (r, r) corner of the box, where the ball |s| < 1 ends."""
    chart = Chart((0.0, 0.0), (1.0, 1.0), (65, 65))
    eps = 7.5 / 64
    r = mollifier_radius(chart, eps)[0]
    assert r == 7
    vals = np.zeros(chart.res + (1,))
    vals[32, 32] = 1.0
    out = mollify(GridField(chart, vals), eps).values[..., 0]
    s = np.arange(-r, r + 1) / 7.5
    row = (1.0 - s * s) ** 4
    row /= row.sum()
    box = (slice(32 - r, 33 + r),) * 2
    assert np.abs(out[box] - np.outer(row, row)).max() < 1e-16
    assert out[32 + r, 32 + r] > 0.0
    assert 2 * (r / 7.5) ** 2 > 1
    out[box] = 0.0
    assert not out.any()


def test_mollify_skips_ndimage_import():
    code = (
        "import sys, numpy as np, rtgeo\n"
        "from rtgeo.charts import Chart, GridField\n"
        "chart = Chart((0., 0.), (1., 1.), (33, 33))\n"
        "rtgeo.mollify(GridField(chart, np.ones(chart.res)), 1 / 8)\n"
        "print('scipy.ndimage' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
