"""Kernel checks: the Hölder offset sweep against an all-pairs reference,
and mollification against scipy.ndimage's normalized convolution."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from rtgeo import _kernels
from rtgeo.calculus import bump_kernel, mollify, norm_report
from rtgeo.charts import Chart, GridField
from rtgeo.errors import ShapeError


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
    # on each shipped Gamma_x at 65^2 the leg table (128 axis-aligned slices)
    # and its certificate settle the maximum; the offset sweep alone forms
    # one slice per offset, about 8,300
    from rtgeo.harness import generate_scenario, load_config

    scn, _ = load_config(f"configs/{config}.cfg")
    assert scn.resolution == (65, 65)
    conn_x = generate_scenario(scn).conn_x
    formed = []
    pair_slices = _kernels._pair_slices

    def counted(d):
        formed.append(d)
        return pair_slices(d)

    monkeypatch.setattr(_kernels, "_pair_slices", counted)
    norm_report(conn_x, scn.p, 1 - 2 / scn.p)
    assert len(formed) <= 200
def test_holder_rejects_scattered_nodes():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((400, 3))
    with pytest.raises(ShapeError):
        _kernels.holder_pair_max(rng.uniform(0, 1, size=(400, 2)), vals, 0.5, 0.05)
    # grid nodes out of C order are not a product grid either
    coords = grid_nodes((0.0, 0.0), (1.0, 1.0), (20, 20))
    with pytest.raises(ShapeError):
        _kernels.holder_pair_max(coords[rng.permutation(400)], vals, 0.5, 0.05)


def ndimage_mollify(fld, eps):
    """The normalized zero-fill convolution, one scipy.ndimage.convolve per component."""
    chart = fld.chart
    kern = bump_kernel(chart, eps)
    comp = fld.values.reshape(chart.res + (-1,))
    den = ndimage.convolve(np.ones(chart.res), kern, mode="constant", cval=0.0)
    out = np.stack([ndimage.convolve(comp[..., c], kern, mode="constant", cval=0.0) / den for c in range(comp.shape[-1])], -1)
    return out.reshape(fld.values.shape)


def tap_loop_mollify(fld, eps, footprint=True):
    """mollify's tap loop written out; ``footprint=False`` keeps the taps ndimage drops."""
    chart = fld.chart
    kern = bump_kernel(chart, eps)[(slice(None, None, -1),) * chart.n]
    comp = fld.values.reshape(chart.res + (-1,))
    rad = [(k // 2, k // 2) for k in kern.shape]
    padded, ones = np.pad(comp, rad + [(0, 0)]), np.pad(np.ones(chart.res), rad)
    num, den = np.zeros(comp.shape), np.zeros(chart.res)
    for tap in np.ndindex(kern.shape):
        if footprint and not abs(kern[tap]) > np.finfo(np.float64).eps:
            continue
        window = tuple(slice(t, t + m) for t, m in zip(tap, chart.res))
        num += kern[tap] * padded[window]
        den += kern[tap] * ones[window]
    return (num / den[..., None]).reshape(fld.values.shape)


def test_mollify_paths_agree(monkeypatch):
    # calculus.mollify's numpy path against scipy.ndimage.convolve, byte for
    # byte, at n = 2 and 3, on data with signed zeros; with numba installed,
    # the jitted n = 2 loop within 1e-12 of the same reference
    rng = np.random.default_rng(2)
    for res in ((33, 33), (17, 18, 19)):
        chart = Chart((0.0,) * len(res), (1.0,) * len(res), res)
        for comp in ((1,), (2,), (2, 2, 2)):
            vals = rng.standard_normal(chart.res + comp)
            vals[rng.random(vals.shape) < 0.2] = 0.0
            vals[rng.random(vals.shape) < 0.2] = -0.0
            fld = GridField(chart, vals)
            want = ndimage_mollify(fld, 1 / 8)
            if _kernels.HAVE_NUMBA and chart.n == 2:
                assert np.abs(mollify(fld, 1 / 8).values - want).max() < 1e-12
            with monkeypatch.context() as m:
                m.setattr(_kernels, "HAVE_NUMBA", False)
                assert mollify(fld, 1 / 8).values.tobytes() == want.tobytes()


def test_mollify_check_needs_the_footprint(monkeypatch):
    """Negative control: a unit spike on the 101^2 unit chart at eps = 0.1 puts
    eight kernel taps of 2.4e-63 in reach; the tap loop matches ndimage only
    when it skips taps with |w| <= DBL_EPSILON, as ndimage does."""
    chart = Chart((0.0, 0.0), (1.0, 1.0), (101, 101))
    kern = bump_kernel(chart, 0.1)
    assert ((kern > 0) & (kern <= np.finfo(np.float64).eps)).sum() == 8
    vals = np.zeros(chart.res + (1,))
    vals[50, 50] = 1.0
    fld = GridField(chart, vals)
    want = ndimage_mollify(fld, 0.1).tobytes()
    monkeypatch.setattr(_kernels, "HAVE_NUMBA", False)
    assert mollify(fld, 0.1).values.tobytes() == want
    assert tap_loop_mollify(fld, 0.1).tobytes() == want
    assert tap_loop_mollify(fld, 0.1, footprint=False).tobytes() != want


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


def test_env_flag_disables_numba():
    env = dict(os.environ, RTGEO_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "from rtgeo import _kernels; print(_kernels.HAVE_NUMBA)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


def test_results_identical_across_paths():
    # a full norm report must not depend on the dispatch path
    code = (
        "import numpy as np\n"
        "from rtgeo.charts import Chart, GridField\n"
        "from rtgeo.calculus import norm_report\n"
        "chart = Chart((0.,0.),(1.,1.),(33,33))\n"
        "f = GridField(chart, np.sqrt(chart.nodes[...,:1]))\n"
        "r = norm_report(f, 4.0, 0.5)\n"
        "print(repr((r.lp, r.w1p, r.c0, r.c0alpha)))\n"
    )
    outs = []
    for disable in ("0", "1"):
        env = dict(os.environ, RTGEO_DISABLE_NUMBA=disable)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout.strip())
    assert outs[0] == outs[1]
