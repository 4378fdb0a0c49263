"""Kernel checks: the time-series Hölder quotient against an all-pairs
reference, and mollification against an n-fold tap sum of the
tensor-product bump."""

from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rtgeo import _kernels
from rtgeo.calculus import mollifier_radius, mollify
from rtgeo.charts import Chart, GridField
from rtgeo.errors import SamplingError


def brute_holder(coords, vals, alpha, floor):
    """All pairs i < j, with the pair arithmetic the kernel must reproduce."""
    i, j = np.triu_indices(len(coords), k=1)
    d2 = ((coords[i] - coords[j]) ** 2).sum(-1)
    dv = np.sqrt(((vals[i] - vals[j]) ** 2).sum(-1))
    f2 = floor * floor
    q = np.where(d2 >= f2, dv / np.maximum(d2, f2) ** (0.5 * alpha), 0.0)
    return float(q.max(initial=0.0))


def time_nodes(t0, t1, count, uneven=None):
    """``count`` increasing times from t0 to t1; with a generator ``uneven`` the
    inner times are drawn at random."""
    times = np.linspace(t0, t1, count)
    if uneven is not None:
        times[1:-1] = np.sort(uneven.uniform(t0, t1, count - 2))
    return times


def test_holder_paths_agree():
    # dyadic, even and uneven times; noise, random-walk and constant values
    # with 1 to 8 components; floors on whole multiples of the step, so some
    # pairs sit on the floor, exactly on the dyadic times
    rng = np.random.default_rng(0)
    for trial in range(120):
        count = int(rng.integers(2, 300))
        if trial % 3 == 0:
            times = np.arange(count) / 8.0
        else:
            t0 = float(rng.uniform(-2.0, 1.0))
            times = time_nodes(t0, t0 + float(rng.uniform(0.1, 3.0)), count, uneven=rng if trial % 3 == 2 else None)
        ncmp = 1 + trial % 8
        kind = trial // 2 % 3
        if kind == 0:
            vals = rng.standard_normal((count, ncmp))
        elif kind == 1:
            vals = np.cumsum(rng.standard_normal((count, ncmp)), axis=0)
        else:
            vals = np.full((count, ncmp), rng.standard_normal())
        alpha = 1.0 if trial % 5 == 0 else float(rng.uniform(1e-3, 1.0))
        h = (times[-1] - times[0]) / (count - 1)
        floor = float(rng.choice([0.5, 1.0, 2.0, 4.0, rng.uniform(0.1, 5.0)])) * h
        want = brute_holder(times[:, None], vals, alpha, floor)
        assert _kernels.holder_pair_max(times, vals, alpha, floor) == want, (trial, count, ncmp)
        if kind == 2:
            assert want == 0.0
        elif times[-1] - times[0] >= floor:
            assert want > 0.0


@st.composite
def time_samples(draw):
    count = draw(st.integers(1, 64))
    t0 = draw(st.floats(-10, 10))
    times = time_nodes(t0, t0 + draw(st.floats(0.01, 10)), count)
    ncmp = draw(st.integers(1, 8))
    vals = draw(arrays(np.float64, (count, ncmp), elements=st.floats(-1e3, 1e3)))
    alpha = draw(st.floats(1e-3, 1.0))
    floor = draw(st.floats(1e-3, 2.0)) * float(times[-1] - times[0] or 1.0)
    return times, vals, alpha, floor


@settings(max_examples=200, deadline=None)
@given(time_samples())
def test_holder_sweep_matches_all_pairs(sample):
    times, vals, alpha, floor = sample
    assert _kernels.holder_pair_max(times, vals, alpha, floor) == brute_holder(times[:, None], vals, alpha, floor)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("res", [(9,), (257,)])
def test_holder_rejects_non_finite_samples(res, bad):
    times = time_nodes(0.0, 1.0, res[0])
    vals = np.random.default_rng(4).standard_normal((len(times), 3))
    vals[5, 1] = bad
    with pytest.raises(SamplingError, match=r"first bad node index 5\b"):
        _kernels.holder_pair_max(times, vals, 0.5, 0.25)


def test_tracer_installs_after_a_bare_package_import():
    # perfbench/spans.py looks each traced module up in sys.modules, and
    # perfbench/run.py installs the tracer before it imports rtgeo._kernels
    # itself, so `import rtgeo` alone must load the kernel module
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import rtgeo\n"
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


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
