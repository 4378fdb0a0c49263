import ast
import functools
from pathlib import Path
import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import rtgeo
from rtgeo.calculus import (
    MatrixForm,
    bump_kernel,
    coderivative,
    contract,
    exterior_derivative,
    form_divergence,
    form_pairs,
    gradient_field,
    laplacian,
    lp_norm,
    matrix_inner,
    mollify,
    norm_report,
    poisson_solve,
    wedge,
)
from rtgeo.charts import Chart, GridField
from rtgeo.errors import ConfigurationError, DegreeError, ResolutionError, ShapeError

from conftest import smooth_connection


def put(chart, comp, values, degree=1):
    n = chart.n
    shape = {0: (n, n), 1: (n, n, n), 2: (n, n, len(form_pairs(n)))}[degree]
    vals = np.zeros(chart.res + shape)
    vals[(...,) + comp] = values
    return MatrixForm(chart, degree, vals)


# -- exterior derivative ------------------------------------------------------


def test_d_constant_is_zero(unit_chart):
    w = put(unit_chart, (0, 0, 0), 1.0)
    assert np.abs(exterior_derivative(w).values).max() < 1e-13


def test_d_linear_connection_component(unit_chart):
    # single component G^2_{11} = x2 (storage [mu=1, rho=0, nu=0] as 1-form
    # slot [row 1, col 0, form 0]); canonical pair (0,1) value is
    # D_0 w_1 - D_1 w_0 = -1, i.e. +1 in the (tau=2, rho=1) ordering
    w = put(unit_chart, (1, 0, 0), unit_chart.nodes[..., 1])
    dw = exterior_derivative(w)
    assert np.allclose(dw.values[..., 1, 0, 0], -1.0, atol=1e-12)
    others = dw.values.copy()
    others[..., 1, 0, 0] = 0
    assert np.abs(others).max() < 1e-12


def test_dd_zero_machine(unit_chart):
    X = unit_chart.nodes
    f = MatrixForm(unit_chart, 0, np.stack([np.sin(2 * X[..., 0]) * X[..., 1]] * 4, -1).reshape(unit_chart.res + (2, 2)))
    dd = exterior_derivative(exterior_derivative(f))
    assert np.abs(dd.values).max() < 1e-10


def test_d_degree_2_unsupported(unit_chart):
    w = put(unit_chart, (0, 0, 0), 1.0, degree=2)
    with pytest.raises(DegreeError):
        exterior_derivative(w)


# -- coderivative -------------------------------------------------------------


def test_delta_constant_zero(unit_chart):
    w = put(unit_chart, (0, 0, 0), 2.0)
    assert np.abs(coderivative(w).values).max() < 1e-13


def test_delta_linear_exact(unit_chart):
    # w_1 = x1 in every matrix slot [0,0]: delta w = -D_1 x1 = -1
    w = put(unit_chart, (0, 0, 0), unit_chart.nodes[..., 0])
    dw = coderivative(w)
    assert np.allclose(dw.values[..., 0, 0], -1.0, atol=1e-12)


def test_delta_delta_zero_machine(unit_chart):
    X = unit_chart.nodes
    w = put(unit_chart, (0, 0, 0), np.sin(3 * X[..., 0]) * np.cos(2 * X[..., 1]), degree=2)
    dd = coderivative(coderivative(w))
    assert np.abs(dd.values).max() < 1e-10


def test_delta_degree_0_unsupported(unit_chart):
    w = put(unit_chart, (0, 0), 1.0, degree=0)
    with pytest.raises(DegreeError):
        coderivative(w)


# -- laplacian ----------------------------------------------------------------


def test_laplacian_quadratic_documented_sign(unit_chart):
    X = unit_chart.nodes
    f = put(unit_chart, (0, 0), X[..., 0] ** 2 + X[..., 1] ** 2, degree=0)
    lf = laplacian(f)
    # Delta = -grad^2 under the pinned convention; exact on quadratics
    assert np.allclose(lf.values[..., 0, 0], -4.0, atol=1e-10)


def test_laplacian_affine_zero(unit_chart):
    X = unit_chart.nodes
    f = put(unit_chart, (1, 1), 2.0 + 3 * X[..., 0] - X[..., 1], degree=0)
    assert np.abs(laplacian(f).values).max() < 1e-10


def test_laplacian_is_composition(unit_chart):
    X = unit_chart.nodes
    vals = np.zeros(unit_chart.res + (2, 2, 2))
    vals[..., 0, 1, 0] = np.sin(2 * X[..., 0]) * X[..., 1]
    vals[..., 1, 0, 1] = np.cos(X[..., 1])
    w = MatrixForm(unit_chart, 1, vals)
    composed = coderivative(exterior_derivative(w)).values + exterior_derivative(coderivative(w)).values
    assert np.array_equal(laplacian(w).values, composed)


def test_laplacian_matches_collapsed_stencil(unit_chart):
    # the composition collapses to -sum_j D_j^2 exactly (commuting axis ops)
    X = unit_chart.nodes
    f = put(unit_chart, (0, 1), np.sin(2 * X[..., 0]) * np.cos(3 * X[..., 1]), degree=0)
    direct = -(unit_chart.deriv(unit_chart.deriv(f.values, 0), 0) + unit_chart.deriv(unit_chart.deriv(f.values, 1), 1))
    assert np.abs(laplacian(f).values - direct).max() < 1e-11


# -- wedge and inner product --------------------------------------------------


def test_wedge_zero_and_single_chain(unit_chart):
    z = MatrixForm(unit_chart, 1, np.zeros(unit_chart.res + (2, 2, 2)))
    assert np.abs(wedge(z, z).values).max() == 0
    # single nonzero chain cannot close
    w = put(unit_chart, (1, 0, 0), 1.0)
    assert np.abs(wedge(w, w).values).max() < 1e-14


def test_wedge_sphere_oracle():
    # closed-form coefficients at theta = pi/4 against brute-force index sums
    th = np.pi / 4
    s, c = np.sin(th), np.cos(th)
    M = np.zeros((2, 2, 2))  # [row, col, form]
    M[0, 1, 1] = -s * c           # G^th_{ph ph}: row th, form ph, col ph
    M[1, 1, 0] = c / s            # G^ph_{th ph}: row ph, form th, col ph
    M[1, 0, 1] = c / s            # G^ph_{ph th}: row ph, form ph, col th
    brute = np.zeros((2, 2))
    for r in range(2):
        for cc in range(2):
            acc = 0.0
            for sg in range(2):
                acc += M[r, sg, 0] * M[sg, cc, 1] - M[r, sg, 1] * M[sg, cc, 0]
            brute[r, cc] = acc
    chart = Chart((np.pi / 4, 0.0), (3 * np.pi / 4, 1.0), (33, 33))
    from rtgeo.harness import sphere_christoffel
    from rtgeo.calculus import connection_form
    from rtgeo.charts import connection_field

    conn = connection_field(chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2)))
    w = connection_form(conn)
    got = wedge(w, w).values[0, 0]  # node at theta = pi/4
    assert np.allclose(got[..., 0], brute, atol=1e-12)


def test_matrix_inner_identity_and_bilinearity(unit_chart):
    vals = np.zeros(unit_chart.res + (2, 2, 2))
    vals[..., 0, 0, 0] = 1.0
    vals[..., 1, 1, 0] = 1.0
    a = MatrixForm(unit_chart, 1, vals)
    got = matrix_inner(a, a).values
    assert np.allclose(got, np.eye(2), atol=1e-14)
    rng = np.random.default_rng(5)
    b = MatrixForm(unit_chart, 1, rng.standard_normal(unit_chart.res + (2, 2, 2)))
    c = MatrixForm(unit_chart, 1, rng.standard_normal(unit_chart.res + (2, 2, 2)))
    lhs = matrix_inner(MatrixForm(unit_chart, 1, b.values + c.values), a).values
    rhs = matrix_inner(b, a).values + matrix_inner(c, a).values
    assert np.abs(lhs - rhs).max() < 1e-12


# -- form divergence ----------------------------------------------------------


def test_form_divergence_examples(unit_chart):
    z = put(unit_chart, (0, 0, 0), 3.0, degree=2)
    assert np.abs(form_divergence(z).values).max() < 1e-13
    w = put(unit_chart, (0, 0, 0), unit_chart.nodes[..., 0], degree=2)
    dv = form_divergence(w).values
    # (div w)_1 = d_2(x1) = 0 ; (div w)_2 = d_1(-x1) = -1
    assert np.abs(dv[..., 0, 0, 0]).max() < 1e-12
    assert np.allclose(dv[..., 0, 0, 1], -1.0, atol=1e-12)
    two = form_divergence(MatrixForm(unit_chart, 2, 2.5 * w.values)).values
    assert np.abs(two - 2.5 * dv).max() < 1e-13


# -- mollify ------------------------------------------------------------------


def test_mollify_constant_and_affine(unit_chart_65):
    chart = unit_chart_65
    c = GridField(chart, np.full(chart.res + (1,), 2.5))
    out = mollify(c, 1 / 8)
    assert np.abs(out.values - 2.5).max() < 1e-12
    aff = GridField(chart, (0.3 + unit_vals(chart))[..., None])
    out = mollify(aff, 1 / 16)
    interior = (slice(8, -8), slice(8, -8))
    assert np.abs(out.values[interior] - aff.values[interior]).max() < 1e-12


def unit_vals(chart):
    return 2.0 * chart.nodes[..., 0] - 0.5 * chart.nodes[..., 1]


def test_mollify_step_against_1d_oracle():
    chart = Chart((0.0, 0.0), (1.0, 1.0), (129, 129))
    step = (chart.nodes[..., 0] >= 0.5).astype(float)
    out = mollify(GridField(chart, step[..., None]), 1 / 16)
    # independent 1-d oracle: row sums of the same discrete kernel applied to
    # the 1-d step profile (valid on interior rows where the kernel is full)
    K = bump_kernel(chart, 1 / 16)
    k1 = K.sum(axis=1)
    k1 = k1 / k1.sum()
    prof = step[:, 64]
    r = len(k1) // 2
    sm = np.convolve(np.pad(prof, r, mode="edge"), k1, mode="valid")
    got = out.values[:, 64, 0]
    assert np.abs(got[r:-r] - sm[r:-r]).max() < 1e-12
    l1 = np.abs(got - prof).sum() * chart.h[0]
    assert l1 <= (1 / 16) * 1.0


def test_mollify_resolution_error(unit_chart):
    f = GridField(unit_chart, np.zeros(unit_chart.res + (1,)))
    with pytest.raises(ResolutionError):
        mollify(f, 1.5 * float(unit_chart.h.max()))


def test_mollify_linear_positive_and_lp_convergence(unit_chart_65):
    chart = unit_chart_65
    rng = np.random.default_rng(9)
    a = GridField(chart, rng.random(chart.res + (1,)))
    b = GridField(chart, rng.random(chart.res + (1,)))
    lin = mollify(GridField(chart, a.values + 2 * b.values), 1 / 8).values
    sep = mollify(a, 1 / 8).values + 2 * mollify(b, 1 / 8).values
    assert np.abs(lin - sep).max() < 1e-12
    assert mollify(a, 1 / 8).values.min() >= 0
    cont = GridField(chart, (np.abs(chart.nodes[..., 0] - 0.47) ** 0.6)[..., None])
    dists = [lp_norm(GridField(chart, mollify(cont, e).values - cont.values), 4.0) for e in (1 / 8, 1 / 16, 1 / 32)]
    assert dists[0] > dists[1] > dists[2]


def test_mollify_w1p_nonincreasing_on_rough(rough_gen):
    conn = rough_gen.conn_x
    f = GridField(conn.chart, conn.values)
    p = 2.2
    raw = lp_norm(f, p) + lp_norm(gradient_field(f), p)
    sm = mollify(f, 1 / 16)
    smn = lp_norm(sm, p) + lp_norm(gradient_field(sm), p)
    assert smn <= raw


# -- norms --------------------------------------------------------------------


def test_norm_report_constant(unit_chart):
    f = GridField(unit_chart, np.full(unit_chart.res + (1,), -1.5))
    rep = norm_report(f, 4.0, 0.5)
    assert abs(rep.lp - 1.5) < 1e-12
    assert abs(rep.c0 - 1.5) < 1e-12
    assert abs(rep.c0alpha - 1.5) < 1e-12


def test_norm_report_affine_lipschitz(unit_chart):
    f = GridField(unit_chart, unit_chart.nodes[..., :1].copy())
    rep = norm_report(f, 4.0, 1.0)
    assert abs(rep.c0alpha - 2.0) < 1e-12
    assert rep.w1p >= rep.lp
    assert rep.c0alpha >= rep.c0


def test_norm_report_sqrt_holder():
    chart = Chart((0.0, 0.0), (1.0, 1.0), (129, 129))
    f = GridField(chart, np.sqrt(chart.nodes[..., 0])[..., None])
    rep = norm_report(f, 4.0, 0.5)
    quotient = rep.c0alpha - rep.c0
    assert abs(quotient - 1.0) < 0.05


def test_norm_report_validation(unit_chart):
    f = GridField(unit_chart, np.zeros(unit_chart.res + (1,)))
    with pytest.raises(ConfigurationError):
        norm_report(f, 1.5, 0.5)
    with pytest.raises(ConfigurationError):
        norm_report(f, 4.0, 1.5)


def test_lp_vs_c0_bound(unit_chart):
    rng = np.random.default_rng(2)
    f = GridField(unit_chart, rng.standard_normal(unit_chart.res + (1,)))
    rep = norm_report(f, 4.0, 0.5)
    assert rep.lp <= rep.c0 * 1.0 ** (1 / 4.0) + 1e-12


# -- poisson ------------------------------------------------------------------


def test_poisson_zero(unit_chart):
    src = MatrixForm(unit_chart, 0, np.zeros(unit_chart.res + (2, 2)))
    u = poisson_solve(src, np.zeros(unit_chart.res + (2, 2)))
    assert np.abs(u.values).max() < 1e-12


def test_poisson_inverse_of_own_operator(unit_chart):
    X = unit_chart.nodes
    ustar = np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1])
    f = put(unit_chart, (0, 0), ustar, degree=0)
    src = laplacian(f)
    got = poisson_solve(src, f.values)
    assert np.abs(got.values - f.values).max() < 1e-9


def test_poisson_manufactured_convergence_ratio():
    errs = {}
    for m in (33, 65):
        chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
        X = chart.nodes
        ustar = np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1])
        # continuum Delta u* under the documented sign: +2 pi^2 u*
        src = MatrixForm(chart, 0, np.zeros(chart.res + (2, 2)))
        src.values[..., 0, 0] = 2 * np.pi ** 2 * ustar
        u = poisson_solve(src, np.zeros(chart.res + (2, 2)))
        errs[m] = np.abs(u.values[..., 0, 0] - ustar).max()
    ratio = errs[33] / errs[65]
    assert 3.0 <= ratio <= 5.0


def test_poisson_then_laplacian_reproduces_source(unit_chart):
    rng = np.random.default_rng(7)
    src = MatrixForm(unit_chart, 0, rng.standard_normal(unit_chart.res + (2, 2)))
    u = poisson_solve(src, np.zeros(unit_chart.res + (2, 2)))
    lap = laplacian(u)
    interior = unit_chart.interior_mask
    assert np.abs((lap.values - src.values)[interior]).max() < 1e-8


def test_dd_and_deltadelta_smooth_lp(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    from rtgeo.calculus import connection_form

    w = connection_form(conn)
    dd = exterior_derivative(exterior_derivative(coderivative(w)))
    assert lp_norm(GridField(unit_chart_65, dd.values), 4.0) < 1e-9


# -- pointwise contraction ------------------------------------------------------

PACKAGE = Path(rtgeo.__file__).parent


def _calls(name):
    """(module, innermost enclosing function, call node) for every call of ``name`` in src/rtgeo."""

    def visit(node, module, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == name:
                yield module, fn, child
            yield from visit(child, module, fn)

    for path in sorted(PACKAGE.glob("*.py")):
        yield from visit(ast.parse(path.read_text()), path.stem, "<module>")


# every subscript string the package passes to contract, so a new site is
# covered as soon as it exists
CONTRACT_SUBSCRIPTS = sorted({ast.literal_eval(call.args[0]) for _, _, call in _calls("contract")})
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _operands(subscripts, n, batch, layouts, seed):
    """Operands for ``subscripts`` at size n: spread magnitudes, about a fifth of
    the entries +-0.0, +-inf or NaN, in the layout each operand draws:
    contiguous, a ``big[..., j]`` slice, every other node, or one node
    broadcast over the batch."""
    rng = np.random.default_rng(seed)
    ops = []
    for labels, layout in zip(subscripts.split("->")[0].split(","), layouts):
        shape = (() if layout == "broadcast" else batch) + (n,) * (len(labels) - 3)
        big = {"slice": shape + (n,), "strided": (2 * shape[0],) + shape[1:] if batch else shape}.get(layout, shape)
        vals = rng.standard_normal(big) * 10.0 ** rng.integers(-3, 4, big)
        special = rng.random(big) < 0.2
        vals[special] = rng.choice(SPECIALS, special.sum())
        if layout == "slice":
            vals = vals[..., rng.integers(n)]
        elif layout == "strided" and batch:
            vals = vals[::2]
        ops.append(vals)
    return ops


def _matches_einsum(fn, subscripts, ops):
    """Same bytes as np.einsum (so the sign of every zero and infinity too);
    NaN where einsum has NaN, whatever its payload bits."""
    with np.errstate(all="ignore"):
        want = np.einsum(subscripts, *ops)
        got = fn(subscripts, *ops)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == want[~nan].tobytes()
    )


@settings(max_examples=300, deadline=None)
@given(
    subscripts=st.sampled_from(CONTRACT_SUBSCRIPTS),
    n=st.integers(1, 4),
    batch=st.sampled_from([(), (1,), (5,), (3, 4), (4, 1)]),
    layouts=st.lists(st.sampled_from(["contiguous", "slice", "strided", "broadcast"]), min_size=5, max_size=5),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_contract_matches_einsum(subscripts, n, batch, layouts, seed):
    ops = _operands(subscripts, n, batch, layouts, seed)
    assert _matches_einsum(contract, subscripts, ops)
    # reductions downstream (lp_norm, sum) take their bits from memory order
    with np.errstate(all="ignore"):
        got = contract(subscripts, *ops)
    assert got.flags.c_contiguous


@pytest.mark.parametrize(
    "subscripts, shapes",
    [
        ("ms,sn->mn", [(2, 2), (2, 2)]),  # no node axes
        ("...ss,...sn->...n", [(3, 2, 2), (3, 2, 2)]),  # a diagonal
        ("...ms,...sn->...mk", [(3, 2, 2), (3, 2, 2)]),  # k on no operand
        ("...ms,...sn->...mn", [(3, 2, 2)]),  # one operand short
        ("...ms,...sn->...mn", [(3, 2, 3), (3, 2, 2)]),  # s is 3 and 2
    ],
)
def test_contract_rejects_what_it_cannot_reproduce(subscripts, shapes):
    with pytest.raises(ShapeError):
        contract(subscripts, *[np.ones(s) for s in shapes])


def _loop_contract(subscripts, *ops, reverse=False, from_first_term=False):
    """The documented rule as a plain loop, with the two ways to get it wrong."""
    inputs, out = subscripts.split("->")
    inputs, out = [s[3:] for s in inputs.split(",")], out[3:]
    summed = list(dict.fromkeys(c for s in inputs for c in s if c not in out))
    if reverse:
        summed.reverse()
    size = {c: a.shape[a.ndim - len(s) + i] for s, a in zip(inputs, ops) for i, c in enumerate(s)}
    batch = np.broadcast_shapes(*(a.shape[: a.ndim - len(s)] for s, a in zip(inputs, ops)))
    res = np.zeros(batch + tuple(size[c] for c in out))
    for o in np.ndindex(*(size[c] for c in out)):
        acc = None if from_first_term else np.zeros(batch)
        for k in np.ndindex(*(size[c] for c in summed)):
            at = dict(zip(out, o)) | dict(zip(summed, k))
            prod = None
            for s, a in zip(inputs, ops):
                factor = a[(...,) + tuple(at[c] for c in s)]
                prod = factor if prod is None else prod * factor
            acc = prod if acc is None else acc + prod
        res[(...,) + o] = acc
    return res


def test_contract_check_rejects_other_orders():
    """Negative controls: the plain loop passes the check, and fails it once
    its contracted labels run in reverse or its sum starts from the first term."""
    draws = [
        (s, n, _operands(s, n, (3,), ["contiguous"] * 5, seed))
        for s in CONTRACT_SUBSCRIPTS
        for n in (1, 2, 3)
        for seed in range(4)
    ]
    for s, _, ops in draws:
        assert _matches_einsum(_loop_contract, s, ops)
    reverse = functools.partial(_loop_contract, reverse=True)
    first = functools.partial(_loop_contract, from_first_term=True)
    assert not all(_matches_einsum(reverse, s, ops) for s, n, ops in draws if n > 1)
    # starting from the first term differs only where the sum is -0.0
    zeros = [(s, [np.where(a < 0, -0.0, 1.0) for a in ops]) for s, _, ops in draws]
    assert all(_matches_einsum(_loop_contract, s, ops) for s, ops in zeros)
    assert not all(_matches_einsum(first, s, ops) for s, ops in zeros)


def test_einsum_only_at_the_kept_sites():
    """np.einsum is called only at the sites contract's docstring names."""
    section = contract.__doc__.split("Kept ``np.einsum`` sites")[1]
    named = set(re.findall(r"``(\w+)\.(\w+)``", section))
    called = {(module, fn) for module, fn, _ in _calls("np.einsum")}
    assert called == named
