import ast
import functools
from pathlib import Path
import re
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import rtgeo
from rtgeo import calculus
from rtgeo.calculus import (
    connection_form,
    contract,
    d_one_form,
    delta_one_form,
    form_pairs,
    lp_norm,
    matrix_inner,
    mollifier_radius,
    mollify,
    norm_report,
    w1p_norm,
    wedge,
)
from rtgeo.charts import Chart, GridField
from rtgeo.errors import ConfigurationError, ResolutionError, ShapeError

from conftest import interior_mask, smooth_connection


def put(chart, comp, values, degree=1):
    """A degree-``degree`` form in the calculus module's array layout, zero
    except at component ``comp``."""
    n = chart.n
    shape = {0: (n, n), 1: (n, n, n)}[degree]
    vals = np.zeros(chart.res + shape)
    vals[(...,) + comp] = values
    return vals


def laplacian(chart, f):
    """Delta = delta d on a 0-form, composed as the package composes it."""
    return delta_one_form(chart, chart.grad(f))


# -- exterior derivative ------------------------------------------------------


def test_d_constant_is_zero(unit_chart):
    assert np.abs(unit_chart.grad(put(unit_chart, (0, 0), 1.0, degree=0))).max() < 1e-13
    w = put(unit_chart, (0, 0, 0), 1.0)
    assert np.abs(d_one_form(unit_chart, w)).max() < 1e-13


def test_d_linear_connection_component(unit_chart):
    # single component G^2_{11} = x2 (storage [mu=1, rho=0, nu=0] as 1-form
    # slot [row 1, col 0, form 0]); canonical pair (0,1) value is
    # D_0 w_1 - D_1 w_0 = -1, i.e. +1 in the (tau=2, rho=1) ordering
    w = put(unit_chart, (1, 0, 0), unit_chart.nodes[..., 1])
    dw = d_one_form(unit_chart, w)
    assert np.allclose(dw[..., 1, 0, 0], -1.0, atol=1e-12)
    others = dw.copy()
    others[..., 1, 0, 0] = 0
    assert np.abs(others).max() < 1e-12
    # d of the 0-form x2 is the 1-form dx2
    df = unit_chart.grad(put(unit_chart, (1, 0), unit_chart.nodes[..., 1], degree=0))
    want = put(unit_chart, (1, 0, 1), 1.0)
    assert np.abs(df - want).max() < 1e-12


def test_dd_zero_machine(unit_chart):
    X = unit_chart.nodes
    f = np.stack([np.sin(2 * X[..., 0]) * X[..., 1]] * 4, -1).reshape(unit_chart.res + (2, 2))
    dd = d_one_form(unit_chart, unit_chart.grad(f))
    assert np.abs(dd).max() < 1e-10


# -- coderivative -------------------------------------------------------------


def test_delta_constant_zero(unit_chart):
    w = put(unit_chart, (0, 0, 0), 2.0)
    assert np.abs(delta_one_form(unit_chart, w)).max() < 1e-13


def test_delta_linear_exact(unit_chart):
    # w_1 = x1 in every matrix slot [0,0]: delta w = -D_1 x1 = -1
    w = put(unit_chart, (0, 0, 0), unit_chart.nodes[..., 0])
    dw = delta_one_form(unit_chart, w)
    assert np.allclose(dw[..., 0, 0], -1.0, atol=1e-12)


# -- laplacian ----------------------------------------------------------------


def test_laplacian_quadratic_documented_sign(unit_chart):
    X = unit_chart.nodes
    f = put(unit_chart, (0, 0), X[..., 0] ** 2 + X[..., 1] ** 2, degree=0)
    lf = laplacian(unit_chart, f)
    # Delta = -grad^2 under the pinned convention; exact on quadratics
    assert np.allclose(lf[..., 0, 0], -4.0, atol=1e-10)


def test_laplacian_affine_zero(unit_chart):
    X = unit_chart.nodes
    f = put(unit_chart, (1, 1), 2.0 + 3 * X[..., 0] - X[..., 1], degree=0)
    assert np.abs(laplacian(unit_chart, f)).max() < 1e-10


def test_laplacian_matches_collapsed_stencil(unit_chart):
    # the composition collapses to -sum_j D_j^2 exactly (commuting axis ops);
    # Chart.laplace, the RT solver's operator, agrees with it to round-off
    X = unit_chart.nodes
    f = put(unit_chart, (0, 1), np.sin(2 * X[..., 0]) * np.cos(3 * X[..., 1]), degree=0)
    direct = -(unit_chart.deriv(unit_chart.deriv(f, 0), 0) + unit_chart.deriv(unit_chart.deriv(f, 1), 1))
    assert np.abs(laplacian(unit_chart, f) - direct).max() < 1e-11
    assert np.abs(laplacian(unit_chart, f) - unit_chart.laplace(f)).max() < 1e-11


# -- wedge and inner product --------------------------------------------------


def test_wedge_zero_and_single_chain(unit_chart):
    z = np.zeros(unit_chart.res + (2, 2, 2))
    assert np.abs(wedge(z, z)).max() == 0
    # single nonzero chain cannot close
    w = put(unit_chart, (1, 0, 0), 1.0)
    assert np.abs(wedge(w, w)).max() < 1e-14


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
    from rtgeo.charts import connection_field

    conn = connection_field(chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2)))
    w = connection_form(conn)
    got = wedge(w, w)[0, 0]  # node at theta = pi/4
    assert np.allclose(got[..., 0], brute, atol=1e-12)


def test_matrix_inner_identity_and_bilinearity(unit_chart):
    a = np.zeros(unit_chart.res + (2, 2, 2))
    a[..., 0, 0, 0] = 1.0
    a[..., 1, 1, 0] = 1.0
    assert np.allclose(matrix_inner(a, a), np.eye(2), atol=1e-14)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(unit_chart.res + (2, 2, 2))
    c = rng.standard_normal(unit_chart.res + (2, 2, 2))
    lhs = matrix_inner(b + c, a)
    rhs = matrix_inner(b, a) + matrix_inner(c, a)
    assert np.abs(lhs - rhs).max() < 1e-12
    # <a; b> = sum_j a_j b_j, the form index contracted after the matrix product
    want = sum(b[..., j] @ c[..., j] for j in range(2))
    assert np.abs(matrix_inner(b, c) - want).max() < 1e-12


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
    # independent 1-d oracle: the normalized 1-d bump (1 - s^2)^4 applied to
    # the 1-d step profile, valid on interior rows where the kernel is full;
    # the tensor kernel keeps x1-only data x1-only, so every column agrees,
    # the ones the x2 rim truncates included
    r = 8
    s = np.arange(-r, r + 1) * chart.h[0] * 16
    k1 = (1.0 - s * s) ** 4
    k1 = k1 / k1.sum()
    prof = step[:, 64]
    sm = np.convolve(np.pad(prof, r, mode="edge"), k1, mode="valid")
    got = out.values[..., 0]
    assert np.abs(got[r:-r] - sm[r:-r, None]).max() < 1e-12
    l1 = np.abs(got[:, 64] - prof).sum() * chart.h[0]
    assert l1 <= (1 / 16) * 1.0


def test_mollify_resolution_error(unit_chart):
    f = GridField(unit_chart, np.zeros(unit_chart.res + (1,)))
    with pytest.raises(ResolutionError):
        mollify(f, 1.5 * float(unit_chart.h.max()))
    # the radius rule is per axis: 0.1 spans 3 cells of 1/32 but 1 of 1/16
    wide = Chart((0.0, 0.0), (1.0, 2.0), (33, 33))
    with pytest.raises(ResolutionError, match=r"axis 1: mollifier radius 0.1 below 2h = 0.125"):
        mollifier_radius(wide, 0.1)
    assert mollifier_radius(wide, 0.125) == [4, 2]


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
    raw = w1p_norm(f, p)
    sm = mollify(f, 1 / 16)
    smn = w1p_norm(sm, p)
    assert smn <= raw


# -- norms --------------------------------------------------------------------


def test_norm_report_constant(unit_chart):
    f = GridField(unit_chart, np.full(unit_chart.res + (1,), -1.5))
    rep = norm_report(f, 4.0)
    assert abs(rep["lp"] - 1.5) < 1e-12
    assert abs(rep["c0"] - 1.5) < 1e-12
    assert rep["w1p"] == rep["lp"]


def test_norm_report_affine_lipschitz(unit_chart):
    f = GridField(unit_chart, unit_chart.nodes[..., :1].copy())
    rep = norm_report(f, 4.0)
    # the gradient is (1, 0) at every node, and the quadrature weights sum to 1
    assert abs(rep["w1p"] - rep["lp"] - 1.0) < 1e-12
    assert rep["c0"] == 1.0


def test_norm_report_sqrt_holder():
    # sqrt(x1) is C^{0,1/2} but not W^{1,4}: the L^4 norm of its gradient,
    # int x^-2, grows like h^(-1/4) under refinement while L^4 and C^0 settle
    reps = []
    for m in (65, 129):
        chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
        reps.append(norm_report(GridField(chart, np.sqrt(chart.nodes[..., 0])[..., None]), 4.0))
    coarse, fine = reps
    assert abs((fine["w1p"] - fine["lp"]) / (coarse["w1p"] - coarse["lp"]) - 2 ** 0.25) < 0.01
    assert abs(fine["lp"] - coarse["lp"]) < 1e-4
    assert fine["c0"] == coarse["c0"] == 1.0


def test_norm_report_validation(unit_chart):
    f = GridField(unit_chart, np.zeros(unit_chart.res + (1,)))
    with pytest.raises(ConfigurationError):
        norm_report(f, 1.5)
    with pytest.raises(ConfigurationError):
        norm_report(f, 2.0)
    assert norm_report(f, np.inf)["lp"] == 0.0


def test_lp_vs_c0_bound(unit_chart):
    rng = np.random.default_rng(2)
    f = GridField(unit_chart, rng.standard_normal(unit_chart.res + (1,)))
    rep = norm_report(f, 4.0)
    assert rep["lp"] <= rep["c0"] * 1.0 ** (1 / 4.0) + 1e-12


# -- poisson (Chart.dirichlet_solve against the composed Laplacian) -------------


def test_poisson_zero(unit_chart):
    zero = np.zeros(unit_chart.res + (2, 2))
    u = unit_chart.dirichlet_solve(zero, zero)
    assert np.abs(u).max() < 1e-12


def test_poisson_inverse_of_own_operator(unit_chart):
    X = unit_chart.nodes
    ustar = np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1])
    f = put(unit_chart, (0, 0), ustar, degree=0)
    got = unit_chart.dirichlet_solve(laplacian(unit_chart, f), f)
    assert np.abs(got - f).max() < 1e-9


def test_poisson_manufactured_convergence_ratio():
    errs = {}
    for m in (33, 65):
        chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
        X = chart.nodes
        ustar = np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1])
        # continuum Delta u* under the documented sign: +2 pi^2 u*
        src = np.zeros(chart.res + (2, 2))
        src[..., 0, 0] = 2 * np.pi ** 2 * ustar
        u = chart.dirichlet_solve(src, np.zeros(chart.res + (2, 2)))
        errs[m] = np.abs(u[..., 0, 0] - ustar).max()
    ratio = errs[33] / errs[65]
    assert 3.0 <= ratio <= 5.0


def test_poisson_then_laplacian_reproduces_source(unit_chart):
    rng = np.random.default_rng(7)
    src = rng.standard_normal(unit_chart.res + (2, 2))
    u = unit_chart.dirichlet_solve(src, np.zeros(unit_chart.res + (2, 2)))
    lap = laplacian(unit_chart, u)
    interior = interior_mask(unit_chart)
    assert np.abs((lap - src)[interior]).max() < 1e-8


def test_dd_and_deltadelta_smooth_lp(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    w = connection_form(conn)
    dd = d_one_form(unit_chart_65, unit_chart_65.grad(delta_one_form(unit_chart_65, w)))
    assert lp_norm(GridField(unit_chart_65, dd), 4.0) < 1e-9


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


# definitions that only code outside src/rtgeo reads, each with its reason
UNREFERENCED_ALLOWED = {
    # tests/test_transform.py's tensor-law oracle; ROADMAP item 6 gives it a caller
    "curvature.transform_curvature",
    # perfbench/run.py and perfbench/spans.py read it
    "geodesics.Curve.truncated",
    # perfbench/spans.py traces it by name; goes with ROADMAP item 15
    "_kernels.holder_pair_max",
}


def _unreferenced_definitions():
    """Functions, methods and classes of src/rtgeo that no ``ast.Name`` id or
    ``ast.Attribute`` attr in src/rtgeo names outside their own definition.
    Imports and docstrings are not references; dunders are called implicitly."""
    defs, refs = [], []

    def visit(node, owners):
        if isinstance(node, ast.Name):
            refs.append((node.id, owners))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, owners))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners + (node.name,)
            defs.append(owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    named = {name for name, owners in refs if name not in owners[1:]}
    return {".".join(d) for d in defs if d[-1] not in named and not re.fullmatch(r"__\w+__", d[-1])}


def test_every_definition_has_a_caller_in_the_package():
    assert _unreferenced_definitions() == UNREFERENCED_ALLOWED


# parameters with a default that no call in src/rtgeo passes: the test hooks,
# each with its reason
UNPASSED_DEFAULTS_ALLOWED = {
    # tests tighten Picard's tolerance for their oracles
    "geodesics.solve_geodesic(tol_ode)",
    # ROADMAP item 7: only tests run the uniqueness mode
    "geodesics.weak_solution_pipeline(mode)",
    # tests scale the smooth test connection and coarsen the bump basis
    "harness.smooth_connection(amp)",
    "curvature.bump_basis(per_axis)",
    # tests and perfbench digest reports without their timings
    "harness.ExperimentReport.to_json(include_timings)",
    # tests pass argv; the console script reads sys.argv
    "cli.main(argv)",
}


def _default_passes():
    """``module.[class.]function(param)`` for every parameter with a default in
    src/rtgeo, mapped to one bool per call in src/rtgeo that reaches it: does
    that call pass the parameter, by keyword or by position.

    A call matches by the callee's last name (a class name calls its
    ``__init__``, whose ``self`` is bound as a method's is);
    ``partial(f, ...)`` calls ``f``, and a call with ``*args`` or
    ``**kwargs`` passes every parameter."""
    params, calls = [], []

    def visit(node, owners, method):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, init = node.args, node.name == "__init__"
            qual = ".".join(owners if init else owners + (node.name,))
            name = owners[-1] if init else node.name
            pos = args.posonlyargs + args.args
            first = len(pos) - len(args.defaults)
            params.extend((qual, name, a.arg, i - method) for i, a in enumerate(pos) if i >= first)
            kw = zip(args.kwonlyargs, args.kw_defaults)
            params.extend((qual, name, a.arg, None) for a, d in kw if d is not None)
        elif isinstance(node, ast.Call):
            fn, given = node.func, node.args
            if isinstance(fn, ast.Name) and fn.id == "partial" and given:
                fn, given = given[0], given[1:]
            name = getattr(fn, "id", None) or getattr(fn, "attr", None)
            splat = any(isinstance(a, ast.Starred) for a in given) or any(k.arg is None for k in node.keywords)
            calls.append((name, len(given), {k.arg for k in node.keywords}, splat))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, owners, isinstance(node, ast.ClassDef))

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,), False)
    return {
        f"{qual}({param})": [
            splat or param in keywords or (index is not None and npos > index)
            for callee, npos, keywords, splat in calls
            if callee == name
        ]
        for qual, name, param, index in params
    }


def _unpassed_defaults():
    """Every parameter with a default that no call in src/rtgeo passes."""
    return {param for param, passes in _default_passes().items() if not any(passes)}


def test_every_default_is_passed_somewhere_in_the_package():
    assert _unpassed_defaults() == UNPASSED_DEFAULTS_ALLOWED


# parameters whose default every call in src/rtgeo overrides: the public entry
# points, each with its reason
ALWAYS_PASSED_DEFAULTS_ALLOWED = {
    # the CLI passes every option; perfbench and library callers rely on the defaults
    "harness.run_experiment(out_dir)",
    "harness.run_experiment(grid)",
    "harness.run_experiment(seed)",
    "harness.run_experiment(quiet)",
}


def _always_passed_defaults():
    """Every parameter with a default that at least one call in src/rtgeo
    reaches and that every such call passes: a default no caller relies on."""
    return {param for param, passes in _default_passes().items() if passes and all(passes)}


def test_every_default_is_relied_on_somewhere_in_the_package():
    assert _always_passed_defaults() == ALWAYS_PASSED_DEFAULTS_ALLOWED


def _settable_values():
    """Optional parameters plus dataclass fields in src/rtgeo: the settable
    values that ROADMAP tracks."""
    optional, fields = 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                optional += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list
            ):
                fields += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name) for s in node.body)
    return optional + fields


def test_settable_values_stay_within_the_pin():
    # a change that adds a parameter default or a dataclass field raises the
    # pin and says why in CHANGES.md
    assert _settable_values() <= 93


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
    # the shipped block size, and blocks of 3 nodes that cut the batches
    # (5,), (3, 4) and (4, 1) into several blocks, (5,)'s last one short
    for block in (calculus.CONTRACT_BLOCK, 3):
        with mock.patch.object(calculus, "CONTRACT_BLOCK", block):
            assert _matches_einsum(contract, subscripts, ops)
            # reductions downstream (lp_norm, sum) take their bits from memory order
            with np.errstate(all="ignore"):
                got = contract(subscripts, *ops)
        assert got.flags.c_contiguous


def test_contract_temporaries_stay_within_three_outputs():
    # the 129^2 optimal-connection contraction (rt_solver.optimal_connection):
    # block-sized buffers, not one full-grid array per operand copy and term
    rng = np.random.default_rng(0)
    nodes = 129 * 129
    ops = [rng.standard_normal((nodes, 2, 2)) for _ in range(3)] + [rng.standard_normal((nodes, 2, 2, 2))]
    subscripts = "...gk,...ia,...jb,...kij->...gab"
    contract(subscripts, *ops)  # parse and plan outside the trace
    tracemalloc.start()
    try:
        got = contract(subscripts, *ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * got.nbytes


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
