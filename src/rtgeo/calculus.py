"""Discrete exterior calculus on matrix-valued forms, mollification, norms.

Form storage: degree 0 -> (*res, n, n); degree 1 -> (*res, n, n, n) with the
form index LAST (``[row, col, j]``); degree 2 -> (*res, n, n, P) with
canonical pairs i < j in lexicographic order.

Sign conventions (fixed once, asserted by tests):
    d   on 1-forms:  (d w)_{(i,j)} = D_i w_j - D_j w_i
    delta           = -sum_j D_j (.)_j   (minus the divergence)
    Delta           = delta d + d delta  (collapses to -sum_j D_j^2 per
                      component: Delta vanishes on affine data and
                      Delta[(x1)^2 + (x2)^2] = -4 at n = 2)
"""

from dataclasses import asdict, dataclass
import functools
import json

import numpy as np

from . import _kernels
from .charts import Chart, GridField
from .errors import DegreeError, ResolutionError, ShapeError, SolverError, ConfigurationError

HOLDER_PAIR_FLOOR = 4  # pair-separation floor for Hölder quotients, in units of max(h)


# ---------------------------------------------------------------------------
# pointwise contraction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _contraction_plan(subscripts):
    """Parse ``"...ab,...bc->...ac"`` once into per-operand layouts and a product schedule.

    Per operand: the axis permutation of its labels (its contracted labels,
    then the output labels it carries, in output order), the indexing that
    inserts a unit axis for each output label it lacks, and the positions of
    its contracted labels in the contracted-label order.  ``steps[l]`` lists
    the operands whose factor joins the running product once the first ``l``
    contracted labels are fixed.
    """
    inputs, out = subscripts.split("->")
    inputs = inputs.split(",")
    if not out.startswith("...") or not all(s.startswith("...") for s in inputs):
        raise ShapeError(f"contract needs node-batched subscripts ('...' first), got {subscripts!r}")
    inputs, out = [s[3:] for s in inputs], out[3:]
    summed = []
    for s in inputs:
        if len(set(s)) != len(s):
            raise ShapeError(f"repeated label within one operand of {subscripts!r}")
        summed += [c for c in s if c not in out and c not in summed]
    if len(set(out)) != len(out) or not set(out) <= set("".join(inputs)):
        raise ShapeError(f"bad output labels in {subscripts!r}")
    layouts, keys, levels = [], [], []
    for s in inputs:
        free = [s.index(c) for c in out if c in s]
        contracted = [c for c in s if c not in out]
        expand = (slice(None),) * len(contracted) + tuple(slice(None) if c in s else None for c in out)
        layouts.append((tuple([s.index(c) for c in contracted] + free), expand))
        keys.append(tuple(summed.index(c) for c in contracted))
        levels.append(max([levels[-1] if levels else 0] + [k + 1 for k in keys[-1]]))
    steps = tuple(tuple(k for k, lv in enumerate(levels) if lv == step) for step in range(len(summed) + 1))
    return tuple(layouts), tuple(keys), steps


def contract(subscripts, *operands):
    """``np.einsum(subscripts, *operands)`` on node-batched operands, bit for bit.

    Every subscript starts with ``...`` (the node axes, broadcast as einsum
    broadcasts them); the small labels are contracted with unoptimized
    einsum's arithmetic:

    - the output starts as zeros, so a sum of -0.0 terms reads +0.0;
    - the contracted labels are taken in order of first appearance across
      the operands, the last one varying fastest;
    - for each assignment of them, the operands' slices are multiplied left
      to right and the product is added to the output.

    Each numpy op here covers every node and every output label at once, so
    a call costs about n^k array ops for k contracted labels instead of
    einsum's generic per-element loop.  Each operand is copied once into
    label-major order (contracted labels, output labels, node axes), so every
    op runs a long contiguous loop over the nodes; the output labels go back
    to the end in one C-contiguous copy.  Because products run left to right,
    the product of the leading operands is formed once per assignment of the
    labels they carry and reused across the inner labels: the same value.

    einsum sums in this order when the last memory axis of the operands is
    an output label, as on every chart field here; where a contracted label
    is the last memory axis of every operand carrying it, einsum reduces it
    in SIMD lanes instead, whose grouping no per-label loop reproduces.

    Kept ``np.einsum`` sites, each for the stated reason:

    - ``geodesics._solve_picard`` (``tmrn,tr,tn->tm``) and
      ``transform.pushforward_curve`` (``tmn,tn->tm``): batches of 17-257
      time nodes, where this helper's per-call overhead loses (Picard's
      contraction on a 2-vCPU VM: about 40 us against einsum's 6-9 us at 33
      rows, 60-75 us against 35-45 us at 257); they are the only einsum
      calls of a geodesic fan.
    - ``curvature._weak_functional``: its two sums run over 1,365-2,025
      nodes, not over small labels.
    - ``calculus.matrix_inner`` (``...msj,...snj->...mn``): the form index
      j is the last memory axis of both forms, the SIMD-lane case above.
    """
    layouts, keys, steps = _contraction_plan(subscripts)
    if len(operands) != len(layouts):
        raise ShapeError(f"{subscripts!r} names {len(layouts)} operands, got {len(operands)}")
    rank = max(a.ndim - len(perm) for a, (perm, _) in zip(operands, layouts))
    views, sizes = [], [None] * (len(steps) - 1)
    for a, (perm, expand), key in zip(operands, layouts, keys):
        nb = a.ndim - len(perm)
        v = np.ascontiguousarray(a.transpose(tuple(nb + p for p in perm) + tuple(range(nb))))
        views.append(v[expand + (None,) * (rank - nb)])
        for lab, size in zip(key, v.shape):
            if sizes[lab] not in (None, size):
                raise ShapeError(f"contracted label sizes disagree in {subscripts!r}")
            sizes[lab] = size
    shape = np.broadcast_shapes(*[v.shape[len(key):] for v, key in zip(views, keys)])
    out = np.zeros(shape, dtype=np.result_type(*operands))
    _accumulate(out, views, keys, steps, sizes, 0, None, ())
    labels = len(shape) - rank
    return np.ascontiguousarray(np.moveaxis(out, range(labels), range(rank, rank + labels)))


def _accumulate(out, views, keys, steps, sizes, level, prod, idx):
    """Add to ``out`` every term under the first ``level`` contracted labels fixed at ``idx``."""
    for k in steps[level]:
        factor = views[k][tuple(idx[lab] for lab in keys[k])]
        prod = factor if prod is None else prod * factor
    if level == len(sizes):
        np.add(prod, out, out=out)  # einsum's operand order, temp + out: it decides which NaN survives
        return
    for i in range(sizes[level]):
        _accumulate(out, views, keys, steps, sizes, level + 1, prod, idx + (i,))


def form_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class MatrixForm:
    """Matrix-valued differential k-form sampled on a chart."""

    chart: Chart
    degree: int
    values: np.ndarray

    def __post_init__(self):
        n = self.chart.n
        want = {
            0: self.chart.res + (n, n),
            1: self.chart.res + (n, n, n),
            2: self.chart.res + (n, n, len(form_pairs(n))),
        }
        if self.degree not in want:
            raise DegreeError(f"unsupported degree {self.degree}")
        if self.values.shape != want[self.degree]:
            raise ShapeError(
                f"degree-{self.degree} form needs shape {want[self.degree]}, got {self.values.shape}"
            )

    def same_layout(self, other):
        if self.chart != other.chart:
            raise ShapeError("charts differ")
        return other


def connection_form(conn):
    """View connection samples G[mu, rho, nu] as the matrix 1-form w[mu, nu, rho]."""
    return MatrixForm(conn.chart, 1, np.ascontiguousarray(conn.values.swapaxes(-1, -2)))


def form_to_connection(w):
    from .charts import connection_field

    return connection_field(w.chart, np.ascontiguousarray(w.values.swapaxes(-1, -2)))


def full_antisymmetric(w):
    """Expand canonical 2-form storage to the full antisymmetric (..., i, j) array."""
    n = w.chart.n
    out = np.zeros(w.values.shape[:-1] + (n, n))
    for k, (i, j) in enumerate(form_pairs(n)):
        out[..., i, j] = w.values[..., k]
        out[..., j, i] = -w.values[..., k]
    return out


def d_one_form(chart, vals):
    """(d w)_{(i,j)} = D_i w_j - D_j w_i over the last (form) axis of any (*res, ..., n) array."""
    pairs = form_pairs(chart.n)
    out = np.empty(vals.shape[:-1] + (len(pairs),))
    for k, (i, j) in enumerate(pairs):
        out[..., k] = chart.deriv(vals[..., j], i) - chart.deriv(vals[..., i], j)
    return out


def delta_one_form(chart, vals):
    """delta w = -sum_j D_j w_j over the last (form) axis of any (*res, ..., n) array."""
    out = np.zeros(vals.shape[:-1])
    for j in range(chart.n):
        out -= chart.deriv(vals[..., j], j)
    return out


def exterior_derivative(w):
    """d: centered second-order differences inside, one-sided at the boundary."""
    if w.degree == 0:
        return MatrixForm(w.chart, 1, w.chart.grad(w.values))
    if w.degree == 1:
        return MatrixForm(w.chart, 2, d_one_form(w.chart, w.values))
    raise DegreeError("exterior derivative supports degrees 0 and 1 only")


def coderivative(w):
    """delta, the Euclidean codifferential: minus-divergence over the form index."""
    if w.degree == 1:
        return MatrixForm(w.chart, 0, delta_one_form(w.chart, w.values))
    if w.degree == 2:
        # -sum_i D_i w_{ij} = sum_i D_i w_{ji} by antisymmetry
        return form_divergence(w)
    raise DegreeError("coderivative supports degrees 1 and 2 only")


def laplacian(w):
    """Delta = delta d + d delta, literally composed from the two operators.

    With delta = -div this is the positive-semidefinite geometer's Laplacian:
    on 0-forms Delta f = -sum_j D_j D_j f, e.g. Delta[(x1)^2 + (x2)^2] = -4.
    """
    if w.degree == 0:
        return coderivative(exterior_derivative(w))
    if w.degree == 1:
        return MatrixForm(
            w.chart,
            1,
            coderivative(exterior_derivative(w)).values
            + exterior_derivative(coderivative(w)).values,
        )
    raise DegreeError("laplacian supports degrees 0 and 1 only")


def wedge(a, b):
    """(a ^ b)_{(i,j)} = a_i b_j - a_j b_i with matrix products."""
    if a.degree != 1 or b.degree != 1:
        raise DegreeError("wedge is defined for pairs of 1-forms")
    a.same_layout(b)
    pairs = form_pairs(a.chart.n)
    out = np.empty(a.values.shape[:-1] + (len(pairs),))
    for k, (i, j) in enumerate(pairs):
        out[..., k] = contract("...ms,...sn->...mn", a.values[..., i], b.values[..., j]) - contract(
            "...ms,...sn->...mn", a.values[..., j], b.values[..., i]
        )
    return MatrixForm(a.chart, 2, out)


def matrix_inner(a, b):
    """<a; b> = sum_j a_j b_j, contraction over the form index with matrix chain."""
    if a.degree != 1 or b.degree != 1:
        raise DegreeError("matrix inner product is defined for pairs of 1-forms")
    a.same_layout(b)
    out = np.einsum("...msj,...snj->...mn", a.values, b.values)  # not contract: see its kept sites
    return MatrixForm(a.chart, 0, out)


def matmul(A, w):
    """Left matrix multiplication of a form by a matrix 0-form (or raw array)."""
    Av = A.values if isinstance(A, MatrixForm) else A
    if w.degree == 0:
        return MatrixForm(w.chart, 0, contract("...ms,...sn->...mn", Av, w.values))
    return MatrixForm(
        w.chart, w.degree, contract("...ms,...snk->...mnk", Av, w.values)
    )


def form_divergence(w):
    """div->: divergence over the second form index of a 2-form.

    (div w)_rho = sum_tau D_tau w_{rho tau}; the remaining index stays a form
    index, so the output is a matrix 1-form.
    """
    if w.degree != 2:
        raise DegreeError("form divergence needs a degree-2 input")
    chart, n = w.chart, w.chart.n
    full = full_antisymmetric(w)
    out = np.zeros(w.values.shape[:-1] + (n,))
    for rho in range(n):
        acc = np.zeros(w.values.shape[:-1])
        for tau in range(n):
            acc += chart.deriv(full[..., rho, tau], tau)
        out[..., rho] = acc
    return MatrixForm(chart, 1, out)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def bump_kernel(chart, eps):
    """Discrete (1 - r^2)^4 bump on the grid stencil, radius eps, mass renormalized."""
    rad = [int(np.floor(eps / chart.h[ax])) for ax in range(chart.n)]
    if min(rad) < 2:
        raise ResolutionError(f"mollifier radius {eps:g} below 2h = {2 * chart.h.max():g}")
    offs = np.meshgrid(
        *[np.arange(-r, r + 1) * chart.h[ax] for ax, r in enumerate(rad)], indexing="ij"
    )
    r2 = sum(o ** 2 for o in offs) / eps ** 2
    K = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 4, 0.0)
    return K


def mollify(fld, eps):
    """Normalized convolution with the bump kernel; truncated-renormalized at the rim.

    Linear, positivity preserving, exact on constants, and leaves affine data
    unchanged wherever the kernel support is fully interior.  One numpy tap
    loop serves every n and every component, bit for bit
    ``scipy.ndimage.convolve``'s zero-fill sum: the flipped kernel's taps in
    C order, taps with |w| <= DBL_EPSILON skipped (ndimage's footprint), each
    adding ``w * value`` to a sum started at 0.0; the denominator, the same
    sum over ones, rides along as one more component.  With numba installed,
    n = 2 runs the jitted loop.
    """
    chart = fld.chart
    K = bump_kernel(chart, eps)
    comp = fld.values.reshape(chart.res + (-1,))
    if chart.n == 2 and _kernels.HAVE_NUMBA:
        out = _kernels._mollify2_jit(np.ascontiguousarray(comp), np.ascontiguousarray(K))
    else:
        flipped = K[(slice(None, None, -1),) * chart.n]
        padded = np.pad(
            np.concatenate([comp, np.ones(chart.res + (1,))], axis=-1),
            [(k // 2, k // 2) for k in K.shape] + [(0, 0)],
        )
        acc, term = np.zeros(chart.res + padded.shape[-1:]), np.empty(chart.res + padded.shape[-1:])
        for tap in zip(*np.nonzero(np.abs(flipped) > np.finfo(np.float64).eps)):
            np.multiply(flipped[tap], padded[tuple(slice(t, t + m) for t, m in zip(tap, chart.res))], out=term)
            acc += term
        out = acc[..., :-1] / acc[..., -1:]
    return fld.copy(values=out.reshape(fld.values.shape))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


@dataclass
class NormReport:
    p: float
    alpha: float
    lp: float
    w1p: float
    c0: float
    c0alpha: float
    pair_floor: float

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def lp_norm(fld, p, weights=None):
    """h-weighted (trapezoidal) L^p norm of the pointwise Frobenius magnitude; p = inf is C0."""
    chart = fld.chart
    mag = np.sqrt((fld.values.reshape(chart.npoints, -1) ** 2).sum(axis=1))
    if weights is not None:
        mag = mag * weights.ravel()
    if np.isinf(p):
        return float(mag.max())
    return float((chart.quad_weights.ravel() * mag ** p).sum() ** (1.0 / p))


def gradient_field(fld):
    return fld.copy(values=fld.chart.grad(fld.values))


def w1p_norm(fld, p):
    """W^{1,p} norm: L^p of the field plus L^p of its gradient."""
    return lp_norm(fld, p) + lp_norm(gradient_field(fld), p)


def norm_report(fld, p, alpha):
    """L^p (h-weighted Riemann sum), W^{1,p}, C^0 and C^{0,alpha} estimates.

    Pointwise magnitudes are Frobenius norms over components.  The Hölder
    quotient is the exact maximum over node pairs with separation >= 4 max(h).
    """
    chart = fld.chart
    if not np.isinf(p) and p <= chart.n:
        raise ConfigurationError(f"exponent p must exceed n={chart.n} (or be inf), got {p}")
    if not (0 < alpha <= 1):
        raise ConfigurationError(f"alpha must lie in (0, 1], got {alpha}")
    lp = lp_norm(fld, p)
    w1p = w1p_norm(fld, p)
    c0 = lp_norm(fld, np.inf)
    floor = HOLDER_PAIR_FLOOR * float(chart.h.max())
    coords = chart.nodes.reshape(-1, chart.n)
    vals = fld.values.reshape(chart.npoints, -1)
    quot = _kernels.holder_pair_max(coords, vals, alpha, floor)
    return NormReport(
        p=float(p),
        alpha=float(alpha),
        lp=lp,
        w1p=w1p,
        c0=c0,
        c0alpha=c0 + quot,
        pair_floor=floor,
    )


# ---------------------------------------------------------------------------
# elliptic engine
# ---------------------------------------------------------------------------


def poisson_solve(source, boundary):
    """Solve Delta u = source with Dirichlet data, componentwise.

    Delta is the same composed operator as :func:`laplacian` (the composition
    collapses to -sum_j D_j^2 per component exactly, by commutation of the
    axis-difference matrices).  Solved by :meth:`Chart.dirichlet_solve`'s
    fast diagonalization; deterministic.
    """
    chart = source.chart
    bvals = boundary.values if isinstance(boundary, (MatrixForm, GridField)) else boundary
    u = chart.dirichlet_solve(source.values, bvals)
    resid = _relative_residual(chart, u, source.values)
    if resid > 1e-10:
        raise SolverError(f"poisson residual {resid:.2e} above 1e-10", [resid])
    if isinstance(source, MatrixForm):
        return MatrixForm(chart, source.degree, u)
    return source.copy(values=u)


def _relative_residual(chart, u, src):
    interior = chart.interior_mask
    lap = chart.laplace(u)
    num = np.abs((lap - src)[interior]).max()
    den = max(np.abs(src[interior]).max(), 1.0)
    return num / den
