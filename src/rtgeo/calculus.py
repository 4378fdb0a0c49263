"""Discrete exterior calculus on matrix-valued forms, mollification, norms.

A matrix-valued form is a plain array on the chart's nodes: degree 0 is
(*res, n, n); degree 1 is (*res, n, n, n) with the form index LAST
(``[row, col, j]``); degree 2 is (*res, n, n, P) with the P = n(n-1)/2
canonical pairs i < j in lexicographic order (:func:`form_pairs`).

Operators, one entry point each (signs fixed once, asserted by tests):
    d on 0-forms:    ``chart.grad``, (d f)_j = D_j f
    d on 1-forms:    :func:`d_one_form`, (d w)_{(i,j)} = D_i w_j - D_j w_i
    delta on 1-forms: :func:`delta_one_form`, -sum_j D_j w_j (minus the
                     divergence)
    Delta on 0-forms: delta d, i.e. ``delta_one_form(chart, chart.grad(f))``;
                     it collapses to -sum_j D_j^2 per component, vanishes on
                     affine data, and Delta[(x1)^2 + (x2)^2] = -4 at n = 2
    :func:`wedge` and :func:`matrix_inner` pair two 1-forms.
"""

import functools
import math

import numpy as np

from .charts import axis_products
from .errors import ResolutionError, ShapeError, ConfigurationError

# most nodes per block of contract: a 65^2 grid stays whole (smaller blocks slow
# its many small calls by about half at 2048), a 129^2 grid runs in 3 blocks
CONTRACT_BLOCK = 8192


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
    contracted labels are fixed; ``through[l]`` lists every operand in the
    product by then, where level ``l`` multiplies (else it is empty).
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
    through = []
    for step, ks in enumerate(steps):
        upto = tuple(k for k, lv in enumerate(levels) if lv <= step)
        through.append(upto if ks and len(upto) > 1 else ())
    return tuple(layouts), tuple(keys), steps, tuple(through), len(out)


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

    Each numpy op here covers every node of a block and every output label
    at once, so a call costs about n^k array ops per block for k contracted
    labels instead of einsum's generic per-element loop.  Because products
    run left to right, the product of the leading operands is formed once
    per assignment of the labels they carry and reused across the inner
    labels: the same value.

    Blocks and buffers: the broadcast node shape is cut along its leading
    axis into the fewest blocks of equal row counts (the last may be
    shorter) that hold at most ``CONTRACT_BLOCK`` nodes each, or one row
    where a row holds more; an operand whose leading node axis is absent or
    1 is copied once and not cut.  Each block of an operand is copied
    into label-major order (contracted labels, output labels, node axes), so
    every op runs one contiguous loop over the block's nodes.  The operand
    copies, the block's sum and one product per level that multiplies live
    in buffers allocated by the first block and reused by every block and
    every term (``np.multiply(..., out=)``); each block's sum is copied, its
    output labels moved back to the end, into its rows of one C-contiguous
    output.  A call thus holds the output and a few block-sized buffers,
    whatever the grid.  Blocking only decides which nodes an op covers:
    each node sees the same products in the same order, added into a zeroed
    sum, so the bits do not depend on the block size.

    einsum sums in this order when the last memory axis of the operands is
    an output label, as on every chart field here; where a contracted label
    is the last memory axis of every operand carrying it, einsum reduces it
    in SIMD lanes instead, whose grouping no per-label loop reproduces.

    Kept ``np.einsum`` sites, each for the stated reason:

    - ``geodesics._gamma_vv_nodes`` (``tmk,tk->tm``): Picard's batches of
      17-257 time nodes, where this helper's per-call overhead loses at
      every size (on a 2-vCPU VM, 38-46 us against einsum's 4-8 us at 17,
      129 and 257 rows).
    - ``curvature._weak_functional``: its two sums run over the nodes of a
      bump's support (7-994 in the shipped runs), not over small labels.
    - ``calculus.matrix_inner`` (``...msj,...snj->...mn``): the form index
      j is the last memory axis of both forms, the SIMD-lane case above.
    """
    keys, steps, sizes, layout, out_shape, dtype, back, blocks = _block_plan(
        subscripts, tuple(a.shape for a in operands), tuple(a.dtype for a in operands), CONTRACT_BLOCK
    )
    if not blocks:
        return np.empty(out_shape, dtype)
    views = [a.transpose(order)[index] for a, (order, index) in zip(operands, layout)]
    # the operands no block cuts are copied once, whole
    factors = [np.ascontiguousarray(v) if cut is None else None for v, cut in zip(views, blocks[0][1])]
    pool, out = {}, None
    for region, cuts, total, prods in blocks:
        for k, cut in enumerate(cuts):
            if cut is not None:
                factors[k] = _scratch(pool, ("operand", k), *cut[1:])
                np.copyto(factors[k], views[k][cut[0]])
        acc = _scratch(pool, "sum", *total)
        acc.fill(0)
        products = [p and _scratch(pool, ("level", lv), *p) for lv, p in enumerate(prods)]
        _accumulate(acc, factors, keys, steps, sizes, products, 0, None, ())
        if out is None:  # after the buffers: freed below it, malloc reuses them rather than trim and refault
            out = np.empty(out_shape, dtype)
        np.copyto(out[region], acc.transpose(back))
    return out


@functools.lru_cache(maxsize=256)
def _block_plan(subscripts, shapes, dtypes, block):
    """``contract``'s shape work for operands of ``shapes`` and ``dtypes`` in blocks
    of at most ``block`` nodes, done once per distinct call.

    Returns the parsed ``keys`` and ``steps`` and the contracted label sizes;
    per operand the axis order and indexing of its label-major view; the
    output's shape and dtype and the axis order from a block's sum to it; and
    per block the output rows it fills, per operand the rows it copies with
    their shape and dtype (None for an operand copied once, whole), and the
    shape and dtype of its sum and of each multiplying level's product (None
    for a level that does not multiply).
    """
    layouts, keys, steps, through, labels = _contraction_plan(subscripts)
    if len(shapes) != len(layouts):
        raise ShapeError(f"{subscripts!r} names {len(layouts)} operands, got {len(shapes)}")
    rank = max(len(s) - len(perm) for s, (perm, _) in zip(shapes, layouts))
    layout, shaped, sizes = [], [], [None] * (len(steps) - 1)
    for s, (perm, expand), key in zip(shapes, layouts, keys):
        nb = len(s) - len(perm)
        layout.append((tuple(nb + p for p in perm) + tuple(range(nb)), expand + (None,) * (rank - nb)))
        shaped.append(np.broadcast_to(0.0, s).transpose(layout[-1][0])[layout[-1][1]].shape)  # label-major, off a zero-byte stand-in
        for lab, size in zip(key, shaped[-1]):
            if sizes[lab] not in (None, size):
                raise ShapeError(f"contracted label sizes disagree in {subscripts!r}")
            sizes[lab] = size
    shape = np.broadcast_shapes(*[v[len(key):] for v, key in zip(shaped, keys)])
    nodes = shape[labels:]
    dtype = np.result_type(*dtypes)
    rows = nodes[0] if rank else 1
    count = -(-rows // max(1, block // max(1, math.prod(nodes[1:]))))
    step = max(1, -(-rows // max(1, count)))  # rows per block
    leads = [len(key) + labels if step < rows and v[len(key) + labels] > 1 else None for v, key in zip(shaped, keys)]
    blocks = []
    for r0 in range(0, rows, step):
        m = min(step, rows - r0)
        cut = (slice(r0, r0 + m),) if rank else (...,)
        copies = [v if lead is None else v[:lead] + (m,) + v[lead + 1 :] for v, lead in zip(shaped, leads)]
        tails = [c[len(key):] for c, key in zip(copies, keys)]
        blocks.append((
            cut,
            tuple(None if lead is None else ((slice(None),) * lead + cut, c, dt) for c, lead, dt in zip(copies, leads, dtypes)),
            (np.broadcast_shapes(*tails), dtype),
            tuple((np.broadcast_shapes(*[tails[k] for k in ks]), np.result_type(*[dtypes[k] for k in ks])) if ks else None for ks in through),
        ))
    back = tuple(range(labels, len(shape))) + tuple(range(labels))
    return keys, steps, tuple(sizes), tuple(layout), nodes + shape[:labels], dtype, back, tuple(blocks)


def _scratch(pool, slot, shape, dtype):
    """A C-contiguous ``shape`` array over the front of ``pool[slot]``, which the
    first (largest) block allocates and every later block reuses."""
    size = math.prod(shape)
    if slot not in pool:
        pool[slot] = np.empty(size, dtype)
    return pool[slot][:size].reshape(shape)


def _accumulate(out, factors, keys, steps, sizes, prods, level, prod, idx):
    """Add to ``out`` every term under the first ``level`` contracted labels fixed
    at ``idx``; a level that multiplies writes its product into ``prods[level]``."""
    for k in steps[level]:
        factor = factors[k][tuple(idx[lab] for lab in keys[k])]
        prod = factor if prod is None else np.multiply(prod, factor, out=prods[level])
    if level == len(sizes):
        np.add(prod, out, out=out)  # einsum's operand order, temp + out: it decides which NaN survives
        return
    for i in range(sizes[level]):
        _accumulate(out, factors, keys, steps, sizes, prods, level + 1, prod, idx + (i,))


def matvec(M, v):
    """M v per point: matrices (..., n, n) times vectors (..., n), by :func:`contract`."""
    return contract("...ij,...jk->...ik", M, v[..., None])[..., 0]


def form_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def connection_form(conn):
    """View connection samples G[mu, rho, nu] as the matrix 1-form w[mu, nu, rho]."""
    return np.ascontiguousarray(conn.values.swapaxes(-1, -2))


def full_antisymmetric(vals, n):
    """Expand a canonical 2-form (..., P) to the full antisymmetric (..., i, j) array."""
    out = np.zeros(vals.shape[:-1] + (n, n))
    for k, (i, j) in enumerate(form_pairs(n)):
        out[..., i, j] = vals[..., k]
        out[..., j, i] = -vals[..., k]
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


def wedge(a, b):
    """(a ^ b)_{(i,j)} = a_i b_j - a_j b_i with matrix products, for 1-forms a, b."""
    pairs = form_pairs(a.shape[-1])
    out = np.empty(a.shape[:-1] + (len(pairs),))
    for k, (i, j) in enumerate(pairs):
        out[..., k] = contract("...ms,...sn->...mn", a[..., i], b[..., j]) - contract(
            "...ms,...sn->...mn", a[..., j], b[..., i]
        )
    return out


def matrix_inner(a, b):
    """<a; b> = sum_j a_j b_j, contraction over the form index with matrix chain."""
    return np.einsum("...msj,...snj->...mn", a, b)  # not contract: see its kept sites


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def mollifier_radius(chart, eps):
    """The eps bump kernel's radius in nodes per axis, floor(eps / h); below 2
    nodes on any axis it raises ResolutionError naming that axis and the limit."""
    rad = [int(np.floor(eps / h)) for h in chart.h]
    for ax, r in enumerate(rad):
        if r < 2:
            raise ResolutionError(f"axis {ax}: mollifier radius {eps:g} below 2h = {2 * chart.h[ax]:g}")
    return rad


def mollifier_band(chart, eps):
    """Cells per axis, ceil(eps / h) + 2, to drop at each end so that every kept
    node lies at least eps + 2h inside the chart: an eps kernel centred nearer
    the rim is truncated, and derivatives of mollified data read two cells further."""
    return [int(np.ceil(eps / h)) + 2 for h in chart.h]


def mollify(fld, eps):
    """Normalized convolution with the tensor-product bump prod_k (1 - s_k^2)^4.

    s_k = offset_k h_k / eps, out to ``mollifier_radius`` nodes.  Per axis the
    weights form one banded (m_k, m_k) matrix, each row divided by its own
    sum, so the rim truncation is renormalized axis by axis and the
    normalized n-fold sum factorizes exactly: one GEMM per axis
    (``charts.axis_products``), every component at once.  Linear, positivity
    preserving, exact on constants, and leaves affine data unchanged
    wherever the kernel support is fully interior.
    """
    chart = fld.chart
    mats = []
    for m, h, r in zip(chart.res, chart.h, mollifier_radius(chart, eps)):
        off = np.subtract.outer(np.arange(m), np.arange(m))
        S = np.where(np.abs(off) <= r, (1.0 - np.minimum(np.square(off * h / eps), 1.0)) ** 4, 0.0)
        mats.append(S / S.sum(axis=1, keepdims=True))
    comp = fld.values.reshape(chart.res + (-1,))
    out = axis_products(comp, mats).reshape(comp.shape[-1], -1).T
    return fld.copy(values=out.reshape(fld.values.shape))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def lp_norm(fld, p, weights=None):
    """h-weighted (trapezoidal) L^p norm of the pointwise Frobenius magnitude; p = inf is C0."""
    chart = fld.chart
    mag = np.sqrt((fld.values.reshape(chart.npoints, -1) ** 2).sum(axis=1))
    if weights is not None:
        mag = mag * weights.ravel()
    if np.isinf(p):
        return float(mag.max())
    return float((chart.quad_weights.ravel() * mag ** p).sum() ** (1.0 / p))


def w1p_norm(fld, p):
    """W^{1,p} norm: L^p of the field plus L^p of its gradient."""
    return lp_norm(fld, p) + lp_norm(fld.copy(values=fld.chart.grad(fld.values)), p)


def norm_report(fld, p):
    """L^p (h-weighted Riemann sum), W^{1,p} and C^0 norms: the dict with keys
    ``p``, ``lp``, ``w1p`` and ``c0``.

    Pointwise magnitudes are Frobenius norms over components.  For p > n,
    Morrey's inequality bounds the C^{0,1-n/p} norm by the W^{1,p} norm, so
    no Hölder quotient is formed.
    """
    chart = fld.chart
    if not np.isinf(p) and p <= chart.n:
        raise ConfigurationError(f"exponent p must exceed n={chart.n} (or be inf), got {p}")
    return {"p": float(p), "lp": lp_norm(fld, p), "w1p": w1p_norm(fld, p), "c0": lp_norm(fld, np.inf)}
