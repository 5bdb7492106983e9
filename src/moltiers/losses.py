"""Contrastive / distillation loss kernels with analytic gradients, plus the
embedding-distance correlation analysis.

All kernels operate on dense float64 row-major matrices and never normalize
inputs themselves; callers own normalization.  Pass ``check_normalized=True``
to assert unit rows (debug mode; finite-difference probes perturb rows off
the sphere, so checks stay off by default).  Inputs are never written: a
float64 input is used as given, and every in-place step works on an array
that the kernel, or a kernel it calls, allocated, or on the calling thread's
workspace.  ``nt_xent`` and ``siglip_loss`` take one exponential per pair
and build no label or mask matrix.

``nt_xent`` and ``siglip_loss`` (and so ``hybrid_loss``) take their rows in
blocks of at most ``ROW_BLOCK``: each block's softmax or sigmoid terms are
computed in full, and the loss sums, the scale and bias gradients and the
transposed gradient products are summed block by block.  A batch of at most
``ROW_BLOCK`` rows is one block and runs the unblocked operations in their
order.  The workspace holds a block's four float64 matrices, each
min(n, ROW_BLOCK) x n: 4 * min(n, ROW_BLOCK) * n * 8 bytes per thread at the
last n (2 MB at n = 256, 256 MB at n = 16,384), kept while n stays the same
and replaced when it changes, so a training loop at a fixed batch size
allocates no pair matrix after its first step.  Returned arrays are always
fresh, never views of the workspace, and no kernel holds a workspace matrix
across a call to another kernel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, NotNormalized, ShapeMismatch


@dataclass(frozen=True)
class LossParams:
    bias: float = 0.0
    scale: float = 1.0
    alpha: float = 10.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        # `not value >= 0` rejects NaN, which every comparison fails
        if not self.alpha >= 0 or not self.beta >= 0:
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True)
class LinearMap:
    """Dense affine map x -> x @ weight.T + bias."""

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray    # (d_out,)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T + self.bias


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    return m / norms


def _as_matrix(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be a non-empty 2-D matrix")
    return m


# rows of the pair matrices per block: bounds the workspace to
# 4 * ROW_BLOCK * n float64 (64 MB at n = 4,096) where the whole matrices
# would take 4 * n^2
ROW_BLOCK = 512

# index pairs per block of pairwise_distance_correlation: bounds its gathered
# rows and their differences to PAIR_BLOCK x d float64 (512 KB at d = 128)
# whatever n_pairs is
PAIR_BLOCK = 512

_local = threading.local()


def _workspace(n: int) -> np.ndarray:
    """This thread's four min(n, ROW_BLOCK) x n float64 scratch matrices,
    as one array, kept while n stays the same."""
    shape = (4, min(n, ROW_BLOCK), n)
    work = getattr(_local, "work", None)
    if work is None or work.shape != shape:
        _local.work = None  # free the old matrices before the new ones
        work = _local.work = np.empty(shape)
    return work


def _blocks(n: int):
    """(start, stop, diagonal row indices, diagonal column indices) of each
    block of at most ROW_BLOCK rows."""
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        rows = np.arange(stop - start)
        yield start, stop, rows, rows + start


def _require_normalized(m: np.ndarray, name: str) -> None:
    norms = np.linalg.norm(m, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise NotNormalized(f"{name} rows are not unit-norm")


@dataclass(frozen=True)
class NtXentResult:
    loss: float
    grad_v1: np.ndarray
    grad_v2: np.ndarray


def nt_xent(
    v1,
    v2,
    temperature: float = 0.07,
    include_positive_in_denominator: bool = False,
    check_normalized: bool = False,
) -> NtXentResult:
    """Temperature-scaled contrastive loss between two view batches.

    The positive term exp(v1_i . v2_i / t) is divided by the sum over the
    *other* rows only, so the loss can go negative; set
    ``include_positive_in_denominator=True`` for the conventional variant.
    """
    if not temperature > 0:  # NaN fails this test too
        raise ValueError(f"temperature must be positive, got {temperature!r}")
    v1 = _as_matrix(v1, "v1")
    v2 = _as_matrix(v2, "v2")
    if v1.shape != v2.shape:
        raise ShapeMismatch(f"shape mismatch {v1.shape} vs {v2.shape}")
    n = v1.shape[0]
    if n < 2:
        raise ShapeMismatch("need at least two rows")
    if check_normalized:
        _require_normalized(v1, "v1")
        _require_normalized(v2, "v2")
    work = _workspace(n)[0]
    grad_v1 = np.empty(v1.shape)
    for start, stop, rows, cols in _blocks(n):
        block = v1[start:stop]
        sim = np.matmul(block, v2.T, out=work[:stop - start])
        sim /= temperature
        positive = sim[rows, cols]
        if not include_positive_in_denominator:
            sim[rows, cols] = -np.inf
        # sim becomes the masked softmax, then the gradient w.r.t. the
        # scaled similarities; an excluded diagonal is exp(-inf) = 0 before
        # the -1
        row_max = sim.max(axis=1, keepdims=True)
        sim -= row_max
        np.exp(sim, out=sim)
        denom = sim.sum(axis=1)
        part = float(np.sum(row_max[:, 0] + np.log(denom) - positive))
        sim /= denom[:, None]
        sim[rows, cols] -= 1.0
        sim /= temperature
        np.matmul(sim, v2, out=grad_v1[start:stop])
        # the first block assigns: 0.0 + -0.0 would turn a -0.0 into +0.0
        if start == 0:
            loss, grad_v2 = part, sim.T @ block
        else:
            loss += part
            grad_v2 += sim.T @ block
    return NtXentResult(loss, grad_v1, grad_v2)


@dataclass(frozen=True)
class SiglipResult:
    loss: float
    grad_v: np.ndarray
    grad_t: np.ndarray
    grad_scale: float
    grad_bias: float


def siglip_loss(
    v,
    t,
    scale: float = 1.0,
    bias: float = 0.0,
    signed_bias: bool = True,
    check_normalized: bool = False,
) -> SiglipResult:
    """Pairwise sigmoid contrastive loss with signed labels.

    Labels are +1 on the diagonal and -1 elsewhere; each pair contributes
    -log sigmoid(label * (scale * v_i.t_j) + label * bias) / N^2.  With
    ``signed_bias=False`` the bias is added unsigned.
    """
    v = _as_matrix(v, "v")
    t = _as_matrix(t, "t")
    if v.shape != t.shape:
        raise ShapeMismatch(f"shape mismatch {v.shape} vs {t.shape}")
    if check_normalized:
        _require_normalized(v, "v")
        _require_normalized(t, "t")
    n = v.shape[0]
    work = _workspace(n)
    inv_n2 = 1.0 / (n * n)
    grad_v = np.empty(v.shape)
    for start, stop, rows, cols in _blocks(n):
        block = v[start:stop]
        sim, m, scratch, q = work[:, :stop - start]
        np.matmul(block, t.T, out=sim)
        # m = -z: the label is +1 on the diagonal and -1 elsewhere
        np.multiply(scale, sim, out=m)
        if signed_bias:
            m += bias
        m[rows, cols] = -m[rows, cols]
        if not signed_bias:
            m -= bias
        np.maximum(m, 0.0, out=scratch)
        # m is not read again: it becomes e = exp(-|m|) in place
        e = np.abs(m, out=m)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.log1p(e, out=q)
        q += scratch  # softplus(m) = log1p(e) + max(m, 0)
        loss_sum = np.sum(q)

        # q = sigmoid(m) / N^2 = -dloss/dz; with its diagonal negated it is
        # labels * dloss/dz, i.e. dloss/d(scale * sim).  Its numerator is
        # where(m >= 0, 1, e): sign(max(m, 0)) is 1 where m > 0, 0 where
        # m <= 0 and NaN where m is, and e lies in [0, 1] with e = 1 at m = 0
        np.sign(scratch, out=q)
        np.maximum(e, q, out=q)
        e += 1.0
        q /= e
        q *= inv_n2
        if not signed_bias:
            bias_sum = np.sum(q)
        q[rows, cols] = -q[rows, cols]
        if signed_bias:
            bias_sum = np.sum(q)
        scale_sum = np.sum(np.multiply(q, sim, out=scratch))
        q *= scale
        np.matmul(q, t, out=grad_v[start:stop])
        part = np.array([loss_sum, bias_sum, scale_sum])
        # the first block assigns: 0.0 + -0.0 would turn a -0.0 into +0.0
        if start == 0:
            sums, grad_t = part, q.T @ block
        else:
            sums += part
            grad_t += q.T @ block
    loss_sum, bias_sum, scale_sum = sums
    grad_bias = float(bias_sum) if signed_bias else -float(bias_sum)
    return SiglipResult(float(loss_sum * inv_n2), grad_v, grad_t,
                        float(scale_sum), grad_bias)


@dataclass(frozen=True)
class HybridResult:
    loss: float
    siglip_term: float
    align_term: float
    target_term: float
    grad_v: np.ndarray
    grad_proj_weight: np.ndarray
    grad_proj_bias: np.ndarray
    grad_head_weight: np.ndarray
    grad_head_bias: np.ndarray


def hybrid_loss(
    v,
    g,
    proj: LinearMap,
    head: LinearMap,
    y,
    params: LossParams = LossParams(),
    check_normalized: bool = False,
) -> HybridResult:
    """Contrastive alignment to projected teacher rows plus two anchors.

    loss = siglip(v, normalize(proj(g))) + alpha * sum ||proj(g_i) - v_i||^2
           + beta * sum (head(v_i) - y_i)^2
    """
    v = _as_matrix(v, "v")
    g = _as_matrix(g, "g")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, d = v.shape
    if g.shape[0] != n:
        raise ShapeMismatch("teacher batch size differs from student")
    if y.shape[0] != n:
        raise ShapeMismatch("target length differs from batch size")
    if proj.weight.shape != (d, g.shape[1]) or proj.bias.shape != (d,):
        raise ShapeMismatch("projection map has wrong shape")
    if head.weight.shape != (1, d) or head.bias.shape != (1,):
        raise ShapeMismatch("head map has wrong shape")
    if check_normalized:
        _require_normalized(v, "v")

    u = g @ proj.weight.T                # (n, d) unnormalised teacher rows,
    u += proj.bias                       # proj(g) without a second array
    # the row norms as np.linalg.norm takes them; its u * u is kept as the
    # n x d scratch of the steps below
    work = u * u
    norms = np.sqrt(work.sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise ValueError("projected teacher row has zero norm")
    t = u / norms

    sig = siglip_loss(v, t, params.scale, params.bias)
    diff = u  # u becomes u - v in place
    diff -= v
    align = float(np.sum(np.multiply(diff, diff, out=work)))
    pred = (v @ head.weight.T + head.bias)[:, 0]
    resid = pred - y
    target = float(np.sum(resid * resid))
    loss = sig.loss + params.alpha * align + params.beta * target

    # diff becomes 2 * alpha * diff, the alignment gradient w.r.t. u
    diff *= 2.0 * params.alpha

    # chain the siglip gradient through row normalization of u; t is not
    # read again, so it takes t * dots in place and is dropped
    gu = sig.grad_t
    dots = np.multiply(gu, t, out=work).sum(axis=1, keepdims=True)
    gu -= np.multiply(t, dots, out=t)
    del t
    gu /= norms
    gu += diff
    grad_proj_w = gu.T @ g
    grad_proj_b = gu.sum(axis=0)

    # alignment and head terms on the fresh siglip gradient
    grad_v = sig.grad_v
    grad_v -= diff
    grad_v += np.multiply(2.0 * params.beta * resid[:, None], head.weight,
                          out=work)
    grad_head_w = (2.0 * params.beta * resid @ v).reshape(1, d)
    grad_head_b = np.array([2.0 * params.beta * float(resid.sum())])
    return HybridResult(
        loss, sig.loss, align, target,
        grad_v, grad_proj_w, grad_proj_b, grad_head_w, grad_head_b,
    )


def rank_average(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    # a run of ties starts where a sorted value differs from the one before
    # it: each NaN starts its own run, and -0.0 ties with 0.0
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    ends = np.append(starts[1:], len(values)) - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateVariance("constant input to correlation")
    return float(np.dot(xc, yc) / (sx * sy))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    return pearson(rank_average(x), rank_average(y))


def _pair_distances(m: np.ndarray, left: np.ndarray,
                    right: np.ndarray) -> np.ndarray:
    """||m[left[k]] - m[right[k]]|| for each k, PAIR_BLOCK pairs at a time;
    each row's norm is taken on its own, so the blocks give the bits of
    one call over all pairs."""
    out = np.empty(len(left))
    for start in range(0, len(left), PAIR_BLOCK):
        pick = slice(start, start + PAIR_BLOCK)
        out[pick] = np.linalg.norm(m[left[pick]] - m[right[pick]], axis=1)
    return out


def pairwise_distance_correlation(
    a, b, n_pairs: int, seed: int = 0
) -> tuple[float, float]:
    """(Spearman rho, Pearson r) between matched pairwise distances.

    Samples ``n_pairs`` random index pairs (i != j) with a seeded generator,
    measures Euclidean distances in each embedding space, and correlates the
    two distance samples.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch("row counts differ")
    if a.shape[0] < 2:
        raise ShapeMismatch("need at least two rows")
    if n_pairs < 2:
        raise ValueError("n_pairs must be >= 2")
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    left = rng.integers(0, n, size=n_pairs)
    right = rng.integers(0, n, size=n_pairs)
    clash = left == right
    while np.any(clash):
        right[clash] = rng.integers(0, n, size=int(clash.sum()))
        clash = left == right
    da = _pair_distances(a, left, right)
    db = _pair_distances(b, left, right)
    if np.ptp(da) == 0.0 or np.ptp(db) == 0.0:
        raise DegenerateVariance("all sampled distances are equal")
    return spearman(da, db), pearson(da, db)


def load_embeddings(path) -> np.ndarray:
    """Read a matrix from .npy or from text with an ``N d`` header line."""
    path = str(path)
    if path.endswith(".npy"):
        m = np.load(path)
        return _as_matrix(m, path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().replace(",", " ").split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'N d' header line")
        n, d = int(header[0]), int(header[1])
        data = np.loadtxt(fh, delimiter=None, ndmin=2)
    if data.shape != (n, d):
        raise ShapeMismatch(f"{path}: header says {(n, d)}, data is {data.shape}")
    return data

