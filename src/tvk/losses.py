"""Training losses with analytic gradients.

The paper's eight loss terms are one call each to one of three kernels:

* ``l1_loss``: scaled inverse depth (``|s*xi - xi_gt|``) and flow
  confidence (against ``confidence_target``);
* ``l2_loss``, a sum of per-pixel (non-squared) L2 norms: normals, flow
  (the endpoint error), rotation and translation (one 3-vector each);
* ``grad_loss``, the scale-invariant gradient loss: depth (on ``xi``) and
  flow (both components in one call).

All losses are sums over valid pixels (not means); the trainer divides by
batch size. Subgradients of |.| and of the L2 norm at their kinks are
defined as 0, which keeps every gradient bounded. Reductions use plain
numpy sums so the summation order is fixed and training is reproducible.

``total_loss`` is the one entry point of training: a weighted sum of the
enabled terms and their gradients per prediction. ``grad_loss`` computes
the normalized differences once per component, on the overlap slices of
its axis, and its backward reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import last_axis_norm

# Guard for the scale-invariant gradient denominator; inverse depth 0
# (points at infinity) must not produce NaNs.
EPS_DENOM = 1e-9

DEFAULT_SPACINGS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class LossWeights:
    """One finite nonnegative factor per loss term; 0 disables a term."""

    depth: float = 1.0
    normal: float = 1.0
    flow: float = 1.0
    flow_confidence: float = 1.0
    rotation: float = 1.0
    translation: float = 1.0
    grad_depth: float = 1.0
    grad_flow: float = 1.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"loss weight {name}={getattr(self, name)} "
                                 "is not finite and nonnegative")


@dataclass
class LossValue:
    value: float
    grads: dict[str, np.ndarray]


def _as_mask(mask, shape):
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} does not match {shape}")
    return mask


def _residual(f, f_gt, mask):
    """f - f_gt in float64, 0 where ``mask`` (over the first two axes) is
    off."""
    f = np.asarray(f, dtype=np.float64)
    f_gt = np.asarray(f_gt, dtype=np.float64)
    if f.shape != f_gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    m = _as_mask(mask, f.shape[:2])
    return np.where(m.reshape(m.shape + (1,) * (f.ndim - 2)), f - f_gt, 0.0)


def l1_loss(f, f_gt, mask=None) -> LossValue:
    """Sum of |f - f_gt| over valid pixels and all their components."""
    r = _residual(f, f_gt, mask)
    return LossValue(value=float(np.sum(np.abs(r))), grads={"f": np.sign(r)})


def l2_loss(f, f_gt, mask=None) -> LossValue:
    """Sum of the L2 norms of f - f_gt along the last axis over valid
    pixels; a 1-D f is one vector."""
    r = _residual(f, f_gt, mask)
    n = last_axis_norm(r)
    safe = np.where(n > 0, n, 1.0)
    return LossValue(value=float(np.sum(n)), grads={"f": r / safe[..., None]})


def confidence_target(w, w_gt) -> np.ndarray:
    """Per-component matching confidence: exp(-|w - w_gt|), in (0, 1]."""
    return np.exp(-np.abs(_residual(w, w_gt, None)))


def _shift_slices(axis: int, h: int):
    """(head, tail) slice pairs along the last two axes; axis 1 = columns."""
    if axis == 1:
        return (Ellipsis, slice(None), slice(None, -h)), \
            (Ellipsis, slice(None), slice(h, None))
    return (Ellipsis, slice(None, -h), slice(None)), \
        (Ellipsis, slice(h, None), slice(None))


def _normalized_diff(f, af, axis: int, h: int):
    """(b - a) / (|a| + |b|) over the pairs (a, b) of f that lie h apart
    along ``axis`` (1 = columns), at the head positions ``_shift_slices``
    gives; ``af`` is |f|. Returns the quotient (0 where the denominator is
    below EPS_DENOM), that validity mask and the safe denominator."""
    head, tail = _shift_slices(axis, h)
    denom = af[head] + af[tail]
    ok = denom >= EPS_DENOM
    d = np.where(ok, denom, 1.0)
    return np.where(ok, (f[tail] - f[head]) / d, 0.0), ok, d


def grad_loss(f, f_gt, spacings=DEFAULT_SPACINGS, mask=None) -> LossValue:
    """Scale-invariant gradient loss over several spacings.

    Penalizes differences of the normalized gradients of prediction and
    ground truth, which targets relative errors between nearby pixels.
    Spacings that do not fit the grid are dropped; an empty effective
    spacing set is an error. Leading batch dimensions are summed over
    like pixels. Each component works on the overlap slices of its axis;
    |f|, sign(f) and |f_gt| are computed once per call.
    """
    f = np.asarray(f, dtype=np.float64)
    f_gt = np.asarray(f_gt, dtype=np.float64)
    if f.shape != f_gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    H, W = f.shape[-2:]
    m = _as_mask(mask, f.shape)
    usable = [h for h in spacings if 1 <= h < max(H, W)]
    if not usable:
        raise ValueError(f"no usable spacings for grid {H}x{W} from {spacings}")

    af, sf, agt = np.abs(f), np.sign(f), np.abs(f_gt)
    total = 0.0
    df = np.zeros_like(f)
    for h in usable:
        parts = []
        sq = np.zeros(f.shape)  # squared norm of the residual pair per pixel
        for axis in (1, 0):  # component x, then y
            if h >= f.shape[-2 + axis]:
                continue
            head, tail = _shift_slices(axis, h)
            q, ok, d = _normalized_diff(f, af, axis, h)
            pair = m[head] & m[tail]  # both ends of the pair valid
            r = np.where(pair, q - _normalized_diff(f_gt, agt, axis, h)[0], 0.0)
            sq[head] += r * r
            parts.append((head, tail, q, pair & ok, d, r))
        n = np.sqrt(sq)
        total += float(np.sum(n))
        n_safe = np.where(n > 0, n, 1.0)

        # back-propagate through q = (b - a) / (|a| + |b|) per component
        for head, tail, q, ok, d, r in parts:
            u = r / n_safe[head]
            dqdb = np.where(ok, (1.0 - q * sf[tail]) / d, 0.0)
            dqda = np.where(ok, (-1.0 - q * sf[head]) / d, 0.0)
            df[tail] += u * dqdb
            df[head] += u * dqda
    return LossValue(value=total, grads={"f": df})


def total_loss(pred: dict, gt: dict, weights: LossWeights,
               spacings=DEFAULT_SPACINGS) -> LossValue:
    """Weighted sum of all enabled terms.

    ``pred`` carries xi, s, normals (H,W,3), flow (H,W,2),
    flow_confidence (H,W,2), r, t. ``gt`` carries xi, normals, flow, r, t
    and optional masks ``valid_depth`` / ``valid_flow``. The confidence
    target is derived from the current flow prediction and treated as a
    constant, so no gradient flows into the flow through it. The
    ground-truth translation must be unit norm; the rotation target's
    magnitude encodes the rotation angle.
    A term with weight 0 is skipped entirely; all-zero weights are an
    error.
    """
    w = weights
    if all(getattr(w, k) == 0.0 for k in w.__dataclass_fields__):
        raise ValueError("all loss terms are disabled")

    vd = gt.get("valid_depth")
    vf = gt.get("valid_flow")
    total = 0.0
    grads: dict[str, np.ndarray] = {}

    def add(factor: float, value: float, **term_grads):
        nonlocal total
        total += factor * value
        for key, g in term_grads.items():
            g = factor * np.asarray(g)
            grads[key] = grads[key] + g if key in grads else g

    if w.depth > 0:
        s = pred["s"]
        if not s > 0:
            raise ValueError("scale must be positive")
        xi = np.asarray(pred["xi"], dtype=np.float64)
        term = l1_loss(s * xi, gt["xi"], vd)
        sign = term.grads["f"]
        add(w.depth, term.value, xi=s * sign, s=float(np.sum(xi * sign)))
    if w.normal > 0:
        term = l2_loss(pred["normals"], gt["normals"], vd)
        add(w.normal, term.value, normals=term.grads["f"])
    if w.flow > 0:
        term = l2_loss(pred["flow"], gt["flow"], vf)
        add(w.flow, term.value, flow=term.grads["f"])
    if w.flow_confidence > 0:
        c_hat = confidence_target(pred["flow"], gt["flow"])
        term = l1_loss(pred["flow_confidence"], c_hat, vf)
        add(w.flow_confidence, term.value, flow_confidence=term.grads["f"])
    if w.rotation > 0 or w.translation > 0:
        if abs(np.linalg.norm(np.reshape(gt["t"], 3)) - 1.0) > 1e-6:
            raise ValueError("ground-truth translation must be unit norm")
    for key, factor in (("r", w.rotation), ("t", w.translation)):
        if factor > 0:
            term = l2_loss(np.reshape(pred[key], 3), np.reshape(gt[key], 3))
            add(factor, term.value, **{key: term.grads["f"]})
    if w.grad_depth > 0:
        term = grad_loss(pred["xi"], gt["xi"], spacings, vd)
        add(w.grad_depth, term.value, xi=term.grads["f"])
    if w.grad_flow > 0:
        # both components in one call, on a leading axis grad_loss sums over
        mask = None if vf is None else np.broadcast_to(vf, (2,) + np.shape(vf))
        term = grad_loss(np.moveaxis(pred["flow"], -1, 0),
                         np.moveaxis(gt["flow"], -1, 0), spacings, mask)
        add(w.grad_flow, term.value, flow=np.moveaxis(term.grads["f"], 0, -1))
    return LossValue(value=total, grads=grads)
