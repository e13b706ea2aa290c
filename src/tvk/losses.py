"""Training losses with analytic gradients.

All losses are sums over valid pixels (not means); the trainer divides by
batch size. Subgradients of |.| and of the L2 norm at their kinks are
defined as 0, which keeps every gradient bounded. Reductions use plain
numpy sums so the summation order is fixed and training is reproducible.

``total_loss`` is the one entry point of training: a weighted sum of the
enabled terms and their gradients per prediction. The scale-invariant
gradient loss computes the normalized differences of
``scale_invariant_gradient`` once per component, on the overlap slices of
its axis, and its backward reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard for the scale-invariant gradient denominator; inverse depth 0
# (points at infinity) must not produce NaNs.
EPS_DENOM = 1e-9

DEFAULT_SPACINGS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class LossWeights:
    """One nonnegative factor per loss term; 0 disables a term."""

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
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be nonnegative")


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


def depth_loss(xi, s, xi_gt, mask=None) -> LossValue:
    """L1 on scaled inverse depth: sum |s*xi - xi_gt| over valid pixels."""
    xi = np.asarray(xi, dtype=np.float64)
    xi_gt = np.asarray(xi_gt, dtype=np.float64)
    if xi.shape != xi_gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    if not s > 0:
        raise ValueError("scale must be positive")
    m = _as_mask(mask, xi.shape)
    r = np.where(m, s * xi - xi_gt, 0.0)
    sign = np.sign(r)
    return LossValue(
        value=float(np.sum(np.abs(r))),
        grads={"xi": s * sign, "s": float(np.sum(xi * sign))},
    )


def l2_pointwise_loss(pred, gt, mask=None) -> LossValue:
    """Sum of (non-squared) per-pixel L2 norms of the residual vectors."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    m = _as_mask(mask, pred.shape[:2])
    r = np.where(m[..., None], pred - gt, 0.0)
    n = np.linalg.norm(r, axis=-1)
    safe = np.where(n > 0, n, 1.0)
    return LossValue(
        value=float(np.sum(n)),
        grads={"pred": r / safe[..., None]},
    )


def confidence_target(w, w_gt) -> np.ndarray:
    """Per-component matching confidence: exp(-|w - w_gt|), in (0, 1]."""
    w = np.asarray(w, dtype=np.float64)
    w_gt = np.asarray(w_gt, dtype=np.float64)
    if w.shape != w_gt.shape:
        raise ValueError("flow shapes differ")
    return np.exp(-np.abs(w - w_gt))


def confidence_loss(c, c_hat, mask=None) -> LossValue:
    """L1 between predicted and target confidence, both components."""
    c = np.asarray(c, dtype=np.float64)
    c_hat = np.asarray(c_hat, dtype=np.float64)
    if c.shape != c_hat.shape:
        raise ValueError("confidence shapes differ")
    m = _as_mask(mask, c.shape[:2])
    r = np.where(m[..., None], c - c_hat, 0.0)
    return LossValue(
        value=float(np.sum(np.abs(r))),
        grads={"c": np.sign(r)},
    )


def motion_loss(r, t, r_gt, t_gt) -> tuple[LossValue, LossValue]:
    """Rotation and translation L2 losses, reported separately.

    The ground-truth translation must be unit norm; the rotation target's
    magnitude encodes the rotation angle.
    """
    r = np.asarray(r, dtype=np.float64).reshape(3)
    t = np.asarray(t, dtype=np.float64).reshape(3)
    r_gt = np.asarray(r_gt, dtype=np.float64).reshape(3)
    t_gt = np.asarray(t_gt, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(t_gt) - 1.0) > 1e-6:
        raise ValueError("ground-truth translation must be unit norm")

    def l2(res, key):
        n = float(np.linalg.norm(res))
        g = res / n if n > 0 else np.zeros(3)
        return LossValue(value=n, grads={key: g})

    return l2(r - r_gt, "r"), l2(t - t_gt, "t")


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


def scale_invariant_gradient(f, h: int) -> np.ndarray:
    """Normalized discrete gradient with spacing h, shape (..., H, W, 2).

    Component x compares columns j and j+h, component y rows i and i+h.
    Out-of-range neighbors and near-zero denominators give 0. Invariant
    to positive rescaling of f by construction. Leading batch dimensions
    are carried through.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim < 2:
        raise ValueError("expected at least a 2D grid")
    H, W = f.shape[-2:]
    if not (1 <= h < max(H, W)):
        raise ValueError(f"spacing {h} invalid for grid {H}x{W}")
    g = np.zeros(f.shape + (2,))
    af = np.abs(f)
    for axis, comp in ((1, 0), (0, 1)):
        if h >= f.shape[-2 + axis]:
            continue  # that component stays 0 everywhere
        head, _ = _shift_slices(axis, h)
        g[head + (comp,)] = _normalized_diff(f, af, axis, h)[0]
    return g


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
    constant, so no gradient flows into the flow through it.
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

    def add(term: LossValue, factor: float, mapping: dict[str, str]):
        nonlocal total
        total += factor * term.value
        for src, dst in mapping.items():
            g = term.grads[src]
            if dst in grads:
                grads[dst] = grads[dst] + factor * np.asarray(g)
            else:
                grads[dst] = factor * np.asarray(g)

    if w.depth > 0:
        add(depth_loss(pred["xi"], pred["s"], gt["xi"], vd), w.depth,
            {"xi": "xi", "s": "s"})
    if w.normal > 0:
        add(l2_pointwise_loss(pred["normals"], gt["normals"], vd), w.normal,
            {"pred": "normals"})
    if w.flow > 0:
        add(l2_pointwise_loss(pred["flow"], gt["flow"], vf), w.flow,
            {"pred": "flow"})
    if w.flow_confidence > 0:
        c_hat = confidence_target(pred["flow"], gt["flow"])
        add(confidence_loss(pred["flow_confidence"], c_hat, vf),
            w.flow_confidence, {"c": "flow_confidence"})
    if w.rotation > 0 or w.translation > 0:
        rot, tr = motion_loss(pred["r"], pred["t"], gt["r"], gt["t"])
        if w.rotation > 0:
            add(rot, w.rotation, {"r": "r"})
        if w.translation > 0:
            add(tr, w.translation, {"t": "t"})
    if w.grad_depth > 0:
        add(grad_loss(pred["xi"], gt["xi"], spacings, vd), w.grad_depth,
            {"f": "xi"})
    if w.grad_flow > 0:
        for comp in range(2):
            term = grad_loss(pred["flow"][..., comp], gt["flow"][..., comp],
                             spacings, vf)
            g = np.zeros_like(np.asarray(pred["flow"], dtype=np.float64))
            g[..., comp] = term.grads["f"]
            add(LossValue(term.value, {"flow": g}), w.grad_flow,
                {"flow": "flow"})
    return LossValue(value=total, grads=grads)
