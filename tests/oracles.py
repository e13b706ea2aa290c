"""Independent reference implementations used only by the test suite.

Everything here is written against the mathematical definitions, not
against the package internals, so the main code paths are checked by a
second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tvk.autodiff import Tensor, _conv, _pad4, backward
from tvk.baseline import (EstimationError, RefineResult, _ba_residuals,
                          _front_depths)
from tvk.geometry import (CameraMotion, angle_axis_from_rotation,
                          rotation_from_angle_axis, warp_batch)
from tvk.synthdata import RAY_EPS, _KINDS

LEAKY_SLOPE = 0.1  # the network's leaky ReLU slope, from the paper


def quat_from_angle_axis(r):
    """Unit quaternion (w, x, y, z) for an angle-axis vector."""
    r = np.asarray(r, dtype=np.float64)
    theta = np.linalg.norm(r)
    if theta < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = r / theta
    return np.concatenate([[np.cos(theta / 2)], np.sin(theta / 2) * axis])


def rotation_from_quat(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotation_oracle(r):
    """Rotation matrix via quaternions (independent of Rodrigues)."""
    return rotation_from_quat(quat_from_angle_axis(r))


def inverse_motion(r, t):
    """(r, t) of the motion that undoes x -> R(r) x + t."""
    r = np.asarray(r, dtype=np.float64)
    return -r, -rotation_oracle(r).T @ np.asarray(t, dtype=np.float64)


def project_point(p, K):
    """Scalar pinhole projection of one 3D point to normalized (u, v)."""
    return (K.fx * p[0] / p[2] + K.cx, K.fy * p[1] / p[2] + K.cy)


def unproject_pixel(row, col, z, K):
    """Scalar unprojection of a pixel center at metric depth z."""
    u = (col + 0.5) / K.width
    v = (row + 0.5) / K.height
    return np.array([(u - K.cx) / K.fx * z, (v - K.cy) / K.fy * z, z])


def flow_at_pixel(row, col, z, R, t, K):
    """Scalar depth+motion -> flow for one pixel (independent path)."""
    p1 = unproject_pixel(row, col, z, K)
    p2 = R @ p1 + t
    u1 = (col + 0.5) / K.width
    v1 = (row + 0.5) / K.height
    u2, v2 = project_point(p2, K)
    return np.array([u2 - u1, v2 - v1])


def triangulate_lstsq(d1, d2, R, t):
    """Per-pair midpoint triangulation by ``np.linalg.lstsq``.

    Rays: s * d1 from the first camera center (the origin) and c + q * R^T d2
    from the second (c = -R^T t), in first-camera coordinates. The 3x2
    system s * d1 - q * R^T d2 = c is solved in the least-squares sense and
    the midpoint of the two closest points is returned, shape (n, 3).
    """
    c = -R.T @ t
    out = np.empty((len(d1), 3))
    for k in range(len(d1)):
        e2 = R.T @ d2[k]
        (s, q), *_ = np.linalg.lstsq(np.stack([d1[k], -e2], axis=1), c,
                                     rcond=None)
        out[k] = 0.5 * (s * d1[k] + c + q * e2)
    return out


def bilinear_sample_scalar(img, x, y):
    """Naive per-pixel bilinear sample; None when outside the support."""
    H, W = img.shape[:2]
    if x < 0 or x > W - 1 or y < 0 or y > H - 1:
        return None
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, W - 1), min(y0 + 1, H - 1)
    ax, ay = x - x0, y - y0
    return ((img[y0, x0] * (1 - ax) + img[y0, x1] * ax) * (1 - ay)
            + (img[y1, x0] * (1 - ax) + img[y1, x1] * ax) * ay)


def photoconsistency(pair) -> float:
    """Mean absolute color difference between a ``SamplePair``'s img1 and
    its img2 warped by its flow, over the pixels with valid flow whose
    sample lies inside img2 (inf if there are none): a renderer check, low
    when the rendered images and flow agree."""
    warped, inside = warp_batch(
        pair.img2.astype(np.float64).transpose(2, 0, 1)[None],
        pair.flow.astype(np.float64).transpose(2, 0, 1)[None])
    valid = pair.valid_flow.astype(bool) & inside[0]
    if not valid.any():
        return float("inf")
    diff = np.abs(pair.img1.astype(np.float64) - warped[0].transpose(1, 2, 0))
    return float(diff[valid].mean())


def cast_every_ray(origin, dirs, scene):
    """Nearest hit of each ray of ``dirs`` (..., 3), with no culling: every
    ``_KINDS`` intersector runs on every ray, in primitive order, then the
    background; a later primitive takes a ray only at a strictly smaller
    distance. Returns (s, index, points) as ``synthdata._cast`` does."""
    best = np.full(dirs.shape[:-1], np.inf)
    best_idx = np.full(dirs.shape[:-1], -1, dtype=np.int64)
    for k, prim in enumerate([*scene.primitives, scene.background]):
        s = _KINDS[prim.kind][0](origin, dirs, prim)
        closer = s < best
        best = np.where(closer, s, best)
        best_idx[closer] = k
    p = origin + dirs * np.where(np.isfinite(best), best, 0.0)[..., None]
    return best, best_idx, p


def intersect_box_reduce(o, d, prim):
    """Ray distances to a box by the slab test, the three slabs' overlap
    taken by ``max`` / ``min`` reductions over the last axis."""
    R = rotation_from_angle_axis(prim.rotation)
    ol = (o - prim.center) @ R
    dl = d @ R
    safe = np.where(np.abs(dl) > 1e-12, dl, np.where(dl >= 0, 1e-12, -1e-12))
    inv = 1.0 / safe
    t1 = (-prim.size - ol) * inv
    t2 = (prim.size - ol) * inv
    tmin = np.minimum(t1, t2).max(axis=-1)
    tmax = np.maximum(t1, t2).min(axis=-1)
    return np.where((tmax >= tmin) & (tmin > RAY_EPS), tmin, np.inf)


def box_normal_argmax(p, prim):
    """Outward normal of the box face a surface point lies on: the local
    axis of largest |local| / size, the first one on ties (``np.argmax``),
    signed by the local coordinate."""
    R = rotation_from_angle_axis(prim.rotation)
    local = (p - prim.center) @ R
    axis = np.argmax(np.abs(local) / prim.size, axis=-1)
    sign = np.take_along_axis(local, axis[..., None], axis=-1)[..., 0]
    n_local = np.zeros(p.shape)
    np.put_along_axis(n_local, axis[..., None],
                      np.where(sign >= 0, 1.0, -1.0)[..., None], axis=-1)
    return n_local @ R.T


_U64 = (1 << 64) - 1


def _splitmix64_unit(ix, iy, iz, seed):
    """Lattice hash of the value noise, in [0, 1): each integer coordinate
    times its odd constant, the three XORed, plus the seed, then the
    splitmix64 finalizer; Python ints masked to 64 bits throughout."""
    h = ((ix * 0x9E3779B185EBCA87) ^ (iy * 0xC2B2AE3D27D4EB4F)
         ^ (iz * 0x165667B19E3779F9)) & _U64
    h = (h + seed) & _U64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _U64
    h ^= h >> 31
    return (h >> 11) / (1 << 53)


def texture_reference(point, prim, octaves: int) -> np.ndarray:
    """Color of one surface point of a ``Primitive``, one scalar at a time.

    The point goes to the texture frame ``(point - center) * tex_scale``.
    Octave o (amplitude 2**-o) samples trilinear value noise at that point
    times 2**o with hash seed ``tex_seed + o``: the 8 lattice corners' hashes
    weighted by the smoothstep-faded fractional part. The amplitude-weighted
    mean t of the octaves blends ``color_a + (color_b - color_a) * t``,
    clipped to [0, 1]."""
    q = [(float(point[a]) - float(prim.center[a])) * float(prim.tex_scale)
         for a in range(3)]
    acc = total = 0.0
    amp = 1.0
    for o in range(octaves):
        x = [c * 2.0 ** o for c in q]
        i = [math.floor(c) for c in x]
        f = [c - n for c, n in zip(x, i)]
        f = [c * c * (3.0 - 2.0 * c) for c in f]
        noise = 0.0
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    weight = ((f[0] if dx else 1 - f[0])
                              * (f[1] if dy else 1 - f[1])
                              * (f[2] if dz else 1 - f[2]))
                    noise += weight * _splitmix64_unit(
                        i[0] + dx, i[1] + dy, i[2] + dz, prim.tex_seed + o)
        acc += amp * noise
        total += amp
        amp *= 0.5
    t = acc / total
    return np.array([min(max(a + (b - a) * t, 0.0), 1.0)
                     for a, b in zip(prim.color_a, prim.color_b)])


@dataclass
class NormalMap:
    """Per-pixel unit surface normals in camera coordinates, shape (H, W, 3)."""

    n: np.ndarray

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=np.float64)
        if self.n.ndim != 3 or self.n.shape[2] != 3:
            raise ValueError("normals must have shape (H, W, 3)")


def normals_from_depth(depth, K) -> NormalMap:
    """Surface normals from central differences of unprojected points.

    ``depth`` is a ``geometry.InverseDepthMap``. Border pixels use
    one-sided differences; pixels at infinity or with degenerate
    neighborhoods get the camera-facing default (0, 0, -1). Checks the
    renderer's analytic normals by a second route.
    """
    xi = depth.xi
    if xi.shape != (K.height, K.width):
        raise ValueError("depth resolution does not match intrinsics")
    u = (np.arange(K.width) + 0.5) / K.width
    v = (np.arange(K.height) + 0.5) / K.height
    rays = np.stack(np.broadcast_arrays((u[None, :] - K.cx) / K.fx,
                                        (v[:, None] - K.cy) / K.fy, 1.0),
                    axis=-1)
    finite = xi > 0
    with np.errstate(divide="ignore"):
        z = np.where(finite, 1.0 / np.where(finite, xi, 1.0), 0.0)
    P = rays * z[..., None]

    def diff(axis: int) -> tuple[np.ndarray, np.ndarray]:
        fwd = np.roll(P, -1, axis=axis)
        bwd = np.roll(P, 1, axis=axis)
        fok = np.roll(finite, -1, axis=axis)
        bok = np.roll(finite, 1, axis=axis)
        if axis == 0:
            fok[-1, :] = False
            bok[0, :] = False
        else:
            fok[:, -1] = False
            bok[:, 0] = False
        both = fok & bok
        d = np.zeros_like(P)
        d[both] = fwd[both] - bwd[both]
        one_f = fok & ~bok
        d[one_f] = fwd[one_f] - P[one_f]
        one_b = bok & ~fok
        d[one_b] = P[one_b] - bwd[one_b]
        return d, (fok | bok)

    tx, okx = diff(axis=1)
    ty, oky = diff(axis=0)
    n = np.cross(tx, ty)
    norm = np.linalg.norm(n, axis=-1)
    good = finite & okx & oky & (norm > 1e-15)
    n = np.where(good[..., None], n / np.where(good, norm, 1.0)[..., None], 0.0)
    # orient toward the camera: n . ray < 0
    flip = np.einsum("hwk,hwk->hw", n, rays) > 0
    n[flip] = -n[flip]
    n[~good] = (0.0, 0.0, -1.0)
    return NormalMap(n)


def central_difference(f, x, step=1e-5):
    """Central finite-difference gradient of scalar f at flat vector x."""
    x = np.asarray(x, dtype=np.float64).ravel()
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
    return g


def rel_error(a, b, floor=1e-8):
    """Max relative difference with an absolute floor for tiny entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# --- brute-force evaluation metrics -------------------------------------

def sc_inv_bruteforce(z, z_gt, mask):
    ds = [np.log(z[i, j]) - np.log(z_gt[i, j])
          for i in range(z.shape[0]) for j in range(z.shape[1]) if mask[i, j]]
    n = len(ds)
    s1 = sum(ds)
    s2 = sum(d * d for d in ds)
    val = s2 / n - (s1 / n) ** 2
    return float(np.sqrt(max(val, 0.0)))


def l1_rel_bruteforce(z, z_gt, mask):
    vals = [abs(z[i, j] - z_gt[i, j]) / z_gt[i, j]
            for i in range(z.shape[0]) for j in range(z.shape[1]) if mask[i, j]]
    return float(sum(vals) / len(vals))


def l1_inv_bruteforce(z, z_gt, mask):
    vals = [abs(1.0 / z[i, j] - 1.0 / z_gt[i, j])
            for i in range(z.shape[0]) for j in range(z.shape[1]) if mask[i, j]]
    return float(sum(vals) / len(vals))


def epe_bruteforce(w, w_gt, mask):
    vals = [float(np.hypot(w[i, j, 0] - w_gt[i, j, 0], w[i, j, 1] - w_gt[i, j, 1]))
            for i in range(w.shape[0]) for j in range(w.shape[1]) if mask[i, j]]
    return float(sum(vals) / len(vals))


def rotation_angle_deg_bruteforce(Ra, Rb):
    """Angle between two rotations through the quaternion dot product."""
    # trace(Ra Rb^T) = 1 + 2 cos(angle)
    c = (np.trace(Ra @ Rb.T) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


# --- convolutions by direct summation ----------------------------------------
# Layouts follow autodiff: maps (N, C, H, W), kernels (O, C, kh, kw). Each
# output element is summed from its definition, one position at a time.

def _zero_padded(x, top, bottom, left, right):
    N, C, H, W = x.shape
    xp = np.zeros((N, C, top + H + bottom, left + W + right))
    xp[:, :, top:top + H, left:left + W] = x
    return xp


def conv_direct(x, w, stride, padding):
    """out[n, o, y, x] = sum_{c, i, j} xpad[n, c, y*sh + i, x*sw + j] w[o, c, i, j]."""
    (sh, sw), (ph, pw) = stride, padding
    kh, kw = w.shape[2:]
    xp = _zero_padded(x, ph, ph, pw, pw)
    Ho = (xp.shape[2] - kh) // sh + 1
    Wo = (xp.shape[3] - kw) // sw + 1
    out = np.zeros((x.shape[0], w.shape[0], Ho, Wo))
    for y in range(Ho):
        for x_ in range(Wo):
            patch = xp[:, :, y * sh:y * sh + kh, x_ * sw:x_ * sw + kw]
            out[:, :, y, x_] = np.einsum("ncij,ocij->no", patch, w)
    return out


def upconv_direct(x, w, stride, padding, out_hw):
    """Transposed conv: input (N, O, H, W) position (y, x) adds x[n, o, y, x]
    w[o, c, i, j] to output (y*sh + i - ph, x*sw + j - pw); cropped to out_hw."""
    (sh, sw), (ph, pw) = stride, padding
    kh, kw = w.shape[2:]
    N, _, H, W = x.shape
    Hout, Wout = out_hw
    full = np.zeros((N, w.shape[1], max((H - 1) * sh + kh, Hout + ph),
                     max((W - 1) * sw + kw, Wout + pw)))
    for y in range(H):
        for x_ in range(W):
            full[:, :, y * sh:y * sh + kh, x_ * sw:x_ * sw + kw] += np.einsum(
                "no,ocij->ncij", x[:, :, y, x_], w)
    return full[:, :, ph:ph + Hout, pw:pw + Wout]


def conv_dw_direct(x, dy, stride, padding, kshape):
    """dw[o, c, i, j] = sum_{n, y, x} dy[n, o, y, x] xpad[n, c, y*sh + i, x*sw + j].

    With x the gradient at an upconv output and dy the upconv input, this is
    the upconv kernel gradient (the same sum over the same index pairs).
    """
    (sh, sw), (ph, pw) = stride, padding
    kh, kw = kshape[2:]
    xp = _zero_padded(x, ph, ph, pw, pw)
    dw = np.zeros(kshape)
    for y in range(dy.shape[2]):
        for x_ in range(dy.shape[3]):
            patch = xp[:, :, y * sh:y * sh + kh, x_ * sw:x_ * sw + kw]
            dw += np.einsum("no,ncij->ocij", dy[:, :, y, x_], patch)
    return dw


def upconv_phases_reference(x, wf):
    """The x2 upconv forward lowered as four ``_conv`` calls, one 2x2 conv
    per output phase over its window of the once-padded ``x``, each
    scattered into the output by a strided write. ``wf`` is
    ``autodiff._phase_kernels`` of the kernel. It shares ``_conv``'s tiles
    with the package, so the package's one-walk forward must match it
    bitwise."""
    N, _, H, W = x.shape
    xp = _pad4(x, 1, 1, 1, 1)
    out = np.empty((N, wf.shape[2], 2 * H, 2 * W), dtype=x.dtype)
    for u in (0, 1):
        for v in (0, 1):
            window = xp[:, :, u:u + H + 1, v:v + W + 1]
            out[:, :, u::2, v::2] = _conv(window, wf[u, v].shape, (1, 1),
                                          (0, 0), w=wf[u, v])[0]
    return out


# --- the scale-invariant gradient loss as first written ----------------------
# Interleaved (H, W, 2) gradients, recomputed in the backward; the package's
# grad_loss must match it bitwise.

def _shift_slices_reference(axis, h):
    if axis == 1:
        return (Ellipsis, slice(None), slice(None, -h)), \
            (Ellipsis, slice(None), slice(h, None))
    return (Ellipsis, slice(None, -h), slice(None)), \
        (Ellipsis, slice(h, None), slice(None))


def scale_invariant_gradient_reference(f, h, eps=1e-9):
    f = np.asarray(f, dtype=np.float64)
    g = np.zeros(f.shape + (2,))
    for axis, comp in ((1, 0), (0, 1)):
        if h >= f.shape[-2 + axis]:
            continue
        head, tail = _shift_slices_reference(axis, h)
        a = f[head]
        b = f[tail]
        denom = np.abs(a) + np.abs(b)
        ok = denom >= eps
        val = np.where(ok, (b - a) / np.where(ok, denom, 1.0), 0.0)
        g[head + (comp,)] = val
    return g


def grad_loss_reference(f, f_gt, spacings, mask=None, eps=1e-9):
    """(value, gradient) of the multi-spacing scale-invariant gradient loss."""
    f = np.asarray(f, dtype=np.float64)
    f_gt = np.asarray(f_gt, dtype=np.float64)
    H, W = f.shape[-2:]
    m = np.ones(f.shape, dtype=bool) if mask is None else np.asarray(mask)
    total = 0.0
    df = np.zeros_like(f)
    for h in [h for h in spacings if 1 <= h < max(H, W)]:
        g = scale_invariant_gradient_reference(f, h, eps)
        pair = np.zeros(g.shape, dtype=bool)
        for axis, comp in ((1, 0), (0, 1)):
            head, tail = _shift_slices_reference(axis, h)
            pair[head + (comp,)] = m[head] & m[tail]
        rho = np.where(pair, g - scale_invariant_gradient_reference(f_gt, h,
                                                                    eps), 0.0)
        n = np.linalg.norm(rho, axis=-1)
        total += float(np.sum(n))
        u = rho / np.where(n > 0, n, 1.0)[..., None]
        for axis, comp in ((1, 0), (0, 1)):
            if h >= f.shape[-2 + axis]:
                continue
            head, tail = _shift_slices_reference(axis, h)
            a = f[head]
            b = f[tail]
            denom = np.abs(a) + np.abs(b)
            ok = pair[head + (comp,)] & (denom >= eps)
            d = np.where(ok, denom, 1.0)
            gval = g[head + (comp,)]
            up = u[head + (comp,)]
            dgdb = np.where(ok, (1.0 - gval * np.sign(b)) / d, 0.0)
            dgda = np.where(ok, (-1.0 - gval * np.sign(a)) / d, 0.0)
            df[tail] += up * dgdb
            df[head] += up * dgda
    return total, df


def total_loss_reference(pred, gt, weights, spacings):
    """(value, gradients) of the weighted training loss, written term by
    term from the paper's formulas. A mask zeroes a pixel's residual; the
    subgradient of |.| and of a norm at 0 is 0; the confidence target
    exp(-|w - w_gt|) is a constant."""
    def f64(a):
        return np.asarray(a, dtype=np.float64)

    def mask(key, shape):
        m = gt.get(key)
        return np.ones(shape, dtype=bool) if m is None else np.asarray(m)

    vd = mask("valid_depth", np.shape(gt["xi"]))
    vf = mask("valid_flow", np.shape(gt["flow"])[:2])
    value = 0.0
    grads = {}

    def add(weight, term_value, key, grad):
        nonlocal value
        value += weight * term_value
        grads[key] = grads.get(key, 0.0) + weight * grad

    def l2_norms(e):
        n = np.sqrt(np.sum(e * e, axis=-1))
        return n, e / np.where(n > 0, n, 1.0)[..., None]

    if weights.depth:  # L1 on the scaled inverse depth s * xi
        s, xi = pred["s"], f64(pred["xi"])
        e = (s * xi - f64(gt["xi"])) * vd
        add(weights.depth, np.sum(np.abs(e)), "xi", s * np.sign(e))
        grads["s"] = weights.depth * np.sum(xi * np.sign(e))
    for key, weight, m in (("normals", weights.normal, vd),
                           ("flow", weights.flow, vf)):
        if weight:  # sum of per-pixel L2 norms (flow: endpoint error)
            n, g = l2_norms((f64(pred[key]) - f64(gt[key])) * m[..., None])
            add(weight, np.sum(n), key, g)
    if weights.flow_confidence:  # L1 against exp(-|w - w_gt|)
        target = np.exp(-np.abs(f64(pred["flow"]) - f64(gt["flow"])))
        e = (f64(pred["flow_confidence"]) - target) * vf[..., None]
        add(weights.flow_confidence, np.sum(np.abs(e)), "flow_confidence",
            np.sign(e))
    for key, weight in (("r", weights.rotation), ("t", weights.translation)):
        if weight:  # L2 norm of the 3-vector difference
            n, g = l2_norms(f64(pred[key]) - f64(gt[key]))
            add(weight, n, key, g)
    if weights.grad_depth:
        v, g = grad_loss_reference(pred["xi"], gt["xi"], spacings, vd)
        add(weights.grad_depth, v, "xi", g)
    if weights.grad_flow:
        for comp in range(2):
            v, g = grad_loss_reference(pred["flow"][..., comp],
                                       gt["flow"][..., comp], spacings, vf)
            full = np.zeros(np.shape(pred["flow"]))
            full[..., comp] = g
            add(weights.grad_flow, v, "flow", full)
    return value, grads


class DegenerateSample(ValueError):
    """Raised by the 8-point oracle on a rank-deficient system."""


def _hartley_normalize_loop(pts):
    c = pts.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((pts - c) ** 2, axis=1)))
    s = np.sqrt(2.0) / max(rms, 1e-12)
    T = np.array([[s, 0.0, -s * c[0]],
                  [0.0, s, -s * c[1]],
                  [0.0, 0.0, 1.0]])
    return (pts - c) * s, T


def eight_point_loop(x1, x2):
    """Normalized 8-point method on one (n, 2) match set, n >= 8."""
    n = x1.shape[0]
    if n < 8:
        raise ValueError(f"need at least 8 correspondences, got {n}")
    p1, T1 = _hartley_normalize_loop(x1)
    p2, T2 = _hartley_normalize_loop(x2)
    u1, v1 = p1[:, 0], p1[:, 1]
    u2, v2 = p2[:, 0], p2[:, 1]
    A = np.stack([u2 * u1, u2 * v1, u2, v2 * u1, v2 * v1, v2,
                  u1, v1, np.ones(n)], axis=1)
    _, s, Vt = np.linalg.svd(A)
    if s[7] < 1e-9 * s[0]:
        raise DegenerateSample("rank-deficient system")
    E = T2.T @ Vt[-1].reshape(3, 3) @ T1
    U, S, Vt = np.linalg.svd(E)
    sigma = 0.5 * (S[0] + S[1])
    E = U @ np.diag([sigma, sigma, 0.0]) @ Vt
    return E / sigma


def sampson_distance_loop(E, x1, x2):
    """First-order squared epipolar distance of each match under one E."""
    ones = np.ones((x1.shape[0], 1))
    x1 = np.hstack([x1, ones])
    x2 = np.hstack([x2, ones])
    Ex1 = x1 @ E.T
    Etx2 = x2 @ E
    num = np.sum(x2 * Ex1, axis=1) ** 2
    den = Ex1[:, 0] ** 2 + Ex1[:, 1] ** 2 + Etx2[:, 0] ** 2 + Etx2[:, 1] ** 2
    return num / np.maximum(den, 1e-30)


def ransac_hypotheses_loop(x1, x2, threshold=1e-4, max_iters=500, seed=0):
    """(inlier count, mean inlier distance, inlier mask) of each minimal
    sample drawn one at a time, or None where the sample is degenerate."""
    n = x1.shape[0]
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(max_iters):
        idx = rng.choice(n, size=8, replace=False)
        try:
            E = eight_point_loop(x1[idx], x2[idx])
        except DegenerateSample:
            out.append(None)
            continue
        d = sampson_distance_loop(E, x1, x2)
        mask = d < threshold
        count = int(mask.sum())
        out.append((count, float(d[mask].mean()) if count else np.inf, mask))
    return out


def ransac_essential_loop(x1, x2, threshold=1e-4, max_iters=500, seed=0):
    """RANSAC that solves and scores one minimal sample at a time.

    Returns (E, inlier mask), or None when no hypothesis reaches 8 inliers.
    """
    best_mask = None
    best_count = -1
    best_score = np.inf
    for hyp in ransac_hypotheses_loop(x1, x2, threshold, max_iters, seed):
        if hyp is None:
            continue
        count, score, mask = hyp
        if count > best_count or (count == best_count and score < best_score):
            best_count = count
            best_score = score
            best_mask = mask
    if best_mask is None or best_count < 8:
        return None
    return eight_point_loop(x1[best_mask], x2[best_mask]), best_mask


# --- two-view bundle adjustment on dense per-point blocks --------------------

def tangent_basis_cross(t):
    """The (3, 2) tangent basis of unit t by ``np.cross``: t x e_x (t x e_y
    when t is near e_x), normalized, then t x that."""
    a = np.array([1.0, 0.0, 0.0])
    if abs(t[0]) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    b1 = np.cross(t, a)
    b1 /= np.linalg.norm(b1)
    return np.stack([b1, np.cross(t, b1)], axis=1)


def ba_jacobian_blocks_reference(R, t, xi, Q, B):
    """All four residual rows of every point: the camera block (N, 4, 5) over
    (rotation update 3, translation tangent 2) and the point block (N, 4, 3)
    over (a_x, a_y, xi), built from d(projection)/dQ times dQ/d(parameter)."""
    n = Q.shape[0]
    inv_z = 1.0 / Q[:, 2]
    A = np.zeros((n, 2, 3))
    A[:, 0, 0] = inv_z
    A[:, 1, 1] = inv_z
    A[:, 0, 2] = -Q[:, 0] * inv_z ** 2
    A[:, 1, 2] = -Q[:, 1] * inv_z ** 2
    RP = Q - t
    skew = np.zeros((n, 3, 3))
    skew[:, 0, 1] = -RP[:, 2]
    skew[:, 0, 2] = RP[:, 1]
    skew[:, 1, 0] = RP[:, 2]
    skew[:, 1, 2] = -RP[:, 0]
    skew[:, 2, 0] = -RP[:, 1]
    skew[:, 2, 1] = RP[:, 0]
    Jc = np.zeros((n, 4, 5))
    Jc[:, 2:4, 0:3] = -np.matmul(A, skew)
    Jc[:, 2:4, 3:5] = np.matmul(A, B)
    Jp = np.zeros((n, 4, 3))
    Jp[:, 0, 0] = 1.0
    Jp[:, 1, 1] = 1.0
    Jp[:, 2:4, 0:2] = np.matmul(A, R[None, :, :2] / xi[:, None, None])
    Jp[:, 2:4, 2] = np.einsum("nij,nj->ni", A, -RP / xi[:, None])
    return Jc, Jp


def refine_motion_reference(motion, corr, inliers=None, max_iters=100):
    """``baseline.refine_motion`` with the per-point normal equations formed
    by einsum over the full four-row blocks and each damped point block
    inverted by LAPACK: the same algorithm, damping schedule and stopping
    rules, with its sums in another order. It shares the problem with
    ``baseline`` (the residuals, the start, the result type) and replaces
    the step: Jacobian, normal equations and Schur solve."""
    active = corr if inliers is None else corr.subset(inliers)
    if len(active) < 8:
        raise EstimationError("refinement needs at least 8 matches")
    m = motion.normalized()
    R = rotation_from_angle_axis(m.r)
    t = m.t.copy()
    z1, front = _front_depths(R, t, active)
    if front.sum() < 8:
        raise EstimationError("refinement needs at least 8 matches in front "
                              "of both cameras")
    x1, x2 = active.x1[front], active.x2[front]
    a = x1.copy()
    xi = 1.0 / np.clip(z1[front], 1e-6, None)
    res, Q = _ba_residuals(R, t, a, xi, x1, x2)
    cost = initial_cost = float(np.sum(res ** 2))
    lam = 1e-6
    accepted_any = stalled = False
    iters = 0
    for iters in range(1, max_iters + 1):
        B = tangent_basis_cross(t)
        Jc, Jp = ba_jacobian_blocks_reference(R, t, xi, Q, B)
        U = np.einsum("nri,nrj->ij", Jc, Jc)
        V = np.einsum("nri,nrj->nij", Jp, Jp)
        W = np.einsum("nri,nrj->nij", Jc, Jp)
        gc = np.einsum("nri,nr->i", Jc, res)
        gp = np.einsum("nri,nr->ni", Jp, res)
        if max(np.abs(gc).max(), np.abs(gp).max()) < 1e-10:
            break
        improved = tiny_step = False
        for _ in range(25):
            Ud = U + lam * np.diag(np.diag(U) + 1e-12)
            Vd = V + lam * (V * np.eye(3) + 1e-12 * np.eye(3))
            try:
                Vinv = np.linalg.inv(Vd)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            WVinv = np.matmul(W, Vinv)
            S = Ud - np.einsum("nij,nkj->ik", WVinv, W)
            rhs = -(gc - np.einsum("nij,nj->i", WVinv, gp))
            try:
                dc = np.linalg.solve(S, rhs)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            dp = -np.einsum("nij,nj->ni", Vinv,
                            gp + np.einsum("nji,j->ni", W, dc))
            if np.sqrt(float(dc @ dc) + float(np.sum(dp ** 2))) < 1e-12:
                tiny_step = True
                break
            R_new = rotation_from_angle_axis(dc[0:3]) @ R
            t_new = t + B @ dc[3:5]
            t_new /= np.linalg.norm(t_new)
            a_new = a + dp[:, 0:2]
            xi_new = np.clip(xi + dp[:, 2], 1e-9, None)
            res_new, Q_new = _ba_residuals(R_new, t_new, a_new, xi_new, x1, x2)
            cost_new = float(np.sum(res_new ** 2))
            if cost_new < cost:
                R, t, a, xi = R_new, t_new, a_new, xi_new
                res, Q, cost = res_new, Q_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                improved = accepted_any = True
                break
            lam *= 4.0
        if not improved:
            stalled = not tiny_step
            break
    if stalled and not accepted_any:
        return RefineResult(motion, initial_cost, initial_cost, iters, True)
    return RefineResult(CameraMotion(angle_axis_from_rotation(R), t),
                        initial_cost, cost, iters, False)


# --- the leaky ReLU as an op of its own -------------------------------------

def leaky_relu(x: Tensor) -> Tensor:
    """``where(x > 0, x, 0.1 x)`` as an op of its own: the unfused reference
    for the ops' ``leaky=True``."""
    pos = x.data > 0
    out = np.where(pos, x.data, LEAKY_SLOPE * x.data)
    if not x.requires_grad:
        return Tensor(out)
    return Tensor(out, requires_grad=True, _parents=(x,),
                  _vjp=lambda g: (np.where(pos, g, LEAKY_SLOPE * g),))


# --- finite-difference check of a VJP ----------------------------------------

def gradcheck_vjp(fn, inputs: list[np.ndarray], rng: np.random.Generator,
                  step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference VJPs.

    ``fn`` maps input Tensors to one output Tensor; the check projects the
    output against a fixed random seed vector so a scalar can be
    differentiated numerically.
    """
    tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
               for x in inputs]
    out = fn(*tensors)
    seed = rng.normal(size=out.data.shape)
    backward({out: seed})

    worst = 0.0
    for t in tensors:
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(np.sum(fn(*tensors).data * seed))
            flat[i] = orig - step
            fm = float(np.sum(fn(*tensors).data * seed))
            flat[i] = orig
            num[i] = (fp - fm) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(ana.ravel())), 1e-6)
        worst = max(worst, float(np.max(np.abs(num - ana.ravel()) / denom)))
    return worst
