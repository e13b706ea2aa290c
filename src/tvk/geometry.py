"""Camera model, conversions between depth, optical flow and motion, two-ray
triangulation and the bilinear warp.

This module is the one place for camera math: the pixel-center grid
(``Intrinsics.pixel_centers``), the map from an image point to its ray
(``Intrinsics.unproject``) and back (``project``), the two-ray
triangulation (``triangulate``) that ``baseline`` uses too, and the one
bilinear warp (``warp_batch``, on (N, C, H, W) batches in their own dtype).

Conventions used throughout the package:

* Images are arrays indexed ``[row, col]`` = ``[y, x]``; a resolution of
  W x H means ``W`` columns and ``H`` rows.
* Normalized image coordinates: pixel (row i, col j) sits at
  ``u = (j + 0.5) / W``, ``v = (i + 0.5) / H``, both in (0, 1).
* Focal lengths are per-axis normalized: ``fx`` in image widths, ``fy`` in
  image heights. A 3D point (X, Y, Z) projects to
  ``u = fx * X / Z + cx``, ``v = fy * Y / Z + cy``.
* Camera frame: x right, y down, z forward (into the scene).
* A relative motion (R, t) maps first-camera coordinates to second-camera
  coordinates: ``p2 = R @ p1 + t``.
* Optical flow is stored in normalized units (a displacement by the full
  image size equals 1): ``w = (u2 - u1, v2 - v1)``.

All functions are pure; invalid pixels are reported through boolean
validity masks rather than sentinel values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

# Below this rotation magnitude Rodrigues' formula switches to its
# second-order Taylor expansion.
SMALL_ANGLE = 1e-8

# Depth (z) values below this are treated as "behind the camera".
_Z_EPS = 1e-12


class DegenerateMotionError(ValueError):
    """Raised when an operation requires translation but the motion has none."""


def check_field_types(obj) -> None:
    """Raise ``ValueError`` naming the first field of the dataclass ``obj``
    annotated ``int`` or ``tuple[int, ...]`` that holds a non-integer, or
    annotated ``bool`` that holds anything but a bool."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "bool" and not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{f.name}={value!r} is not a bool")
        if f.type.startswith(("int", "tuple[int")) and not all(
                isinstance(v, numbers.Integral) for v in np.ravel(value)):
            raise ValueError(f"{f.name}={value!r} is not an integer")


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in normalized image units."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        check_field_types(self)
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < 1 and 0 < self.cy < 1):
            raise ValueError("principal point must lie inside the image")
        if self.width < 8 or self.height < 8:
            raise ValueError("resolution must be at least 8x8")

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center ``u`` per column, (W,), and ``v`` per row, (H,)."""
        u = (np.arange(self.width, dtype=np.float64) + 0.5) / self.width
        v = (np.arange(self.height, dtype=np.float64) + 0.5) / self.height
        return u, v

    def unproject(self, u, v):
        """(x, y) of the ray (x, y, 1) through image point (u, v), per axis."""
        return (u - self.cx) / self.fx, (v - self.cy) / self.fy

    def scaled(self, factor: int) -> "Intrinsics":
        """Same camera at ``factor`` times the pixel resolution."""
        return Intrinsics(self.fx, self.fy, self.cx, self.cy,
                          self.width * factor, self.height * factor)


@dataclass
class CameraMotion:
    """Relative pose: angle-axis rotation ``r`` and translation ``t``.

    ``r`` has magnitude = rotation angle in radians, direction = axis.
    ``t`` is Cartesian; most geometric operations require a unit-norm
    translation (the global scale is fixed by ``|t| = 1``).
    """

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64).reshape(3)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(self.r)) and np.all(np.isfinite(self.t))):
            raise ValueError("motion parameters must be finite")

    def normalized(self) -> "CameraMotion":
        """Unit-norm translation, canonical rotation (|r| <= pi)."""
        n = float(np.linalg.norm(self.t))
        if n < 1e-9:
            raise DegenerateMotionError("translation norm below 1e-9")
        r = angle_axis_from_rotation(rotation_from_angle_axis(self.r))
        return CameraMotion(r, self.t / n)


@dataclass
class InverseDepthMap:
    """Per-pixel inverse depth; 0 encodes a point at infinity."""

    xi: np.ndarray

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=np.float64)
        if self.xi.ndim != 2:
            raise ValueError("inverse depth must be a 2D grid")
        if np.any(self.xi < 0):
            raise ValueError("inverse depth must be nonnegative")


@dataclass
class FlowField:
    """Per-pixel 2-vector displacement, normalized units, shape (H, W, 2)."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 3 or self.w.shape[2] != 2:
            raise ValueError("flow must have shape (H, W, 2)")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("flow must be finite")


def _check_finite(name: str, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")


def last_axis_norm(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` for a last axis of length 2-7, bitwise:
    the squares are added one component at a time, left to right, as
    numpy's reduction adds so few terms, without its per-row overhead."""
    sq = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        sq = sq + x[..., k] * x[..., k]
    return np.sqrt(sq)


def rotation_from_angle_axis(r: np.ndarray) -> np.ndarray:
    """Rodrigues' formula; Taylor fallback below the small-angle threshold."""
    r = np.asarray(r, dtype=np.float64).reshape(3)
    _check_finite("angle-axis vector", r)
    theta = float(np.linalg.norm(r))
    K = np.array([[0.0, -r[2], r[1]],
                  [r[2], 0.0, -r[0]],
                  [-r[1], r[0], 0.0]])
    if theta < SMALL_ANGLE:
        # R = I + K + K^2/2 (second order in theta)
        return np.eye(3) + K + 0.5 * (K @ K)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def angle_axis_from_rotation(R: np.ndarray) -> np.ndarray:
    """Inverse of Rodrigues' formula; result has magnitude <= pi."""
    R = np.asarray(R, dtype=np.float64).reshape(3, 3)
    _check_finite("rotation matrix", R)
    if np.linalg.norm(R.T @ R - np.eye(3), ord=np.inf) > 1e-6 or np.linalg.det(R) < 0:
        raise ValueError("input is not a rotation matrix (within 1e-6)")
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < SMALL_ANGLE:
        # antisymmetric part already equals theta * axis to first order
        return 0.5 * np.array([R[2, 1] - R[1, 2],
                               R[0, 2] - R[2, 0],
                               R[1, 0] - R[0, 1]])
    if theta < np.pi - 1e-6:
        axis = np.array([R[2, 1] - R[1, 2],
                         R[0, 2] - R[2, 0],
                         R[1, 0] - R[0, 1]]) / (2.0 * np.sin(theta))
        return theta * axis
    # Near pi the antisymmetric part vanishes; use the symmetric part.
    # R = I + 2 K^2 at theta = pi, so diag gives axis components squared.
    A = (R + np.eye(3)) / 2.0
    axis = np.sqrt(np.clip(np.diag(A), 0.0, None))
    # fix signs from the largest off-diagonal entries
    k = int(np.argmax(axis))
    if axis[k] > 0:
        for i in range(3):
            if i != k and A[k, i] < 0:
                axis[i] = -axis[i]
        axis = axis / np.linalg.norm(axis)
        # sign of the axis is ambiguous at exactly pi; pick the one that
        # reproduces R for theta slightly under pi
        s = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        if s @ axis < 0:
            axis = -axis
    return theta * axis


def pixel_rays(K: Intrinsics) -> np.ndarray:
    """Per-pixel viewing ray directions with z = 1, shape (H, W, 3)."""
    x, y = K.unproject(*K.pixel_centers())
    rays = np.empty((K.height, K.width, 3))
    rays[..., 0] = x[None, :]
    rays[..., 1] = y[:, None]
    rays[..., 2] = 1.0
    return rays


def project(points: np.ndarray, K: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Project camera-frame points (..., 3) to normalized (u, v)."""
    z = points[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.fx * points[..., 0] / z + K.cx
        v = K.fy * points[..., 1] / z + K.cy
    return u, v


def triangulate(d1: np.ndarray, d2: np.ndarray, R: np.ndarray,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint triangulation of ray pairs (Hartley & Sturm, CVIU 1997).

    ``d1`` and ``d2`` (..., 3) are the rays in the frames of the first and
    the second camera; (R, t) maps the first frame to the second. Returns
    the midpoints in first-camera coordinates and the mask of non-parallel
    pairs (``a*c - b^2 > 1e-12 * a*c``); masked-out midpoints are undefined.
    """
    d2 = d2 @ R  # R^T applied to rows
    c2 = -R.T @ t  # second camera center in first-camera coordinates
    # minimize |s*d1 - (c2 + q*d2)|: normal equations of the two-ray system
    a = np.einsum("...k,...k->...", d1, d1)
    b = np.einsum("...k,...k->...", d1, d2)
    c = np.einsum("...k,...k->...", d2, d2)
    w0 = -c2  # o1 - o2
    d = np.einsum("...k,k->...", d1, w0)
    e = np.einsum("...k,k->...", d2, w0)
    denom = a * c - b * b
    ok = denom > 1e-12 * a * c  # rays not parallel
    denom = np.where(ok, denom, 1.0)
    s = (b * e - c * d) / denom
    q = (a * e - b * d) / denom
    return 0.5 * (d1 * s[..., None] + c2 + d2 * q[..., None]), ok


def flow_from_depth_motion(
    depth: InverseDepthMap, motion: CameraMotion, K: Intrinsics
) -> tuple[FlowField, np.ndarray]:
    """Flow induced by camera motion over a rigid scene.

    Each pixel is unprojected at depth 1/xi, transformed by (R, t) and
    reprojected; xi = 0 pixels move with pure rotation (points at
    infinity). Returns the flow and a validity mask; a pixel is invalid
    if it lands behind the second camera or outside its field of view.
    ``depth`` must be expressed in the frame of ``motion.t``: for network
    predictions that is ``Prediction.inverse_depth``, which applies the
    predicted scale.
    """
    xi = depth.xi
    if xi.shape != (K.height, K.width):
        raise ValueError("depth resolution does not match intrinsics")
    if not np.any(motion.r) and not np.any(motion.t):
        # identity motion produces exactly zero flow by contract
        return FlowField(np.zeros((K.height, K.width, 2))), \
            np.ones((K.height, K.width), dtype=bool)
    R = rotation_from_angle_axis(motion.r)
    rays = pixel_rays(K)
    rot = rays @ R.T  # rotated ray directions
    if not np.any(motion.t):
        # parallax-free: every pixel moves with the rotation only, which
        # makes the result exactly independent of the depth values
        dir2 = rot
    else:
        finite = xi > 0
        with np.errstate(divide="ignore"):
            z = np.where(finite, 1.0 / np.where(finite, xi, 1.0), np.inf)
        # p2 = R * (ray * z) + t; for infinity pixels only the direction counts
        p2 = rot * z[..., None] + motion.t
        dir2 = np.where(finite[..., None], p2, rot)
    u1, v1 = K.pixel_centers()
    u2, v2 = project(dir2, K)
    in_front = dir2[..., 2] > _Z_EPS
    w = np.stack([np.where(in_front, u2 - u1, 0.0),
                  np.where(in_front, v2 - v1[:, None], 0.0)], axis=-1)
    in_fov = in_front & (u2 >= 0) & (u2 <= 1) & (v2 >= 0) & (v2 <= 1)
    return FlowField(w), in_fov


def depth_from_flow_motion(
    flow: FlowField, motion: CameraMotion, K: Intrinsics
) -> tuple[InverseDepthMap, np.ndarray]:
    """Per-pixel two-view triangulation (midpoint of the common perpendicular).

    Requires a unit-norm translation. Negative, non-finite or near-parallel
    triangulations are clamped to xi = 0 and masked invalid.
    """
    tn = float(np.linalg.norm(motion.t))
    if tn < 1e-9:
        raise DegenerateMotionError("cannot triangulate a rotation-only motion")
    if abs(tn - 1.0) > 1e-6:
        raise ValueError("translation must be unit norm (within 1e-6)")
    if flow.w.shape[:2] != (K.height, K.width):
        raise ValueError("flow resolution does not match intrinsics")

    u1, v1 = K.pixel_centers()
    x2, y2 = K.unproject(u1 + flow.w[..., 0], v1[:, None] + flow.w[..., 1])
    mid, ok = triangulate(pixel_rays(K),
                          np.stack([x2, y2, np.ones_like(x2)], axis=-1),
                          rotation_from_angle_axis(motion.r), motion.t)
    z = mid[..., 2]
    valid = ok & np.isfinite(z) & (z > _Z_EPS)
    xi = np.where(valid, 1.0 / np.where(valid, z, 1.0), 0.0)
    return InverseDepthMap(xi), valid


def warp_batch(img2: np.ndarray, flow: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Sample (N, C, H, W) images at pixel + flow with bilinear interpolation.

    ``flow`` is (N, 2, H, W) in normalized units. Samples falling outside
    the image are 0 and masked invalid. The sample positions are computed
    in the images' dtype and the result is cast back to it. Returns the
    warped images and the (N, H, W) mask.
    """
    N, C, H, W = img2.shape
    ys, xs = np.meshgrid(np.arange(H, dtype=img2.dtype),
                         np.arange(W, dtype=img2.dtype), indexing="ij")
    x = xs[None] + flow[:, 0] * W
    y = ys[None] + flow[:, 1] * H
    valid = (x >= 0) & (x <= W - 1) & (y >= 0) & (y <= H - 1)
    x0 = np.clip(np.floor(x), 0, W - 1).astype(np.int64)
    y0 = np.clip(np.floor(y), 0, H - 1).astype(np.int64)
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    ax = (np.clip(x - x0, 0, 1))[:, None]
    ay = (np.clip(y - y0, 0, 1))[:, None]
    ns = np.arange(N)[:, None, None, None]
    cs = np.arange(C)[None, :, None, None]
    g00 = img2[ns, cs, y0[:, None], x0[:, None]]
    g01 = img2[ns, cs, y0[:, None], x1[:, None]]
    g10 = img2[ns, cs, y1[:, None], x0[:, None]]
    g11 = img2[ns, cs, y1[:, None], x1[:, None]]
    out = ((g00 * (1 - ax) + g01 * ax) * (1 - ay)
           + (g10 * (1 - ax) + g11 * ax) * ay)
    return (out * valid[:, None]).astype(img2.dtype), valid

