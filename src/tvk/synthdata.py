"""Synthetic two-view dataset generator with perfect ground truth.

Scenes are random collections of textured planes, boxes and spheres in
front of a background plane of unbounded extent (a plane whose half
extents are infinite). Both views are rendered by casting rays against
the analytic primitives, which yields exact depth, normals and (through
the geometry module) optical flow. A cast tests each primitive only on
the rays that pass near it, which gives exactly the hits of testing every
ray (see ``_cast``). Each cast is textured in one pass: every hit point
gets its primitive's multi-octave value noise, whose 8 lattice corners
share 2 hash products per axis, bitwise equal to coloring each
primitive's points on their own. Translations are normalized to unit
length with depths rescaled accordingly, so the stored inverse depth
lives in the |t| = 1 frame used everywhere else. Small-baseline pairs
come from a tiny ``baseline_range`` with ``min_parallax=0``, e.g.
``SynthConfig(baseline_range=(1e-6, 1e-3), min_parallax=0.0)``.

Randomness comes from counter-based Philox streams keyed by
(dataset seed, sample index), so a (seed, config) pair fully determines
the bytes of the emitted dataset file. Record i of a dataset is
``render_pair(generate_scene(seed, config, index=i), config, sample_id=i)``:
the ground truth is exact, so no pair is filtered out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import container
from .geometry import (
    CameraMotion,
    Intrinsics,
    InverseDepthMap,
    check_field_types,
    flow_from_depth_motion,
    last_axis_norm,
    pixel_rays,
    rotation_from_angle_axis,
)

RAY_EPS = 1e-6

PRNG_NAME = "philox4x64"


class GenerationError(RuntimeError):
    """Scene sampling failed to satisfy the constraints."""


@dataclass
class SynthConfig:
    width: int = 64
    height: int = 48
    fx: float = 0.89
    fy: float = 1.19
    cx: float = 0.5
    cy: float = 0.5
    n_primitives: tuple[int, int] = (3, 7)
    depth_range: tuple[float, float] = (2.0, 5.0)
    size_range: tuple[float, float] = (0.35, 1.2)
    background_distance: float = 8.0
    rotation_max_deg: float = 15.0
    baseline_range: tuple[float, float] = (0.10, 0.30)
    forward_bias: float = 0.3
    min_parallax: float = 0.02
    texture_octaves: int = 2
    include_full: bool = True
    full_factor: int = 4
    min_coverage: float = 0.10
    max_tries: int = 200

    def __post_init__(self):
        check_field_types(self)
        for field, ok in (
                ("texture_octaves", self.texture_octaves >= 1),
                ("max_tries", self.max_tries >= 1),
                ("full_factor", self.full_factor >= 1),
                ("n_primitives", self.n_primitives[0] <= self.n_primitives[1]),
                ("depth_range", 0 < self.depth_range[0] <= self.depth_range[1]),
                ("size_range", 0 < self.size_range[0] <= self.size_range[1]),
                ("baseline_range",
                 self.baseline_range[0] <= self.baseline_range[1]),
                ("min_coverage", 0 <= self.min_coverage <= 1),
                ("min_parallax", np.isfinite(self.min_parallax)),
                ("forward_bias", np.isfinite(self.forward_bias)),
                ("background_distance",
                 self.depth_range[1] < self.background_distance < np.inf)):
            if not ok:
                raise ValueError(f"{field}={getattr(self, field)} is out of range")

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy,
                          self.width, self.height)


@dataclass
class Primitive:
    kind: str  # a key of _KINDS: "plane" | "box" | "sphere"
    center: np.ndarray
    rotation: np.ndarray  # angle-axis
    size: np.ndarray  # half extents (inf: unbounded); sphere radius size[0]
    color_a: np.ndarray
    color_b: np.ndarray
    tex_seed: int
    tex_scale: float

    def bounding_radius(self) -> float:
        if self.kind == "sphere":
            return float(self.size[0])
        return float(np.linalg.norm(self.size))

    @cached_property
    def rotation_matrix(self) -> np.ndarray:
        """The rotation matrix of ``rotation``, built at its first use: a
        primitive is cast against many times, and its angle-axis is not
        reassigned after that."""
        return rotation_from_angle_axis(self.rotation)

    def cull_radius(self) -> float:
        """Radius about ``center`` that holds every hit point: the sphere's
        radius, or the half diagonal of the box or of the plane's rectangle
        (a plane does not use size[2])."""
        if self.kind == "sphere":
            return float(self.size[0])
        return math.hypot(*self.size[:2 if self.kind == "plane" else 3])


@dataclass
class SceneSpec:
    seed: int
    primitives: list[Primitive]
    background: Primitive  # a plane, usually of unbounded size
    motion_r: np.ndarray
    motion_t_raw: np.ndarray  # pre-normalization translation


@dataclass
class SamplePair:
    """One training/evaluation item; images in [0,1], |t| = 1 scale."""

    img1: np.ndarray
    img2: np.ndarray
    xi: np.ndarray
    normals: np.ndarray
    flow: np.ndarray
    r: np.ndarray
    t: np.ndarray
    valid_depth: np.ndarray
    valid_flow: np.ndarray
    sample_id: int
    img1_full: np.ndarray | None = None
    xi_full: np.ndarray | None = None

    def motion(self) -> CameraMotion:
        return CameraMotion(self.r, self.t)


# --- value noise textures --------------------------------------------------

_MIX1 = np.uint64(0x9E3779B185EBCA87)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX3 = np.uint64(0x165667B19E3779F9)


# points per block of the texture pass: the noise's temporaries of one
# block stay in cache, while one pass over a full-resolution view does not
_TEXTURE_BLOCK = 4096


def _hash_u64(hx, hy, hz, seed):
    """Uniform [0, 1) from the per-axis lattice products and the seed."""
    h = hx ^ hy ^ hz
    h += seed
    # splitmix64 finalizer
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    h >>= np.uint64(11)
    return h.astype(np.float64) / float(1 << 53)


def _value_noise(p: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Trilinear value noise in [0, 1) at points (N, 3), one uint64 seed each."""
    i = np.floor(p).astype(np.int64)
    f = p - i
    f = f * f * (3.0 - 2.0 * f)  # smoothstep fade
    # per axis, the (2, N) lattice products and weights of offsets 0 and 1,
    # broadcast to the 8 corners as (dx, dy, dz, N)
    hx, hy, hz = ((i[:, a] + np.arange(2)[:, None]).astype(np.uint64) * mix
                  for a, mix in enumerate((_MIX1, _MIX2, _MIX3)))
    wx, wy, wz = (np.stack([1 - f[:, a], f[:, a]]) for a in range(3))
    corners = (_hash_u64(hx[:, None, None], hy[:, None], hz, seed)
               * (wx[:, None, None] * wy[:, None] * wz))
    out = np.zeros(len(p))
    for c in corners.reshape(8, -1):  # in (dx, dy, dz) order
        out += c
    return out


def _texture(hits, scene: SceneSpec, octaves: int) -> np.ndarray:
    """Multi-octave noise color in [0, 1] at the hit points of a ``_cast``
    result, each in its primitive's texture frame; 0 on a miss."""
    _, idx, points = hits
    prims = [*scene.primitives, scene.background]
    center, scale, color_a, color_b = (
        np.array([getattr(q, name) for q in prims], dtype=np.float64)
        for name in ("center", "tex_scale", "color_a", "color_b"))
    seed = np.array([q.tex_seed for q in prims], dtype=np.uint64)
    k_all, p_all = idx.reshape(-1), points.reshape(-1, 3)
    out = np.empty(p_all.shape)
    for start in range(0, len(k_all), _TEXTURE_BLOCK):
        k = k_all[start:start + _TEXTURE_BLOCK]
        p = (p_all[start:start + _TEXTURE_BLOCK] - center[k]) * scale[k, None]
        acc, amp, total = np.zeros(len(k)), 1.0, 0.0
        for o in range(octaves):
            acc += amp * _value_noise(p * (2.0 ** o), seed[k] + np.uint64(o))
            total += amp
            amp *= 0.5
        tval = (acc / total)[:, None]
        out[start:start + _TEXTURE_BLOCK] = np.clip(
            color_a[k] + (color_b[k] - color_a[k]) * tval, 0.0, 1.0)
    out[k_all < 0] = 0.0  # a miss (index -1) was colored as the background
    return out.reshape(points.shape)


# --- ray casting -------------------------------------------------------------

def _intersect_sphere(o, d, prim):
    oc = o - prim.center
    a = np.einsum("...k,...k->...", d, d)
    b = 2.0 * np.einsum("...k,k->...", d, oc)
    c = float(oc @ oc) - float(prim.size[0]) ** 2
    disc = b * b - 4 * a * c
    hit = disc > 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    s = np.where(hit, (-b - sq) / (2 * a), np.inf)
    return np.where(s > RAY_EPS, s, np.inf)


def _sphere_normal(p, prim):
    n = p - prim.center
    return n / last_axis_norm(n)[..., None]


def _intersect_plane_rect(o, d, prim):
    R = prim.rotation_matrix
    n = R[:, 2]
    denom = np.einsum("...k,k->...", d, n)
    num = float((prim.center - o) @ n)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(np.abs(denom) > 1e-12, num / denom, np.inf)
    s = np.where(s > RAY_EPS, s, np.inf)
    if np.isinf(prim.size[:2]).all():  # unbounded: every hit is inside
        return s
    p = o + d * np.where(np.isfinite(s), s, 0.0)[..., None]
    local = (p - prim.center) @ R
    inside = (np.abs(local[..., 0]) <= prim.size[0]) & \
             (np.abs(local[..., 1]) <= prim.size[1])
    return np.where(inside, s, np.inf)


def _plane_normal(p, prim):
    return np.broadcast_to(prim.rotation_matrix[:, 2], p.shape)


def _intersect_box(o, d, prim):
    R = prim.rotation_matrix
    ol = (o - prim.center) @ R
    dl = d @ R
    # huge finite slopes instead of inf keep the slab test NaN-free
    safe = np.where(np.abs(dl) > 1e-12, dl,
                    np.where(dl >= 0, 1e-12, -1e-12))
    inv = 1.0 / safe
    t1 = (-prim.size - ol) * inv
    t2 = (prim.size - ol) * inv
    near, far = np.minimum(t1, t2), np.maximum(t1, t2)
    # the overlap of the three slabs, one axis at a time (max and min are
    # exact, so this is near.max(-1) and far.min(-1))
    tmin = np.maximum(np.maximum(near[..., 0], near[..., 1]), near[..., 2])
    tmax = np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2])
    hit = (tmax >= tmin) & (tmin > RAY_EPS)
    return np.where(hit, tmin, np.inf)


def _box_normal(p, prim):
    R = prim.rotation_matrix
    local = (p - prim.center) @ R
    rel = np.abs(local) / prim.size
    r0, r1, r2 = rel[..., 0], rel[..., 1], rel[..., 2]
    # the face of the first axis of largest rel, as np.argmax picks it
    on0 = (r0 >= r1) & (r0 >= r2)
    on1 = ~on0 & (r1 >= r2)
    n_local = np.empty(p.shape)
    for a, on in enumerate((on0, on1, ~(on0 | on1))):
        n_local[..., a] = np.where(
            on, np.where(local[..., a] >= 0, 1.0, -1.0), 0.0)
    return n_local @ R.T


# kind -> (ray distance to the surface, surface normal at hit points)
_KINDS = {"plane": (_intersect_plane_rect, _plane_normal),
          "box": (_intersect_box, _box_normal),
          "sphere": (_intersect_sphere, _sphere_normal)}

# widening of a primitive's cull sphere, relative to its radius plus its
# distance from the ray origin
_CULL_MARGIN = 1e-6


def _cast(origin: np.ndarray, dirs: np.ndarray, scene: SceneSpec):
    """Nearest-hit ray cast against the primitives, then the background.
    Returns (s, index, points): the ray distance (inf on a miss), the index
    of the hit primitive (``len(scene.primitives)`` for the background, -1
    on a miss) and the hit points.

    Each primitive is tested only on the rays whose line passes within its
    ``cull_radius`` of its center, widened by ``_CULL_MARGIN`` times (that
    radius + the center's distance from the origin); the other rays keep
    s = inf for it. An infinite radius (the unbounded background) keeps
    every ray. The cull gives exactly the result of testing every ray:
    every point an intersector reports lies within the cull radius, up to
    rounding of relative size 1e-15 and the box test's 1e-12 slopes, both
    far inside the margin, so no culled ray could have hit. Each kept ray
    goes through the same arithmetic as without the cull: elementwise, or
    3x3 products of its own row. ``tests/oracles.py::cast_every_ray`` is
    the cast without the cull."""
    d = dirs.reshape(-1, 3)
    prims = [*scene.primitives, scene.background]
    c = np.array([q.center for q in prims]) - origin
    cc = np.einsum("ij,ij->i", c, c)
    radius = np.array([q.cull_radius() for q in prims])
    widened = radius + _CULL_MARGIN * (radius + np.sqrt(cc))
    # a ray's line passes within r of a center c iff (c.d)^2 >= (|c|^2 -
    # r^2) |d|^2; with r = inf the right side is -inf
    near = np.square(c @ d.T) >= np.multiply.outer(
        cc - widened * widened, np.einsum("ij,ij->i", d, d))
    best = np.full(len(d), np.inf)
    best_idx = np.full(len(d), -1, dtype=np.int64)
    for k, prim in enumerate(prims):
        rays = np.flatnonzero(near[k])
        s = _KINDS[prim.kind][0](origin, d.take(rays, axis=0), prim)
        closer = s < best.take(rays)
        rays = rays[closer]
        best[rays] = s[closer]
        best_idx[rays] = k
    p = origin + d * np.where(np.isfinite(best), best, 0.0)[:, None]
    return (best.reshape(dirs.shape[:-1]), best_idx.reshape(dirs.shape[:-1]),
            p.reshape(dirs.shape))


# --- scene generation --------------------------------------------------------

def _sample_rng(seed: int, index: int) -> np.random.Generator:
    for name, value in (("seed", seed), ("index", index)):
        if not (isinstance(value, numbers.Integral) and 0 <= value < 2**64):
            raise ValueError(f"{name}={value!r} is not an integer in [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(index)))


def _unit(v):
    return v / np.linalg.norm(v)


def generate_scene(seed: int, config: SynthConfig, index: int = 0) -> SceneSpec:
    """Deterministically sample a scene that passes the view constraints."""
    rng = _sample_rng(seed, index)
    K = config.intrinsics()
    coarse = Intrinsics(config.fx, config.fy, config.cx, config.cy, 16, 12)

    for _ in range(config.max_tries):
        n = int(rng.integers(config.n_primitives[0], config.n_primitives[1] + 1))
        prims: list[Primitive] = []
        for _ in range(n):
            kind = ["plane", "box", "sphere"][int(rng.integers(0, 3))]
            u = rng.uniform(0.15, 0.85)
            v = rng.uniform(0.15, 0.85)
            z = rng.uniform(*config.depth_range)
            ray = np.array([*K.unproject(u, v), 1.0])
            size = rng.uniform(*config.size_range, size=3)
            if kind == "sphere":
                size[:] = size[0] * 0.6
            prims.append(Primitive(
                kind=kind,
                center=ray * z,
                rotation=rng.normal(size=3) * rng.uniform(0, np.pi / 3),
                size=size,
                color_a=rng.uniform(0.05, 0.95, size=3),
                color_b=rng.uniform(0.05, 0.95, size=3),
                tex_seed=int(rng.integers(0, 2 ** 62)),
                tex_scale=rng.uniform(1.2, 2.5),
            ))
        tilt = rng.normal(size=3) * 0.08
        background = Primitive(
            kind="plane",
            center=np.array([0.0, 0.0, config.background_distance]),
            rotation=np.array([tilt[0], tilt[1], 0.0]),
            size=np.full(3, np.inf),
            color_a=rng.uniform(0.05, 0.6, size=3),
            color_b=rng.uniform(0.05, 0.6, size=3),
            tex_seed=int(rng.integers(0, 2 ** 62)),
            tex_scale=rng.uniform(0.4, 0.9),
        )

        angle = np.deg2rad(rng.uniform(0.0, config.rotation_max_deg))
        axis = _unit(rng.normal(size=3))
        r = axis * angle
        tdir = _unit(rng.normal(size=3) + np.array([0, 0, config.forward_bias]))
        t_raw = tdir * rng.uniform(*config.baseline_range)

        scene = SceneSpec(seed=seed, primitives=prims, background=background,
                          motion_r=r, motion_t_raw=t_raw)
        if _scene_ok(scene, config, coarse):
            return scene
    raise GenerationError(
        f"no valid scene found in {config.max_tries} tries (seed {seed})")


def _scene_ok(scene: SceneSpec, config: SynthConfig,
              coarse: Intrinsics) -> bool:
    R = rotation_from_angle_axis(scene.motion_r)
    t = scene.motion_t_raw
    # primitives must stay well in front of both cameras
    for prim in scene.primitives:
        rad = prim.bounding_radius()
        z1 = prim.center[2]
        z2 = (R @ prim.center + t)[2]
        if z1 < rad + 0.2 or z2 < rad + 0.2:
            return False
    # coverage: enough pixels of the first view hit a primitive first
    s, idx, _ = _cast(np.zeros(3), pixel_rays(coarse), scene)
    coverage = float(np.mean((idx >= 0) & (idx < len(scene.primitives))))
    if coverage < config.min_coverage:
        return False
    # parallax proxy: mean translational displacement in image units
    with np.errstate(divide="ignore"):
        mean_inv_z = float(np.mean(np.where(np.isfinite(s), 1.0 / s, 0.0)))
    parallax = float(np.linalg.norm(t)) * mean_inv_z * max(config.fx, config.fy)
    return parallax >= config.min_parallax


def render_pair(scene: SceneSpec, config: SynthConfig,
                sample_id: int = 0) -> SamplePair:
    """Render both views and assemble ground truth in the |t| = 1 frame."""
    K = config.intrinsics()
    octaves = config.texture_octaves
    R = rotation_from_angle_axis(scene.motion_r)
    t_raw = scene.motion_t_raw
    baseline = float(np.linalg.norm(t_raw))
    # a pair with exactly zero baseline cannot be brought to the |t| = 1
    # frame; keep raw metric depth and a zero translation instead (the
    # generator never emits such pairs, but they are useful degenerate
    # inputs and must render both views identically for zero motion)
    zero_baseline = baseline < 1e-12

    dirs1 = pixel_rays(K)
    hits1 = _cast(np.zeros(3), dirs1, scene)
    s1 = hits1[0]
    hit1 = np.isfinite(s1)
    if not hit1.any():
        raise GenerationError("scene has no intersections")
    xi = np.where(hit1, 1.0 / np.where(hit1, s1, 1.0), 0.0)

    # orient normals toward the camera
    norm1 = np.zeros(dirs1.shape)
    for k, prim in enumerate([*scene.primitives, scene.background]):
        sel = hits1[1] == k
        norm1[sel] = _KINDS[prim.kind][1](hits1[2][sel], prim)
    flip = np.einsum("hwk,hwk->hw", norm1, dirs1) > 0
    norm1[flip] = -norm1[flip]
    norm1[~hit1] = (0, 0, -1.0)

    # second camera: center -R^T t, ray directions R^T d
    hits2 = _cast(-R.T @ t_raw, dirs1 @ R, scene)

    img1_full = xi_full = None
    if config.include_full:
        hits1f = _cast(np.zeros(3), pixel_rays(K.scaled(config.full_factor)),
                       scene)
        hit1f = np.isfinite(hits1f[0])
        xi_full = np.where(hit1f, 1.0 / np.where(hit1f, hits1f[0], 1.0), 0.0)
        img1_full = _texture(hits1f, scene, octaves)

    # normalize the scale: |t| = 1, inverse depths multiplied by |t_raw|
    if zero_baseline:
        motion = CameraMotion(scene.motion_r.copy(), np.zeros(3))
    else:
        xi = xi * baseline
        if xi_full is not None:
            xi_full = xi_full * baseline
        motion = CameraMotion(scene.motion_r.copy(), t_raw / baseline)

    flow, flow_valid = flow_from_depth_motion(InverseDepthMap(xi), motion, K)

    # visibility: drop pixels whose target point is occluded in view 2,
    # using the second view's depth buffer (s2 is depth in camera-2 frame
    # since the cast directions have unit z there)
    if not zero_baseline:
        flow_valid = flow_valid & ~_occluded_in_second_view(
            s1, flow.w, R, t_raw, dirs1, hits2[0])
    return SamplePair(
        img1=_texture(hits1, scene, octaves),
        img2=_texture(hits2, scene, octaves),
        xi=xi,
        normals=norm1,
        flow=flow.w,
        r=motion.r,
        t=motion.t,
        valid_depth=xi > 0,
        valid_flow=flow_valid,
        sample_id=sample_id,
        img1_full=img1_full,
        xi_full=xi_full,
    )


def _occluded_in_second_view(s1, flow_w, R, t_raw, dirs1, s2):
    """True where a first-view pixel is hidden behind a nearer surface."""
    H, W = s1.shape
    hit = np.isfinite(s1)
    p1 = dirs1 * np.where(hit, s1, 0.0)[..., None]
    z2p = (p1 @ R.T + t_raw)[..., 2]  # depth of the transported point
    # nearest-neighbor lookup of the second view's depth buffer
    xt = np.round(np.arange(W) + flow_w[..., 0] * W).astype(np.int64)
    yt = np.round(np.arange(H)[:, None] + flow_w[..., 1] * H).astype(np.int64)
    z2buf = s2[np.clip(yt, 0, H - 1), np.clip(xt, 0, W - 1)]
    return hit & np.isfinite(z2buf) & (z2buf < z2p * (1 - 8e-3) - 1e-6)


# --- dataset I/O -------------------------------------------------------------

# stored dtype of each SamplePair field, in record order; the full-resolution
# fields are stored only when the pair has them
_RECORD = {"img1": np.uint8, "img2": np.uint8, "xi": np.float32,
           "normals": np.float32, "flow": np.float32, "r": np.float64,
           "t": np.float64, "valid_depth": np.uint8, "valid_flow": np.uint8,
           "sample_id": np.int64, "img1_full": np.uint8, "xi_full": np.float32}
_IMAGES = ("img1", "img2", "img1_full")  # [0, 1] stored as 8 bits


def sample_to_record(pair: SamplePair) -> dict[str, np.ndarray]:
    rec = {}
    for name, dtype in _RECORD.items():
        value = getattr(pair, name)
        if value is not None:
            if name in _IMAGES:
                value = np.round(np.clip(value, 0, 1) * 255)
            rec[name] = np.asarray(value).astype(dtype)
    return rec


def record_to_sample(rec: dict[str, np.ndarray]) -> SamplePair:
    """Images load as float64 in [0, 1], masks as bool."""
    def load(name, value):
        if name in _IMAGES:
            return value.astype(np.float64) / 255.0
        if name == "sample_id":
            return int(value)
        return value.astype(bool if _RECORD[name] == np.uint8 else np.float64)

    return SamplePair(**{name: load(name, rec[name])
                         for name in _RECORD if name in rec})


def generate_dataset(path: str, seed: int, n_samples: int,
                     config: SynthConfig | None = None) -> None:
    """Write the pairs of scene indices 0 .. ``n_samples`` - 1 to ``path``."""
    config = config or SynthConfig()
    records = (sample_to_record(render_pair(
        generate_scene(seed, config, index=i), config, sample_id=i))
        for i in range(n_samples))
    meta = {
        "kind": "sample-pair-v1",
        "seed": int(seed),
        "n_samples": int(n_samples),
        "prng": PRNG_NAME,
        "prng_key_scheme": "(seed << 64) + sample_index",
        "config": asdict(config),
    }
    container.write_container(path, records, n_samples, meta=meta)


def load_dataset(path: str) -> tuple[list[SamplePair], dict]:
    """Read a full dataset into memory (samples are small at desk scale)."""
    records, meta = container.read_all(path)
    return [record_to_sample(r) for r in records], meta
