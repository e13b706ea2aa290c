"""Synthetic two-view dataset generator with perfect ground truth.

Scenes are random collections of textured planes, boxes and spheres in
front of a large background plane. Both views are rendered by casting
rays against the analytic primitives, which yields exact depth, normals
and (through the geometry module) optical flow. Translations are
normalized to unit length with depths rescaled accordingly, so the
stored inverse depth lives in the |t| = 1 frame used everywhere else.

Randomness comes from counter-based Philox streams keyed by
(dataset seed, sample index), so a (seed, config) pair fully determines
the bytes of the emitted dataset file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import container
from .geometry import (
    CameraMotion,
    FlowField,
    Intrinsics,
    InverseDepthMap,
    flow_from_depth_motion,
    pixel_rays,
    rotation_from_angle_axis,
    warp_image,
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
    small_baseline: bool = False
    texture_octaves: int = 2
    include_full: bool = True
    full_factor: int = 4
    min_coverage: float = 0.10
    max_tries: int = 200

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy,
                          self.width, self.height)


@dataclass
class Primitive:
    kind: str  # "plane" | "box" | "sphere"
    center: np.ndarray
    rotation: np.ndarray  # angle-axis
    size: np.ndarray  # half extents; spheres use size[0] as radius
    color_a: np.ndarray
    color_b: np.ndarray
    tex_seed: int
    tex_scale: float

    def bounding_radius(self) -> float:
        if self.kind == "sphere":
            return float(self.size[0])
        return float(np.linalg.norm(self.size))


@dataclass
class SceneSpec:
    seed: int
    primitives: list[Primitive]
    background: Primitive  # infinite plane; size ignored
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


def _hash_u64(ix, iy, iz, seed):
    with np.errstate(over="ignore"):
        h = (ix.astype(np.uint64) * _MIX1
             ^ iy.astype(np.uint64) * _MIX2
             ^ iz.astype(np.uint64) * _MIX3) + np.uint64(seed)
        # splitmix64 finalizer
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _value_noise(p: np.ndarray, seed: int) -> np.ndarray:
    """Single-octave trilinear value noise at points (..., 3), in [0, 1)."""
    i = np.floor(p).astype(np.int64)
    f = p - i
    f = f * f * (3.0 - 2.0 * f)  # smoothstep fade
    out = np.zeros(p.shape[:-1])
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                v = _hash_u64(i[..., 0] + dx, i[..., 1] + dy, i[..., 2] + dz,
                              seed)
                wgt = ((f[..., 0] if dx else 1 - f[..., 0])
                       * (f[..., 1] if dy else 1 - f[..., 1])
                       * (f[..., 2] if dz else 1 - f[..., 2]))
                out += v * wgt
    return out


def _texture(points: np.ndarray, prim: Primitive, octaves: int) -> np.ndarray:
    """Multi-octave noise color for surface points (..., 3)."""
    p = (points - prim.center) * prim.tex_scale
    acc = np.zeros(points.shape[:-1])
    amp = 1.0
    total = 0.0
    for o in range(octaves):
        acc += amp * _value_noise(p * (2.0 ** o), prim.tex_seed + o)
        total += amp
        amp *= 0.5
    tval = (acc / total)[..., None]
    return prim.color_a + (prim.color_b - prim.color_a) * tval


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
    s = np.where(s > RAY_EPS, s, np.inf)
    return s


def _sphere_normal(p, prim):
    n = p - prim.center
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def _intersect_plane_rect(o, d, prim, infinite=False):
    R = rotation_from_angle_axis(prim.rotation)
    n = R[:, 2]
    denom = np.einsum("...k,k->...", d, n)
    num = float((prim.center - o) @ n)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(np.abs(denom) > 1e-12, num / denom, np.inf)
    s = np.where(s > RAY_EPS, s, np.inf)
    if not infinite:
        p = o + d * np.where(np.isfinite(s), s, 0.0)[..., None]
        local = (p - prim.center) @ R
        inside = (np.abs(local[..., 0]) <= prim.size[0]) & \
                 (np.abs(local[..., 1]) <= prim.size[1])
        s = np.where(inside, s, np.inf)
    return s


def _plane_normal(prim, shape):
    R = rotation_from_angle_axis(prim.rotation)
    return np.broadcast_to(R[:, 2], shape + (3,))


def _intersect_box(o, d, prim):
    R = rotation_from_angle_axis(prim.rotation)
    ol = (o - prim.center) @ R
    dl = d @ R
    # huge finite slopes instead of inf keep the slab test NaN-free
    safe = np.where(np.abs(dl) > 1e-12, dl,
                    np.where(dl >= 0, 1e-12, -1e-12))
    inv = 1.0 / safe
    t1 = (-prim.size - ol) * inv
    t2 = (prim.size - ol) * inv
    tmin = np.minimum(t1, t2).max(axis=-1)
    tmax = np.maximum(t1, t2).min(axis=-1)
    hit = (tmax >= tmin) & (tmin > RAY_EPS)
    return np.where(hit, tmin, np.inf)


def _box_normal(p, prim):
    R = rotation_from_angle_axis(prim.rotation)
    local = (p - prim.center) @ R
    rel = np.abs(local) / prim.size
    axis = np.argmax(rel, axis=-1)
    sign = np.take_along_axis(local, axis[..., None], axis=-1)[..., 0]
    n_local = np.zeros(p.shape)
    np.put_along_axis(n_local, axis[..., None],
                      np.where(sign >= 0, 1.0, -1.0)[..., None], axis=-1)
    return n_local @ R.T


def _cast(origin: np.ndarray, dirs: np.ndarray, scene: SceneSpec,
          octaves: int, want_color=True, want_normal=True):
    """Nearest-hit ray cast. Returns (s, color, normal); s is inf on miss."""
    shape = dirs.shape[:-1]
    best = np.full(shape, np.inf)
    best_idx = np.full(shape, -1, dtype=np.int64)
    prims = list(scene.primitives) + [scene.background]
    for k, prim in enumerate(prims):
        if prim.kind == "sphere":
            s = _intersect_sphere(origin, dirs, prim)
        elif prim.kind == "box":
            s = _intersect_box(origin, dirs, prim)
        elif prim.kind == "plane":
            s = _intersect_plane_rect(origin, dirs, prim)
        elif prim.kind == "bg":
            s = _intersect_plane_rect(origin, dirs, prim, infinite=True)
        else:  # pragma: no cover
            raise ValueError(f"unknown primitive kind {prim.kind!r}")
        closer = s < best
        best = np.where(closer, s, best)
        best_idx[closer] = k

    color = np.zeros(shape + (3,)) if want_color else None
    normal = np.zeros(shape + (3,)) if want_normal else None
    hit_any = np.isfinite(best)
    p = origin + dirs * np.where(hit_any, best, 0.0)[..., None]
    for k, prim in enumerate(prims):
        sel = best_idx == k
        if not sel.any():
            continue
        pts = p[sel]
        if want_color:
            color[sel] = _texture(pts, prim, octaves)
        if want_normal:
            if prim.kind == "sphere":
                normal[sel] = _sphere_normal(pts, prim)
            elif prim.kind == "box":
                normal[sel] = _box_normal(pts, prim)
            else:
                normal[sel] = _plane_normal(prim, (pts.shape[0],))
    if want_color:
        color = np.clip(color, 0.0, 1.0)
    return best, color, normal


# --- scene generation --------------------------------------------------------

def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


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
            ray = np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
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
            kind="bg",
            center=np.array([0.0, 0.0, config.background_distance]),
            rotation=np.array([tilt[0], tilt[1], 0.0]),
            size=np.ones(3),
            color_a=rng.uniform(0.05, 0.6, size=3),
            color_b=rng.uniform(0.05, 0.6, size=3),
            tex_seed=int(rng.integers(0, 2 ** 62)),
            tex_scale=rng.uniform(0.4, 0.9),
        )

        angle = np.deg2rad(rng.uniform(0.0, config.rotation_max_deg))
        axis = _unit(rng.normal(size=3))
        r = axis * angle
        tdir = _unit(rng.normal(size=3) + np.array([0, 0, config.forward_bias]))
        if config.small_baseline:
            baseline = rng.uniform(1e-6, 1e-3)
        else:
            baseline = rng.uniform(*config.baseline_range)
        t_raw = tdir * baseline

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
    # coverage: enough non-background pixels in the first view
    dirs = pixel_rays(coarse)
    s, _, _ = _cast(np.zeros(3), dirs, scene, octaves=1,
                    want_color=False, want_normal=False)
    bg_only = SceneSpec(scene.seed, [], scene.background,
                        scene.motion_r, scene.motion_t_raw)
    s_bg, _, _ = _cast(np.zeros(3), dirs, bg_only, octaves=1,
                       want_color=False, want_normal=False)
    coverage = float(np.mean(np.isfinite(s) & (s < s_bg - 1e-9)))
    if coverage < config.min_coverage:
        return False
    # parallax proxy: mean translational displacement in image units
    if not config.small_baseline:
        with np.errstate(divide="ignore"):
            mean_inv_z = float(np.mean(np.where(np.isfinite(s), 1.0 / s, 0.0)))
        parallax = float(np.linalg.norm(t)) * mean_inv_z * max(config.fx,
                                                               config.fy)
        if parallax < config.min_parallax:
            return False
    return True


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
    s1, col1, norm1 = _cast(np.zeros(3), dirs1, scene, octaves)
    hit1 = np.isfinite(s1)
    if not hit1.any():
        raise GenerationError("scene has no intersections")
    xi = np.where(hit1, 1.0 / np.where(hit1, s1, 1.0), 0.0)

    # orient normals toward the camera
    flip = np.einsum("hwk,hwk->hw", norm1, dirs1) > 0
    norm1[flip] = -norm1[flip]
    norm1[~hit1] = (0, 0, -1.0)

    # second camera: center -R^T t, ray directions R^T d
    c2 = -R.T @ t_raw
    dirs2 = pixel_rays(K) @ R
    s2, col2, _ = _cast(c2, dirs2, scene, octaves, want_normal=False)

    img1_full = xi_full = None
    if config.include_full:
        K4 = K.scaled(config.full_factor)
        dirs1f = pixel_rays(K4)
        s1f, col1f, _ = _cast(np.zeros(3), dirs1f, scene, octaves,
                              want_normal=False)
        hit1f = np.isfinite(s1f)
        xi_full = np.where(hit1f, 1.0 / np.where(hit1f, s1f, 1.0), 0.0)
        img1_full = col1f

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
            s1, flow.w, R, t_raw, K, s2)
    return SamplePair(
        img1=col1,
        img2=col2,
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


def _occluded_in_second_view(s1, flow_w, R, t_raw, K: Intrinsics, s2):
    """True where a first-view pixel is hidden behind a nearer surface."""
    H, W = s1.shape
    hit = np.isfinite(s1)
    p1 = pixel_rays(K) * np.where(hit, s1, 0.0)[..., None]
    z2p = (p1 @ R.T + t_raw)[..., 2]  # depth of the transported point
    # nearest-neighbor lookup of the second view's depth buffer
    ys, xs = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    xt = np.clip(np.round(xs + flow_w[..., 0] * W).astype(np.int64), 0, W - 1)
    yt = np.clip(np.round(ys + flow_w[..., 1] * H).astype(np.int64), 0, H - 1)
    z2buf = s2[yt, xt]
    occluded = hit & np.isfinite(z2buf) & (z2buf < z2p * (1 - 8e-3) - 1e-6)
    return occluded


def photoconsistency_score(pair: SamplePair) -> float:
    """Mean absolute color difference between img1 and flow-warped img2."""
    warped, wvalid = warp_image(pair.img2.astype(np.float64),
                                FlowField(pair.flow.astype(np.float64)))
    valid = pair.valid_flow.astype(bool) & wvalid
    if not valid.any():
        return float("inf")
    diff = np.abs(pair.img1.astype(np.float64) - warped)
    return float(diff[valid].mean())


# --- dataset I/O -------------------------------------------------------------

def sample_to_record(pair: SamplePair) -> dict[str, np.ndarray]:
    rec = {
        "img1": np.round(np.clip(pair.img1, 0, 1) * 255).astype(np.uint8),
        "img2": np.round(np.clip(pair.img2, 0, 1) * 255).astype(np.uint8),
        "xi": pair.xi.astype(np.float32),
        "normals": pair.normals.astype(np.float32),
        "flow": pair.flow.astype(np.float32),
        "r": pair.r.astype(np.float64),
        "t": pair.t.astype(np.float64),
        "valid_depth": pair.valid_depth.astype(np.uint8),
        "valid_flow": pair.valid_flow.astype(np.uint8),
        "sample_id": np.array(pair.sample_id, dtype=np.int64),
    }
    if pair.img1_full is not None:
        rec["img1_full"] = np.round(np.clip(pair.img1_full, 0, 1)
                                    * 255).astype(np.uint8)
        rec["xi_full"] = pair.xi_full.astype(np.float32)
    return rec


def record_to_sample(rec: dict[str, np.ndarray]) -> SamplePair:
    return SamplePair(
        img1=rec["img1"].astype(np.float64) / 255.0,
        img2=rec["img2"].astype(np.float64) / 255.0,
        xi=rec["xi"].astype(np.float64),
        normals=rec["normals"].astype(np.float64),
        flow=rec["flow"].astype(np.float64),
        r=rec["r"].astype(np.float64),
        t=rec["t"].astype(np.float64),
        valid_depth=rec["valid_depth"].astype(bool),
        valid_flow=rec["valid_flow"].astype(bool),
        sample_id=int(rec["sample_id"]),
        img1_full=(rec["img1_full"].astype(np.float64) / 255.0
                   if "img1_full" in rec else None),
        xi_full=(rec["xi_full"].astype(np.float64)
                 if "xi_full" in rec else None),
    )


def generate_dataset(path: str, seed: int, n_samples: int,
                     config: SynthConfig | None = None,
                     filter_threshold: float | None = None) -> dict:
    """Write ``n_samples`` rendered pairs to ``path``; returns statistics.
    Raises ``GenerationError`` once ``config.max_tries`` pairs in a row fail
    the filter (a NaN threshold fails every pair)."""
    config = config or SynthConfig()
    stats = {"accepted": 0, "rejected": 0}

    def records() -> Iterator[dict[str, np.ndarray]]:
        index = 0
        in_a_row = 0
        while stats["accepted"] < n_samples:
            scene = generate_scene(seed, config, index=index)
            pair = render_pair(scene, config, sample_id=index)
            index += 1
            # keep a pair whose warp disagreement is within the threshold
            if (filter_threshold is not None
                    and not photoconsistency_score(pair) <= filter_threshold):
                stats["rejected"] += 1
                in_a_row += 1
                if in_a_row >= config.max_tries:
                    raise GenerationError(
                        f"filter threshold {filter_threshold} rejected "
                        f"{in_a_row} pairs in a row (seed {seed})")
                continue
            in_a_row = 0
            stats["accepted"] += 1
            yield sample_to_record(pair)

    meta = {
        "kind": "sample-pair-v1",
        "seed": int(seed),
        "n_samples": int(n_samples),
        "prng": PRNG_NAME,
        "prng_key_scheme": "(seed << 64) + sample_index",
        "filter_threshold": filter_threshold,
        "config": asdict(config),
    }
    container.write_container(path, records(), meta=meta, n_records=None)
    return stats


def load_dataset(path: str) -> tuple[list[SamplePair], dict]:
    """Read a full dataset into memory (samples are small at desk scale)."""
    records, meta = container.read_all(path)
    return [record_to_sample(r) for r in records], meta
