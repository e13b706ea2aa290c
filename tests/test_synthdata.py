from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from tvk import container
from tvk.geometry import (
    CameraMotion,
    FlowField,
    Intrinsics,
    InverseDepthMap,
    depth_from_flow_motion,
    pixel_rays,
    rotation_from_angle_axis,
)
from tvk.synthdata import (
    GenerationError,
    Primitive,
    SceneSpec,
    SynthConfig,
    generate_dataset,
    generate_scene,
    load_dataset,
    record_to_sample,
    render_pair,
    sample_to_record,
)
from tvk.synthdata import _CULL_MARGIN, _box_normal, _cast, _intersect_box

from oracles import (box_normal_argmax, cast_every_ray, intersect_box_reduce,
                     normals_from_depth, photoconsistency, texture_reference)

CFG_SMALL = SynthConfig(include_full=False)
# small-baseline pairs: a tiny baseline and no parallax requirement
CFG_SMALL_BASELINE = SynthConfig(include_full=False,
                                 baseline_range=(1e-6, 1e-3), min_parallax=0.0)


def erode(mask, iterations):
    """4-neighborhood binary erosion (keeps tests scipy-free)."""
    m = mask.copy()
    for _ in range(iterations):
        inner = m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] \
            & m[1:-1, :-2] & m[1:-1, 2:]
        m = np.zeros_like(m)
        m[1:-1, 1:-1] = inner
    return m


def same_fields(a, b) -> bool:
    """Field-by-field equality of scenes: arrays by dtype, shape and bytes."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same_fields(getattr(a, f.name), getattr(b, f.name))
            for f in fields(a))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_fields, a, b))
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


class TestGenerateScene:
    def test_same_seed_identical_serialization(self):
        a = generate_scene(11, CFG_SMALL, index=3)
        b = generate_scene(11, CFG_SMALL, index=3)
        assert same_fields(a, b)

    def test_different_index_differs(self):
        a = generate_scene(11, CFG_SMALL, index=0)
        b = generate_scene(11, CFG_SMALL, index=1)
        assert not same_fields(a, b)

    def test_primitive_count_in_range(self):
        lo, hi = CFG_SMALL.n_primitives
        for i in range(20):
            scene = generate_scene(5, CFG_SMALL, index=i)
            assert lo <= len(scene.primitives) <= hi

    def test_coverage_counts_pixels_in_front_of_the_background(self):
        # the background plane's inverse depth, computed from its pose: a
        # pixel covers the scene when its rendered depth is nearer; few
        # primitives and a high threshold make the rule reject scenes
        cfg = replace(CFG_SMALL, width=16, height=12,  # the coarse grid
                      n_primitives=(1, 3), min_coverage=0.3)
        dirs = pixel_rays(cfg.intrinsics())
        for i in range(30):
            scene = generate_scene(61, cfg, index=i)
            pair = render_pair(scene, cfg)
            bg = scene.background
            n = rotation_from_angle_axis(bg.rotation)[:, 2]
            xi_bg = (dirs @ n) / float(bg.center @ n) \
                * np.linalg.norm(scene.motion_t_raw)
            assert np.mean(pair.xi > xi_bg * (1 + 1e-9)) >= cfg.min_coverage

    @pytest.mark.parametrize("seed, index, name", [
        (-1, 0, "seed"), (2**64, 0, "seed"), (0, -1, "index"),
        (0, 2**64, "index"), (1.5, 0, "seed"), (0, 1.5, "index")])
    def test_seed_and_index_outside_the_key_range_raise(self, seed, index,
                                                        name):
        # the Philox key is (seed << 64) + index: index 2**64 of seed s
        # would be index 0 of seed s + 1, and seed 1.5 was seed 1
        with pytest.raises(ValueError, match=f"{name}="):
            generate_scene(seed, CFG_SMALL, index=index)

    def test_scene_constraints_that_no_draw_meets_raise(self):
        # the background never counts toward the coverage
        config = replace(CFG_SMALL, min_coverage=1.0, max_tries=2)
        with pytest.raises(GenerationError, match="in 2 tries"):
            generate_scene(0, config)

    def test_largest_seed_and_index_generate(self):
        last = 2**64 - 1
        scene = generate_scene(last, CFG_SMALL, index=last)
        assert scene.seed == last and len(scene.primitives) >= 1

    def test_numpy_integers_key_the_same_scene(self):
        a = generate_scene(np.uint64(4), CFG_SMALL, index=np.int64(2))
        b = generate_scene(4, CFG_SMALL, index=2)
        assert a.motion_r.tobytes() == b.motion_r.tobytes()

    def test_many_scenes_satisfy_constraints(self):
        # rejection sampling always lands on a valid scene
        for i in range(100):
            scene = generate_scene(99, CFG_SMALL, index=i)
            assert len(scene.primitives) >= 1
            assert np.linalg.norm(scene.motion_t_raw) > 0


@pytest.mark.parametrize("field, bad, edge", [
    ("texture_octaves", 0, 1), ("max_tries", 0, 1), ("full_factor", 0, 1),
    ("n_primitives", (5, 3), (3, 3)),
    ("depth_range", (5.0, 2.0), (2.0, 2.0)),
    ("depth_range", (0.0, 2.0), (1e-3, 2.0)),
    ("size_range", (1.2, 0.35), (0.5, 0.5)),
    ("size_range", (-0.1, 1.0), (1e-3, 1.0)),
    ("baseline_range", (0.3, 0.1), (0.1, 0.1)),
    ("min_coverage", 1.5, 1.0), ("min_coverage", -0.1, 0.0),
    ("min_coverage", float("nan"), 0.5),
    ("min_parallax", float("nan"), 0.0), ("min_parallax", float("inf"), 0.0),
    ("forward_bias", float("nan"), 0.0),
    ("background_distance", 1.0, 5.001), ("background_distance", 5.0, 5.001),
    ("background_distance", float("inf"), 5.001),
    ("texture_octaves", 1.5, 1), ("max_tries", 2.5, 2),
    ("full_factor", 1.5, 1), ("width", 64.0, 64),
    ("n_primitives", (1.5, 3), (1, 3)), ("include_full", "no", False),
    ("include_full", 1, np.bool_(True))])
def test_config_rejects_a_value_that_fails_late_or_renders_black(field, bad,
                                                                 edge):
    with pytest.raises(ValueError, match=field):
        SynthConfig(**{field: bad})
    assert getattr(SynthConfig(**{field: edge}), field) == edge


class TestRenderPair:
    def test_plane_scene_constant_flow(self):
        # single fronto-parallel plane at z=2, pure sideways translation:
        # flow x-component is fx * |t| * xi / |t| ... = fx * xi_scaled
        K = Intrinsics(1.0, 1.0, 0.5, 0.5, 32, 24)
        cfg = SynthConfig(width=32, height=24, fx=1.0, fy=1.0,
                          include_full=False)
        plane = Primitive(
            kind="plane", center=np.array([0.0, 0.0, 2.0]),
            rotation=np.zeros(3), size=np.full(3, np.inf),
            color_a=np.full(3, 0.2), color_b=np.full(3, 0.8),
            tex_seed=7, tex_scale=3.0)
        scene = SceneSpec(seed=0, primitives=[], background=plane,
                          motion_r=np.zeros(3),
                          motion_t_raw=np.array([1.0, 0.0, 0.0]))
        pair = render_pair(scene, cfg)
        # depth 2 with |t|=1: flow_x = fx * t_x / z = 0.5
        assert np.allclose(pair.flow[..., 0], 0.5, atol=1e-9)
        assert np.allclose(pair.flow[..., 1], 0.0, atol=1e-9)
        assert np.allclose(pair.xi, 0.5, atol=1e-12)
        del K

    def test_sphere_normals_match_analytic(self):
        cfg = SynthConfig(width=128, height=96, include_full=False)
        center = np.array([0.0, 0.0, 3.0])
        sphere = Primitive(
            kind="sphere", center=center, rotation=np.zeros(3),
            size=np.full(3, 1.0), color_a=np.full(3, 0.3),
            color_b=np.full(3, 0.7), tex_seed=3, tex_scale=3.0)
        bg = Primitive(
            kind="plane", center=np.array([0.0, 0.0, 8.0]),
            rotation=np.zeros(3), size=np.full(3, np.inf),
            color_a=np.full(3, 0.1), color_b=np.full(3, 0.5),
            tex_seed=5, tex_scale=1.0)
        scene = SceneSpec(seed=0, primitives=[sphere], background=bg,
                          motion_r=np.zeros(3),
                          motion_t_raw=np.array([0.3, 0.0, 0.0]))
        pair = render_pair(scene, cfg)

        # check the derived normals-from-depth against the analytic sphere
        K = cfg.intrinsics()
        baseline = 0.3
        depth = InverseDepthMap(pair.xi / baseline)  # back to metric frame
        derived = normals_from_depth(depth, K).n
        from tvk.geometry import pixel_rays
        rays = pixel_rays(K)
        z = np.where(pair.xi > 0, baseline / np.where(pair.xi > 0, pair.xi, 1), 0)
        pts = rays * z[..., None]
        on_sphere = (np.abs(np.linalg.norm(pts - center, axis=-1) - 1.0) < 1e-6)
        # on the visible cap the outward normal already faces the camera
        analytic = pts - center
        # interior of the sphere silhouette only (normals become tangent at
        # the rim and finite differences break across the depth edge)
        interior = erode(on_sphere, 4)
        assert interior.sum() > 200
        cosang = np.clip(np.sum(derived * analytic, axis=-1), -1, 1)
        ang = np.degrees(np.arccos(cosang[interior]))
        assert np.max(ang) < 2.0

        # the stored ground-truth normals are exactly analytic
        stored = pair.normals[interior]
        assert np.abs(stored - analytic[interior]).max() < 1e-9

    def test_zero_motion_identical_images(self):
        cfg = CFG_SMALL_BASELINE
        scene = generate_scene(3, cfg, index=0)
        scene.motion_r = np.zeros(3)
        scene.motion_t_raw = np.zeros(3)
        pair = render_pair(scene, cfg)
        assert np.array_equal(pair.img1, pair.img2)
        assert np.all(pair.flow == 0)

    def test_unit_translation_and_consistency(self):
        cfg = CFG_SMALL
        for i in range(5):
            scene = generate_scene(21, cfg, index=i)
            pair = render_pair(scene, cfg, sample_id=i)
            assert abs(np.linalg.norm(pair.t) - 1.0) < 1e-9
            K = cfg.intrinsics()
            depth, dv = depth_from_flow_motion(
                FlowField(pair.flow), pair.motion(), K)
            both = dv & pair.valid_flow & (pair.xi > 0)
            assert both.mean() > 0.3
            rel = np.abs(depth.xi[both] - pair.xi[both]) / pair.xi[both]
            assert rel.max() < 1e-4

    def test_depths_positive_or_masked(self):
        scene = generate_scene(33, CFG_SMALL, index=0)
        pair = render_pair(scene, CFG_SMALL)
        assert np.all(pair.xi >= 0)
        assert np.all(pair.xi[pair.valid_depth] > 0)

    def test_full_resolution_fields(self):
        cfg = SynthConfig()
        scene = generate_scene(8, cfg, index=0)
        pair = render_pair(scene, cfg)
        assert pair.img1_full.shape == (cfg.height * 4, cfg.width * 4, 3)
        assert pair.xi_full.shape == (cfg.height * 4, cfg.width * 4)


class TestTexture:
    """``render_pair``'s images against ``texture_reference``, one scalar
    value-noise color per sampled pixel, at the hit points of each view's
    cast (0 where the ray misses)."""

    def compare(self, scene, cfg, n_per_view=70):
        pair = render_pair(scene, cfg)
        K = cfg.intrinsics()
        R = rotation_from_angle_axis(scene.motion_r)
        views = ((pair.img1, np.zeros(3), pixel_rays(K)),
                 (pair.img2, -R.T @ scene.motion_t_raw, pixel_rays(K) @ R),
                 (pair.img1_full, np.zeros(3),
                  pixel_rays(K.scaled(cfg.full_factor))))
        prims = [*scene.primitives, scene.background]
        rng = np.random.default_rng(0)
        got, want, missed = [], [], 0
        for img, origin, dirs in views:
            _, idx, points = _cast(origin, dirs, scene)
            H, W = idx.shape
            for flat in rng.choice(H * W, n_per_view, replace=False):
                r, c = divmod(int(flat), W)
                got.append(img[r, c])
                if idx[r, c] < 0:
                    missed += 1
                    want.append(np.zeros(3))
                else:
                    want.append(texture_reference(
                        points[r, c], prims[idx[r, c]], cfg.texture_octaves))
        got, want = np.array(got), np.array(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # and bitwise equal: the vectorized pass does the same float and
        # uint64 operations in the same order as the scalar reference
        assert np.array_equal(got, want)
        return missed

    def test_three_octaves_match_the_scalar_reference(self):
        cfg = SynthConfig(texture_octaves=3)
        assert self.compare(generate_scene(11, cfg, index=0), cfg) == 0

    def test_missed_rays_read_zero(self):
        def prim(kind, center, size, seed):
            return Primitive(
                kind=kind, center=np.array(center), rotation=np.full(3, 0.3),
                size=np.array(size), color_a=np.array([0.1, 0.5, 0.9]),
                color_b=np.array([0.9, 0.2, 0.4]), tex_seed=seed,
                tex_scale=1.7)

        # a background of finite extent: rays past its edges hit nothing
        background = prim("plane", [0.0, 0.0, 8.0], [4.0, 3.0, np.inf], 2**62)
        background.rotation = np.zeros(3)
        scene = SceneSpec(
            seed=0, primitives=[prim("sphere", [0.3, 0.0, 3.0], [0.8] * 3, 1),
                                prim("box", [-0.6, 0.2, 4.0], [0.5] * 3, 2),
                                prim("plane", [0.0, -0.5, 3.5], [1, 0.4, 0], 3)],
            background=background, motion_r=np.array([0.0, 0.05, 0.0]),
            motion_t_raw=np.array([0.2, 0.0, 0.05]))
        assert self.compare(scene, SynthConfig()) > 20


def _prim(kind, center, size, rotation, seed=1):
    return Primitive(kind=kind, center=np.array(center, dtype=np.float64),
                     rotation=np.array(rotation, dtype=np.float64),
                     size=np.array(size, dtype=np.float64),
                     color_a=np.full(3, 0.2), color_b=np.full(3, 0.8),
                     tex_seed=seed, tex_scale=1.5)


def _same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# the sign patterns of a box's 8 corners
_CORNER_SIGNS = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T


def _half_extents(prim):
    """A box's half extents; a rectangle's, with 0 across its plane."""
    return prim.size if prim.kind == "box" else np.array([*prim.size[:2], 0.0])


def _lines_at_distance(origin, center, rho, n=12):
    """n ray directions from ``origin`` whose lines pass exactly ``rho``
    from ``center`` (|center - origin| > rho), around the view axis."""
    c = center - origin
    u = np.cross(c, [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(c, u)
    v /= np.linalg.norm(v)
    w = rho * np.linalg.norm(c) / np.sqrt(c @ c - rho * rho)
    ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return c + w * (np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v)


class TestCast:
    """``_cast`` tests each primitive only on the rays near it;
    ``cast_every_ray`` tests every ray. The two agree bitwise."""

    @pytest.mark.parametrize("seed", [0, 5, 9, 13])
    def test_culled_cast_matches_every_ray_at_full_resolution(self, seed):
        cfg = SynthConfig()
        scene = generate_scene(seed, cfg, index=seed % 3)
        R = rotation_from_angle_axis(scene.motion_r)
        dirs = pixel_rays(cfg.intrinsics().scaled(cfg.full_factor))
        for origin, d in ((np.zeros(3), dirs),
                          (-R.T @ scene.motion_t_raw, dirs @ R)):
            _same_bytes(_cast(origin, d, scene),
                        cast_every_ray(origin, d, scene))

    @staticmethod
    def scene():
        prims = [_prim("sphere", [0.4, -0.2, 3.0], [0.7] * 3, [0, 0, 0]),
                 _prim("box", [-0.7, 0.3, 4.0], [0.5, 0.3, 0.4],
                       [0.3, -0.2, 0.5]),
                 _prim("plane", [0.2, 0.6, 3.5], [0.6, 0.4, 0.9],
                       [0.4, 0.1, -0.3])]
        # finite extent: bounding_radius is inf (size[2]), the rectangle not
        background = _prim("plane", [0.0, 0.0, 8.0], [4.0, 3.0, np.inf],
                           [0.05, -0.03, 0.0])
        return SceneSpec(seed=0, primitives=prims, background=background,
                         motion_r=np.zeros(3),
                         motion_t_raw=np.array([0.2, 0.0, 0.0]))

    def test_grazing_rays_and_a_finite_background(self):
        scene = self.scene()
        prims, background = scene.primitives, scene.background
        for origin in (np.zeros(3), np.array([0.3, -0.1, 0.2])):
            dirs = []
            for prim in [*prims, background]:
                rho = prim.cull_radius()
                margin = _CULL_MARGIN * (
                    rho + np.linalg.norm(prim.center - origin))
                # inside, on and outside the cull sphere, and on either side
                # of its widened edge
                for e in (-1e-3, -1e-9, 0.0, 1e-9, 0.999 * margin / rho,
                          1.001 * margin / rho, 1e-3):
                    dirs.append(_lines_at_distance(
                        origin, prim.center, rho * (1 + e)))
                if prim.kind != "sphere":  # at the corners: edge hits
                    R = rotation_from_angle_axis(prim.rotation)
                    dirs.append(prim.center - origin
                                + (_CORNER_SIGNS * _half_extents(prim)) @ R.T)
            dirs = np.concatenate(dirs)
            got = _cast(origin, dirs, scene)
            _same_bytes(got, cast_every_ray(origin, dirs, scene))
            assert set(np.unique(got[1])) == {-1, 0, 1, 2, 3}

    def test_lines_past_a_corner_at_the_cull_radius(self):
        """A line through a point just inside a corner of a box or of a
        rectangle, square to the line from the center to that corner,
        passes at the cull radius and meets the primitive at the corner
        alone: a cull radius even slightly too small drops the hit."""
        scene = self.scene()
        hits = 0
        for k, prim in enumerate([*scene.primitives, scene.background]):
            if prim.kind == "sphere":
                continue
            R = rotation_from_angle_axis(prim.rotation)
            for sgn in _CORNER_SIGNS:
                q = prim.center + (1 - 1e-9) * (R @ (sgn * _half_extents(prim)))
                u = R[:, 2] if prim.kind == "plane" else \
                    np.cross(q - prim.center, R[:, 2])
                u /= np.linalg.norm(u)
                origin = q + 4.0 * u
                dirs = np.array([-u, q - origin])
                got = _cast(origin, dirs, scene)
                _same_bytes(got, cast_every_ray(origin, dirs, scene))
                hits += int(np.sum(got[1] == k))
        assert hits >= 32


class TestBoxExactness:
    """``_intersect_box`` and ``_box_normal`` take the slab overlap and the
    face axis per component; the reductions they replace must give the
    same bits."""

    # dyadic center and half extents: an axis-aligned box's corner and edge
    # points have exact local coordinates, so their face ratios tie exactly
    aligned = _prim("box", [0.25, -0.125, 3.0], [0.5, 0.25, 0.75], [0, 0, 0])
    tilted = _prim("box", [0.25, -0.125, 3.0], [0.5, 0.25, 0.75],
                   [0.3, -0.2, 0.5])

    def test_slab_overlap_matches_the_reductions(self):
        rng = np.random.default_rng(0)
        grid = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3)).reshape(3, -1).T
        corners_and_edges = grid[(grid != 0).sum(axis=1) >= 2]
        # directions in the box frame, parallel to one or two slabs: exactly
        # (0) and below the 1e-12 slope floor
        parallel = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0],
                             [0.0, -0.05, 1.0], [1e-13, 0.0, 1.0],
                             [-1e-13, 1e-13, 1.0], [0.3, -0.0, 1.0],
                             [0.0, 0.6, 1.0]])
        for prim in (self.aligned, self.tilted):
            R = rotation_from_angle_axis(prim.rotation)
            # origins in the box frame: before it on its z axis (the world
            # origin for the aligned box), off to a side, and inside
            for local in ([-0.25, 0.125, -3.0], [1.2, 0.7, -2.8],
                          0.3 * prim.size):
                origin = prim.center + R @ local
                toward = (prim.center + (corners_and_edges * prim.size) @ R.T
                          - origin)
                d = np.concatenate([toward, parallel @ R.T,
                                    rng.normal(size=(200, 3)) + [0, 0, 3]])
                got = _intersect_box(origin, d, prim)
                want = intersect_box_reduce(origin, d, prim)
                assert got.tobytes() == want.tobytes()
                if local[2] == -3.0:  # edge hits and parallel hits
                    assert np.isfinite(got[:len(toward)]).sum() >= 8
                    assert np.isfinite(got[len(toward):][:7]).sum() >= 3
                elif local[2] > 0:  # inside: no entry point lies ahead
                    assert np.isinf(got).all()

    def test_face_choice_takes_the_first_axis_on_ties(self):
        for prim in (self.aligned, self.tilted):
            R = rotation_from_angle_axis(prim.rotation)
            grid = np.array(np.meshgrid(*[[-1.0, -0.4, 0.0, 0.4, 1.0]] * 3)
                            ).reshape(3, -1).T
            on_surface = grid[(np.abs(grid) == 1).any(axis=1)]
            p = prim.center + (on_surface * prim.size) @ R.T
            got, want = _box_normal(p, prim), box_normal_argmax(p, prim)
            assert got.tobytes() == want.tobytes()
            if prim is self.aligned:  # its corners and edges tie exactly
                rel = np.abs(p - prim.center) / prim.size
                ties = (rel == rel.max(axis=1, keepdims=True)).sum(axis=1)
                assert (ties == 2).any() and (ties == 3).any()

class TestPhotoconsistency:
    def test_rendered_pair_scores_low(self):
        for i in range(5):
            scene = generate_scene(55, CFG_SMALL, index=i)
            pair = render_pair(scene, CFG_SMALL)
            assert photoconsistency(pair) < 0.02

    def test_corrupted_flow_scores_high(self):
        rng = np.random.default_rng(0)
        scene = generate_scene(56, CFG_SMALL, index=0)
        pair = render_pair(scene, CFG_SMALL)
        pair.flow = rng.uniform(-0.3, 0.3, size=pair.flow.shape)
        assert photoconsistency(pair) > 0.03

    def test_zero_motion_scores_zero(self):
        cfg = CFG_SMALL_BASELINE
        scene = generate_scene(57, cfg, index=0)
        scene.motion_r = np.zeros(3)
        scene.motion_t_raw = np.zeros(3)
        pair = render_pair(scene, cfg)
        assert photoconsistency(pair) == 0.0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ds.tvk")
        assert generate_dataset(path, seed=5, n_samples=4,
                                config=CFG_SMALL) is None
        samples, meta = load_dataset(path)
        assert len(samples) == 4
        assert meta["seed"] == 5 and meta["n_samples"] == 4
        assert "filter_threshold" not in meta
        assert meta["prng"] == "philox4x64"
        assert samples[0].img1.shape == (CFG_SMALL.height, CFG_SMALL.width, 3)

    def test_deterministic_bytes(self, tmp_path):
        p1 = str(tmp_path / "a.tvk")
        p2 = str(tmp_path / "b.tvk")
        generate_dataset(p1, seed=9, n_samples=3, config=CFG_SMALL)
        generate_dataset(p2, seed=9, n_samples=3, config=CFG_SMALL)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_record_i_is_the_pair_of_scene_index_i(self, tmp_path):
        path = str(tmp_path / "ds.tvk")
        generate_dataset(path, 3, 4, CFG_SMALL)
        records, _ = container.read_all(path)
        assert len(records) == 4
        for i, record in enumerate(records):
            expected = sample_to_record(render_pair(
                generate_scene(3, CFG_SMALL, index=i), CFG_SMALL, sample_id=i))
            assert list(record) == list(expected)
            for name, value in expected.items():
                assert record[name].dtype == value.dtype, name
                assert record[name].shape == value.shape, name
                assert record[name].tobytes() == value.tobytes(), name

    def test_seed_outside_the_key_range_raises_and_leaves_no_file(
            self, tmp_path):
        with pytest.raises(ValueError, match="seed="):
            generate_dataset(str(tmp_path / "ds.tvk"), 2**64, 2, CFG_SMALL)
        assert list(tmp_path.iterdir()) == []

    def test_record_conversion_preserves_quantized_images(self):
        # the stored format: key order and dtype of every field
        stored = [("img1", np.uint8), ("img2", np.uint8), ("xi", np.float32),
                  ("normals", np.float32), ("flow", np.float32),
                  ("r", np.float64), ("t", np.float64),
                  ("valid_depth", np.uint8), ("valid_flow", np.uint8),
                  ("sample_id", np.int64)]
        full = [("img1_full", np.uint8), ("xi_full", np.float32)]
        dtypes = dict(stored + full)
        for include_full in (False, True):
            cfg = replace(CFG_SMALL, include_full=include_full)
            pair = render_pair(generate_scene(77, cfg, index=0), cfg,
                               sample_id=7)
            rec = sample_to_record(pair)
            assert [(k, v.dtype) for k, v in rec.items()] == \
                stored + (full if include_full else [])
            back = record_to_sample(rec)
            for f in fields(pair):
                a, b = getattr(pair, f.name), getattr(back, f.name)
                if a is None:
                    assert b is None and not include_full
                elif f.name == "sample_id":
                    assert type(b) is int and b == a == 7
                elif f.name.startswith("img"):
                    assert b.dtype == np.float64
                    assert np.abs(b - a).max() <= 0.5 / 255 + 1e-12
                elif f.name.startswith("valid"):
                    assert b.dtype == bool and np.array_equal(b, a)
                else:
                    assert b.dtype == np.float64
                    assert np.array_equal(b, a.astype(dtypes[f.name]))

    def test_small_baseline_mode(self):
        cfg = CFG_SMALL_BASELINE
        scene = generate_scene(4, cfg, index=0)
        assert np.linalg.norm(scene.motion_t_raw) < 1e-3
        pair = render_pair(scene, cfg)
        assert abs(np.linalg.norm(pair.t) - 1.0) < 1e-9


class TestMotionDistribution:
    def test_rotation_within_range(self):
        for i in range(30):
            scene = generate_scene(13, CFG_SMALL, index=i)
            angle = np.degrees(np.linalg.norm(scene.motion_r))
            assert angle <= CFG_SMALL.rotation_max_deg + 1e-9

    def test_baseline_within_range(self):
        lo, hi = CFG_SMALL.baseline_range
        for i in range(30):
            scene = generate_scene(14, CFG_SMALL, index=i)
            b = np.linalg.norm(scene.motion_t_raw)
            assert lo - 1e-9 <= b <= hi + 1e-9
