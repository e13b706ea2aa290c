from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from tvk import synthdata
from tvk.geometry import (
    CameraMotion,
    FlowField,
    Intrinsics,
    InverseDepthMap,
    depth_from_flow_motion,
)
from tvk.synthdata import (
    GenerationError,
    Primitive,
    SceneSpec,
    SynthConfig,
    generate_dataset,
    generate_scene,
    load_dataset,
    photoconsistency_score,
    record_to_sample,
    render_pair,
    sample_to_record,
)

from oracles import normals_from_depth

CFG_SMALL = SynthConfig(include_full=False)


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

    def test_many_scenes_satisfy_constraints(self):
        # rejection sampling always lands on a valid scene
        for i in range(100):
            scene = generate_scene(99, CFG_SMALL, index=i)
            assert len(scene.primitives) >= 1
            assert np.linalg.norm(scene.motion_t_raw) > 0


class TestRenderPair:
    def test_plane_scene_constant_flow(self):
        # single fronto-parallel plane at z=2, pure sideways translation:
        # flow x-component is fx * |t| * xi / |t| ... = fx * xi_scaled
        K = Intrinsics(1.0, 1.0, 0.5, 0.5, 32, 24)
        cfg = SynthConfig(width=32, height=24, fx=1.0, fy=1.0,
                          include_full=False)
        plane = Primitive(
            kind="bg", center=np.array([0.0, 0.0, 2.0]),
            rotation=np.zeros(3), size=np.ones(3),
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
            kind="bg", center=np.array([0.0, 0.0, 8.0]),
            rotation=np.zeros(3), size=np.ones(3),
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
        cfg = SynthConfig(include_full=False, small_baseline=True)
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


class TestPhotoconsistency:
    def test_rendered_pair_scores_low(self):
        for i in range(5):
            scene = generate_scene(55, CFG_SMALL, index=i)
            pair = render_pair(scene, CFG_SMALL)
            assert photoconsistency_score(pair) < 0.02

    def test_corrupted_flow_scores_high(self):
        rng = np.random.default_rng(0)
        scene = generate_scene(56, CFG_SMALL, index=0)
        pair = render_pair(scene, CFG_SMALL)
        pair.flow = rng.uniform(-0.3, 0.3, size=pair.flow.shape)
        assert photoconsistency_score(pair) > 0.03

    def test_zero_motion_scores_zero(self):
        cfg = SynthConfig(include_full=False, small_baseline=True)
        scene = generate_scene(57, cfg, index=0)
        scene.motion_r = np.zeros(3)
        scene.motion_t_raw = np.zeros(3)
        pair = render_pair(scene, cfg)
        assert photoconsistency_score(pair) == 0.0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ds.tvk")
        stats = generate_dataset(path, seed=5, n_samples=4, config=CFG_SMALL)
        assert stats["accepted"] == 4
        samples, meta = load_dataset(path)
        assert len(samples) == 4
        assert meta["seed"] == 5
        assert meta["prng"] == "philox4x64"
        assert samples[0].img1.shape == (CFG_SMALL.height, CFG_SMALL.width, 3)

    def test_deterministic_bytes(self, tmp_path):
        p1 = str(tmp_path / "a.tvk")
        p2 = str(tmp_path / "b.tvk")
        generate_dataset(p1, seed=9, n_samples=3, config=CFG_SMALL)
        generate_dataset(p2, seed=9, n_samples=3, config=CFG_SMALL)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_filter_reports_rejections(self, tmp_path):
        # pair 0 of seed 2 scores 0.00552, above the threshold; pairs 1-3
        # pass, so the rejected pair is skipped and generation goes on
        path = str(tmp_path / "f.tvk")
        stats = generate_dataset(path, 2, 3, SynthConfig(include_full=False),
                                 filter_threshold=0.0045)
        assert stats == {"accepted": 3, "rejected": 1}
        samples, _ = load_dataset(path)
        assert [s.sample_id for s in samples] == [1, 2, 3]

    @pytest.mark.parametrize("threshold", [0.0045, float("nan")])
    def test_filter_rejecting_every_pair_raises(self, tmp_path, monkeypatch,
                                                threshold):
        # every pair is rejected; a stub that stops after max_tries + 1
        # scores turns an endless loop into a failure instead of a hang
        config = SynthConfig(include_full=False, max_tries=3)
        calls = []

        def reject(pair):
            calls.append(pair.sample_id)
            assert len(calls) <= config.max_tries + 1, "no GenerationError"
            return 1.0

        monkeypatch.setattr(synthdata, "photoconsistency_score", reject)
        path = tmp_path / "never.tvk"
        with pytest.raises(GenerationError, match="3 pairs in a row"):
            generate_dataset(str(path), 0, 1, config,
                             filter_threshold=threshold)
        assert calls == [0, 1, 2]
        assert list(tmp_path.iterdir()) == []

    def test_record_conversion_preserves_quantized_images(self):
        scene = generate_scene(77, CFG_SMALL, index=0)
        pair = render_pair(scene, CFG_SMALL, sample_id=7)
        rec = sample_to_record(pair)
        back = record_to_sample(rec)
        assert back.sample_id == 7
        assert np.abs(back.img1 - pair.img1).max() <= 0.5 / 255 + 1e-12
        assert np.array_equal(back.valid_flow, pair.valid_flow)
        assert np.allclose(back.r, pair.r)

    def test_small_baseline_mode(self):
        cfg = SynthConfig(include_full=False, small_baseline=True)
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
