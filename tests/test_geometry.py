import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvk.geometry import (
    CameraMotion,
    DegenerateMotionError,
    FlowField,
    Intrinsics,
    InverseDepthMap,
    angle_axis_from_rotation,
    depth_from_flow_motion,
    flow_from_depth_motion,
    rotation_from_angle_axis,
    triangulate,
    warp_batch,
)

from oracles import (
    bilinear_sample_scalar,
    flow_at_pixel,
    normals_from_depth,
    rotation_oracle,
    triangulate_lstsq,
)

K_TEST = Intrinsics(fx=0.89, fy=1.19, cx=0.5, cy=0.5, width=32, height=24)
K_SYNTH = Intrinsics(fx=0.89, fy=1.19, cx=0.5, cy=0.5, width=64, height=48)


def random_motion(rng, max_angle=0.5):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    r = axis * rng.uniform(0.05, max_angle)
    t = rng.normal(size=3)
    t /= np.linalg.norm(t)
    return CameraMotion(r, t)


class TestRotations:
    def test_zero_rotation_is_identity(self):
        assert np.allclose(rotation_from_angle_axis([0, 0, 0]), np.eye(3))

    def test_half_turn_about_x(self):
        R = rotation_from_angle_axis([np.pi, 0, 0])
        assert np.allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-12)

    def test_against_quaternion_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = rng.normal(size=3)
            r *= rng.uniform(0, np.pi - 1e-3) / np.linalg.norm(r)
            assert np.allclose(rotation_from_angle_axis(r), rotation_oracle(r),
                               atol=1e-12)

    def test_axis_fixed_and_trace(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=3)
        r *= 0.7 / np.linalg.norm(r)
        R = rotation_from_angle_axis(r)
        axis = r / np.linalg.norm(r)
        assert np.allclose(R @ axis, axis, atol=1e-12)
        assert np.isclose(np.trace(R), 1 + 2 * np.cos(0.7), atol=1e-12)

    def test_orthonormality_and_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = rng.normal(size=3) * rng.uniform(0, 3)
            R = rotation_from_angle_axis(r)
            assert np.linalg.norm(R.T @ R - np.eye(3), ord=np.inf) < 1e-12
            assert abs(np.linalg.det(R) - 1) < 1e-12

    def test_small_angle_taylor_branch(self):
        r = np.array([1e-9, -2e-9, 5e-10])
        R = rotation_from_angle_axis(r)
        assert np.allclose(R, rotation_oracle(r), atol=1e-16)
        assert np.linalg.norm(R.T @ R - np.eye(3), ord=np.inf) < 1e-12

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_angle_axis([np.nan, 0, 0])

    def test_inverse_trivial_cases(self):
        assert np.allclose(angle_axis_from_rotation(np.eye(3)), 0.0)
        r = angle_axis_from_rotation(np.diag([1.0, -1.0, -1.0]))
        assert np.isclose(np.linalg.norm(r), np.pi)
        assert np.allclose(np.abs(r / np.pi), [1, 0, 0], atol=1e-12)

    def test_round_trip_1000_rotations(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            r = rng.normal(size=3)
            r *= rng.uniform(0, np.pi - 1e-6) / np.linalg.norm(r)
            R = rotation_from_angle_axis(r)
            back = rotation_from_angle_axis(angle_axis_from_rotation(R))
            worst = max(worst, float(np.abs(back - R).max()))
        assert worst < 1e-8

    def test_near_pi_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = axis * (np.pi - 1e-7)
            R = rotation_from_angle_axis(r)
            back = rotation_from_angle_axis(angle_axis_from_rotation(R))
            assert np.abs(back - R).max() < 1e-7

    def test_canonical_magnitude(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            R = rotation_from_angle_axis(rng.normal(size=3) * 2)
            assert np.linalg.norm(angle_axis_from_rotation(R)) <= np.pi + 1e-12

    def test_non_orthonormal_rejected(self):
        M = np.eye(3)
        M[0, 1] = 1e-3
        with pytest.raises(ValueError):
            angle_axis_from_rotation(M)


class TestFlowFromDepth:
    def test_identity_motion_zero_flow(self):
        rng = np.random.default_rng(4)
        xi = rng.uniform(0.2, 1.0, size=(K_TEST.height, K_TEST.width))
        flow, valid = flow_from_depth_motion(
            InverseDepthMap(xi), CameraMotion(np.zeros(3), np.zeros(3)), K_TEST)
        assert np.all(flow.w == 0.0)
        assert valid.all()

    def test_pure_rotation_depth_invariant(self):
        rng = np.random.default_rng(5)
        xi = rng.uniform(0.2, 1.0, size=(K_TEST.height, K_TEST.width))
        m = CameraMotion([0.02, -0.03, 0.01], [0, 0, 0])
        f1, _ = flow_from_depth_motion(InverseDepthMap(xi), m, K_TEST)
        f2, _ = flow_from_depth_motion(InverseDepthMap(2 * xi), m, K_TEST)
        assert np.abs(f1.w - f2.w).max() < 1e-12

    def test_principal_point_sideways_translation(self):
        K = Intrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=32, height=32)
        # pixel nearest the principal point: exact center is between pixels,
        # so use a 1-pixel map built at the principal point via a custom K
        Kc = Intrinsics(fx=1.0, fy=1.0, cx=0.5 / 8, cy=0.5 / 8, width=8, height=8)
        xi = np.full((8, 8), 0.5)
        m = CameraMotion([0, 0, 0], [1.0, 0, 0])
        flow, _ = flow_from_depth_motion(InverseDepthMap(xi), m, Kc)
        # pixel (0, 0) center sits exactly at the principal point
        assert np.isclose(flow.w[0, 0, 0], 1.0 * (1.0 / 2.0), atol=1e-12)
        assert np.isclose(flow.w[0, 0, 1], 0.0, atol=1e-12)
        del K

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        xi = rng.uniform(0.2, 0.8, size=(K_TEST.height, K_TEST.width))
        m = random_motion(rng, max_angle=0.1)
        R = rotation_oracle(m.r)
        flow, valid = flow_from_depth_motion(InverseDepthMap(xi), m, K_TEST)
        for _ in range(50):
            i = rng.integers(0, K_TEST.height)
            j = rng.integers(0, K_TEST.width)
            w = flow_at_pixel(i, j, 1.0 / xi[i, j], R, m.t, K_TEST)
            assert np.allclose(flow.w[i, j], w, atol=1e-12)
        assert valid.mean() > 0.5

    def test_infinity_pixels_get_rotation_flow(self):
        xi = np.zeros((K_TEST.height, K_TEST.width))
        m = CameraMotion([0, 0.05, 0], [0.0, 0.0, 1.0])
        flow_inf, _ = flow_from_depth_motion(InverseDepthMap(xi), m, K_TEST)
        rot_only = CameraMotion([0, 0.05, 0], [0, 0, 0])
        tiny = np.full_like(xi, 1e-12)
        flow_rot, _ = flow_from_depth_motion(InverseDepthMap(tiny), rot_only, K_TEST)
        assert np.abs(flow_inf.w - flow_rot.w).max() < 1e-6

    def test_behind_camera_masked(self):
        # z = 0.5 everywhere; backing up by 1 puts the scene behind camera 2
        xi = np.full((K_TEST.height, K_TEST.width), 2.0)
        flow, valid = flow_from_depth_motion(
            InverseDepthMap(xi), CameraMotion([0, 0, 0], [0, 0, -1.0]), K_TEST)
        assert not valid.any()
        assert np.all(flow.w == 0)


class TestDepthFromFlow:
    def test_round_trip_random_scenes(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            xi = rng.uniform(0.1, 0.9, size=(K_TEST.height, K_TEST.width))
            m = random_motion(rng, max_angle=0.2)
            flow, fvalid = flow_from_depth_motion(InverseDepthMap(xi), m, K_TEST)
            depth, dvalid = depth_from_flow_motion(flow, m, K_TEST)
            both = fvalid & dvalid
            assert both.mean() > 0.2
            rel = np.abs(depth.xi[both] - xi[both]) / xi[both]
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5

    @settings(derandomize=True, deadline=None, max_examples=60,
              database=None)
    @given(xi=arrays(np.float64, (K_SYNTH.height, K_SYNTH.width),
                     elements=st.floats(0.05, 3.0)),
           r=arrays(np.float64, 3, elements=st.floats(-0.3, 0.3)),
           t=arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)))
    def test_round_trip_property(self, xi, r, t):
        # depth_from_flow_motion inverts flow_from_depth_motion on every
        # pixel both calls keep
        assume(np.linalg.norm(t) > 0.1)
        m = CameraMotion(r, t / np.linalg.norm(t))
        flow, fvalid = flow_from_depth_motion(InverseDepthMap(xi), m, K_SYNTH)
        depth, dvalid = depth_from_flow_motion(flow, m, K_SYNTH)
        both = fvalid & dvalid
        np.testing.assert_allclose(depth.xi[both], xi[both], rtol=1e-6)

    def test_epipole_degeneracy_masked(self):
        Kc = Intrinsics(fx=1.0, fy=1.0, cx=0.5 / 8, cy=0.5 / 8, width=8, height=8)
        flow = FlowField(np.zeros((8, 8, 2)))
        depth, valid = depth_from_flow_motion(
            flow, CameraMotion([0, 0, 0], [0, 0, 1.0]), Kc)
        assert not valid[0, 0]
        assert depth.xi[0, 0] == 0.0

    def test_single_pixel_inversion(self):
        Kc = Intrinsics(fx=1.0, fy=1.0, cx=0.5 / 8, cy=0.5 / 8, width=8, height=8)
        xi = np.full((8, 8), 0.5)
        m = CameraMotion([0, 0, 0], [1.0, 0, 0])
        flow, _ = flow_from_depth_motion(InverseDepthMap(xi), m, Kc)
        depth, valid = depth_from_flow_motion(flow, m, Kc)
        assert valid[0, 0]
        assert np.isclose(1.0 / depth.xi[0, 0], 2.0, atol=1e-9)

    def test_rotation_only_raises(self):
        flow = FlowField(np.zeros((K_TEST.height, K_TEST.width, 2)))
        with pytest.raises(DegenerateMotionError):
            depth_from_flow_motion(flow, CameraMotion([0, 0.1, 0], [0, 0, 0]), K_TEST)

    def test_unnormalized_translation_rejected(self):
        flow = FlowField(np.zeros((K_TEST.height, K_TEST.width, 2)))
        with pytest.raises(ValueError):
            depth_from_flow_motion(flow, CameraMotion([0, 0, 0], [0, 0, 2.0]), K_TEST)


class TestTriangulate:
    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = random_motion(rng)
            R = rotation_from_angle_axis(m.r)
            d1 = np.column_stack([rng.normal(scale=0.5, size=(200, 2)),
                                  np.ones(200)])
            d2 = np.column_stack([rng.normal(scale=0.5, size=(200, 2)),
                                  np.ones(200)])
            mid, ok = triangulate(d1, d2, R, m.t)
            assert ok.all()
            ref = triangulate_lstsq(d1, d2, R, m.t)
            err = np.linalg.norm(mid - ref, axis=1)
            assert np.all(err <= 1e-9 * np.linalg.norm(ref, axis=1))
            # a grid of rays gives the bits of the same rays in a list
            grid, grid_ok = triangulate(d1.reshape(4, 50, 3),
                                        d2.reshape(4, 50, 3), R, m.t)
            assert np.array_equal(grid.reshape(200, 3), mid)
            assert grid_ok.all()

    def test_exactly_parallel_rays_are_masked(self):
        rng = np.random.default_rng(22)
        d1 = np.column_stack([rng.normal(size=(6, 2)), np.ones(6)])
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        quarter_turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0]])
        for R in (np.eye(3), quarter_turn):
            # rows 0-2 parallel (same, doubled and reversed direction), rows
            # 3-5 not: the second ray of row k is the first ray of row k + 1
            d2 = np.concatenate([d1[:3] * [[1.0], [2.0], [-0.5]],
                                 np.roll(d1, -1, axis=0)[3:]]) @ R.T
            _, ok = triangulate(d1, d2, R, t)
            assert ok.tolist() == [False] * 3 + [True] * 3


def warp_one(img, w):
    """``warp_batch`` of one (H, W, C) image by its (H, W, 2) flow: the
    (H, W, C) result and the (H, W) mask."""
    out, valid = warp_batch(img.transpose(2, 0, 1)[None],
                            w.transpose(2, 0, 1)[None])
    return out[0].transpose(1, 2, 0), valid[0]


class TestWarp:
    def test_zero_flow_identity(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(size=(12, 16, 3))
        out, valid = warp_one(img, np.zeros((12, 16, 2)))
        assert np.allclose(out, img)
        assert valid.all()

    def test_integer_shift_one_column(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(size=(6, 8, 1))
        w = np.zeros((6, 8, 2))
        w[..., 0] = 1.0 / 8  # one pixel right in normalized units
        out, valid = warp_one(img, w)
        assert np.allclose(out[:, :-1], img[:, 1:])
        assert valid[:, :-1].all() and not valid[:, -1].any()

    def test_matches_naive_sampler(self):
        rng = np.random.default_rng(11)
        img = rng.uniform(size=(10, 14, 2))
        w = rng.uniform(-0.3, 0.3, size=(10, 14, 2))
        out, valid = warp_one(img, w)
        cases = [(img, w, out, valid, 1e-6)]
        # the network's path: a float32 (N, C, H, W) batch
        imgs = rng.uniform(size=(3, 2, 10, 14)).astype(np.float32)
        flows = rng.uniform(-0.3, 0.3, size=(3, 2, 10, 14)).astype(np.float32)
        outs, valids = warp_batch(imgs, flows)
        assert outs.dtype == np.float32 and valids.shape == (3, 10, 14)
        hwc = lambda a: a.transpose(1, 2, 0)  # noqa: E731
        cases += [(hwc(imgs[n]), hwc(flows[n]), hwc(outs[n]), valids[n], 1e-5)
                  for n in range(3)]
        for img, w, out, valid, atol in cases:
            for i in range(10):
                for j in range(14):
                    ref = bilinear_sample_scalar(
                        img.astype(np.float64), j + float(w[i, j, 0]) * 14,
                        i + float(w[i, j, 1]) * 10)
                    if ref is None:
                        assert not valid[i, j]
                        assert np.all(out[i, j] == 0)
                    else:
                        assert valid[i, j]
                        assert np.allclose(out[i, j], ref, atol=atol)


class TestNormals:
    def test_frontoparallel_plane(self):
        xi = np.full((K_TEST.height, K_TEST.width), 1.0 / 3.0)
        n = normals_from_depth(InverseDepthMap(xi), K_TEST).n
        assert np.allclose(n, np.broadcast_to([0, 0, -1.0], n.shape), atol=1e-9)

    def test_slanted_plane_constant_normal(self):
        # plane z = 1 + x: for a ray (a, b, 1) scaled by z, the hit point
        # satisfies z = 1 + a z  =>  z = 1 / (1 - a)
        K = Intrinsics(fx=2.0, fy=2.0, cx=0.5, cy=0.5, width=32, height=24)
        u = (np.arange(K.width) + 0.5) / K.width
        a = (u - K.cx) / K.fx
        z = 1.0 / (1.0 - a)
        xi = np.broadcast_to(1.0 / z[None, :], (K.height, K.width)).copy()
        n = normals_from_depth(InverseDepthMap(xi), K).n
        expected = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        inner = n[1:-1, 1:-1]
        assert np.abs(inner - expected).max() < 1e-6

    def test_unit_length(self):
        rng = np.random.default_rng(12)
        xi = rng.uniform(0.2, 1.0, size=(K_TEST.height, K_TEST.width))
        n = normals_from_depth(InverseDepthMap(xi), K_TEST).n
        assert np.abs(np.linalg.norm(n, axis=-1) - 1).max() < 1e-6

    def test_infinity_pixels_default(self):
        xi = np.zeros((K_TEST.height, K_TEST.width))
        n = normals_from_depth(InverseDepthMap(xi), K_TEST).n
        assert np.allclose(n, np.broadcast_to([0, 0, -1.0], n.shape))


class TestDomainTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1, fy=1, cx=0.5, cy=0.5, width=32, height=32)
        with pytest.raises(ValueError):
            Intrinsics(fx=1, fy=1, cx=1.5, cy=0.5, width=32, height=32)
        with pytest.raises(ValueError):
            Intrinsics(fx=1, fy=1, cx=0.5, cy=0.5, width=4, height=32)
        with pytest.raises(ValueError, match="height="):
            Intrinsics(fx=1, fy=1, cx=0.5, cy=0.5, width=32, height=32.5)

    def test_motion_normalized(self):
        m = CameraMotion([0, 0, 0.1], [3.0, 0, 4.0]).normalized()
        assert np.isclose(np.linalg.norm(m.t), 1.0, atol=1e-9)
        with pytest.raises(DegenerateMotionError):
            CameraMotion([0, 0, 0.1], [0, 0, 1e-12]).normalized()

    def test_inverse_depth_validation(self):
        with pytest.raises(ValueError):
            InverseDepthMap(np.array([[-0.1, 0.2]]))
