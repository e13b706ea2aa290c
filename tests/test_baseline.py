import warnings

import numpy as np
import pytest

from tvk import baseline
from tvk.baseline import (
    AmbiguousDecompositionError,
    Correspondences,
    EstimationError,
    decompose_essential,
    eight_point,
    estimate_motion_from_flow,
    ransac_essential,
    refine_motion,
    sample_correspondences,
    sampson_distance,
)
from tvk.geometry import (
    CameraMotion,
    DegenerateMotionError,
    FlowField,
    Intrinsics,
    InverseDepthMap,
    depth_from_flow_motion,
    flow_from_depth_motion,
    rotation_from_angle_axis,
)
from tvk.metrics import l1_inv, motion_angular_errors
from tvk.synthdata import SynthConfig, generate_scene, render_pair

from oracles import (
    ba_jacobian_blocks_reference,
    eight_point_loop,
    inverse_motion,
    ransac_essential_loop,
    ransac_hypotheses_loop,
    rotation_oracle,
    refine_motion_reference,
    sampson_distance_loop,
    tangent_basis_cross,
)


def skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def make_matches(rng, n, r, t, noise=0.0, outliers=0.0):
    """Project random 3D points into both views; optionally corrupt."""
    R = rotation_from_angle_axis(np.asarray(r, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64)
    pts = np.stack([
        rng.uniform(-1.2, 1.2, n),
        rng.uniform(-0.9, 0.9, n),
        rng.uniform(2.0, 6.0, n),
    ], axis=1)
    p2 = pts @ R.T + t
    x1 = pts[:, :2] / pts[:, 2:3]
    x2 = p2[:, :2] / p2[:, 2:3]
    if noise > 0:
        x1 = x1 + rng.normal(scale=noise, size=x1.shape)
        x2 = x2 + rng.normal(scale=noise, size=x2.shape)
    n_out = int(round(outliers * n))
    if n_out:
        idx = rng.choice(n, size=n_out, replace=False)
        x2[idx] = rng.uniform(-0.8, 0.8, size=(n_out, 2))
    return Correspondences(x1, x2), np.asarray(np.arange(n) >= 0)


def align_essential(E_est, E_true):
    """Scale/sign alignment: essential matrices are homogeneous."""
    scale = np.sum(E_est * E_true) / np.sum(E_est * E_est)
    return E_est * scale


R_TEST = np.array([0.05, -0.08, 0.03])
T_TEST = np.array([0.6, -0.2, 0.75])
T_TEST = T_TEST / np.linalg.norm(T_TEST)


class TestEightPoint:
    def test_noiseless_recovers_e(self):
        rng = np.random.default_rng(0)
        corr, _ = make_matches(rng, 40, R_TEST, T_TEST)
        E = eight_point(corr)
        E_true = skew(T_TEST) @ rotation_from_angle_axis(R_TEST)
        E_true = E_true / np.linalg.norm(E_true) * np.linalg.norm(E)
        aligned = align_essential(E, E_true)
        assert np.linalg.norm(aligned - E_true) < 1e-9

    def test_epipolar_residuals_tiny(self):
        rng = np.random.default_rng(1)
        corr, _ = make_matches(rng, 60, R_TEST, T_TEST)
        E = eight_point(corr)
        ones = np.ones((len(corr), 1))
        x1 = np.hstack([corr.x1, ones])
        x2 = np.hstack([corr.x2, ones])
        res = np.abs(np.sum(x2 * (x1 @ E.T), axis=1))
        assert res.max() < 1e-10

    def test_singular_values_projected(self):
        rng = np.random.default_rng(2)
        corr, _ = make_matches(rng, 30, R_TEST, T_TEST, noise=2e-4)
        E = eight_point(corr)
        s = np.linalg.svd(E, compute_uv=False)
        assert abs(s[0] - s[1]) < 1e-9 * s[0]
        assert s[2] < 1e-12

    def test_too_few_points(self):
        rng = np.random.default_rng(3)
        corr, _ = make_matches(rng, 7, R_TEST, T_TEST)
        with pytest.raises(EstimationError):
            eight_point(corr)

    def test_coplanar_with_baseline_degenerate(self):
        # points on the y=0 plane together with a baseline along x lie in
        # a single plane through both camera centers
        rng = np.random.default_rng(4)
        n = 24
        pts = np.stack([rng.uniform(-1, 1, n), np.zeros(n),
                        rng.uniform(2, 5, n)], axis=1)
        t = np.array([1.0, 0.0, 0.0])
        p2 = pts + t
        corr = Correspondences(pts[:, :2] / pts[:, 2:3], p2[:, :2] / p2[:, 2:3])
        with pytest.raises(EstimationError):
            eight_point(corr)


class TestRansac:
    def test_all_inliers_full_mask(self):
        rng = np.random.default_rng(5)
        corr, _ = make_matches(rng, 200, R_TEST, T_TEST)
        E, mask = ransac_essential(corr, seed=1)
        assert mask.all()

    def test_outlier_rejection_and_motion(self):
        rng = np.random.default_rng(6)
        corr, _ = make_matches(rng, 200, R_TEST, T_TEST, outliers=0.3)
        E, mask = ransac_essential(corr, seed=2)
        # outliers occupy the last 30% only by construction of the corrupt
        # indices; instead check motion accuracy
        motion = decompose_essential(E, corr.subset(mask))
        err = motion_angular_errors(motion.normalized(),
                                    CameraMotion(R_TEST, T_TEST))
        assert err.rot_deg < 0.5
        assert err.trans_deg < 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        corr, _ = make_matches(rng, 100, R_TEST, T_TEST, outliers=0.2)
        E1, m1 = ransac_essential(corr, seed=3)
        E2, m2 = ransac_essential(corr, seed=3)
        assert np.array_equal(m1, m2)
        assert np.array_equal(E1, E2)

    def test_inlier_count_nondecreasing_in_iters(self):
        rng = np.random.default_rng(8)
        corr, _ = make_matches(rng, 120, R_TEST, T_TEST, noise=5e-5,
                               outliers=0.25)
        counts = []
        for iters in (10, 50, 200):
            _, mask = ransac_essential(corr, max_iters=iters, seed=4)
            counts.append(int(mask.sum()))
        assert counts[0] <= counts[1] <= counts[2]

    def test_too_few_points(self):
        for n in (0, 5, 7):
            with pytest.raises(EstimationError, match="at least 8"):
                ransac_essential(Correspondences(np.zeros((n, 2)),
                                                 np.zeros((n, 2))), seed=0)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iterations_raises(self, max_iters):
        corr, _ = make_matches(np.random.default_rng(9), 20, R_TEST, T_TEST)
        with pytest.raises(ValueError, match="max_iters"):
            ransac_essential(corr, max_iters=max_iters)

    @pytest.mark.parametrize("threshold", [0.0, -1e-4, np.nan, np.inf])
    def test_threshold_not_finite_and_positive_raises(self, threshold):
        corr, _ = make_matches(np.random.default_rng(9), 20, R_TEST, T_TEST)
        with pytest.raises(ValueError, match="threshold"):
            ransac_essential(corr, threshold=threshold)


class TestBlockScoring:
    """The block-scored RANSAC equals the one-hypothesis-at-a-time loop in
    tests/oracles.py bitwise: same draws, same E, same inlier mask."""

    def assert_matches_loop(self, corr, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E, mask = ransac_essential(corr, **kw)
        E_ref, mask_ref = ransac_essential_loop(corr.x1, corr.x2, **kw)
        assert np.array_equal(mask, mask_ref)
        assert np.array_equal(E, E_ref)

    @pytest.mark.parametrize("outliers,seed", [(0.0, 3), (0.3, 4)])
    def test_seeded_matches_equal_loop(self, outliers, seed):
        rng = np.random.default_rng(40 + seed)
        corr, _ = make_matches(rng, 150, R_TEST, T_TEST, noise=5e-4,
                               outliers=outliers)
        self.assert_matches_loop(corr, seed=seed)

    def test_degenerate_samples_skipped(self):
        # 10 distinct matches plus 6 copies: most minimal samples repeat a
        # match and are rank deficient, the rest are solved
        rng = np.random.default_rng(30)
        corr, _ = make_matches(rng, 10, R_TEST, T_TEST, noise=1e-4)
        dup = rng.integers(0, 10, 6)
        corr = Correspondences(np.vstack([corr.x1, corr.x1[dup]]),
                               np.vstack([corr.x2, corr.x2[dup]]))
        hyps = ransac_hypotheses_loop(corr.x1, corr.x2, max_iters=120,
                                      seed=5)
        assert 0 < sum(h is None for h in hyps) < len(hyps)
        self.assert_matches_loop(corr, max_iters=120, seed=5)

    def test_all_samples_degenerate_raises(self):
        # points on a plane through both camera centres
        rng = np.random.default_rng(4)
        pts = np.stack([rng.uniform(-1, 1, 24), np.zeros(24),
                        rng.uniform(2, 5, 24)], axis=1)
        p2 = pts + np.array([1.0, 0.0, 0.0])
        corr = Correspondences(pts[:, :2] / pts[:, 2:3],
                               p2[:, :2] / p2[:, 2:3])
        hyps = ransac_hypotheses_loop(corr.x1, corr.x2, max_iters=60)
        assert all(h is None for h in hyps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="8 inliers"):
                ransac_essential(corr, max_iters=60)

    @pytest.mark.parametrize("rng_seed,noise", [(38, 2e-3), (34, 5e-3)])
    def test_inlier_count_ties_decided_by_score(self, rng_seed, noise):
        # noise near the threshold: hypotheses 8 and 74 (one per block),
        # or 63, 65 and 86 (one block), share the top inlier count with
        # different inlier sets; the lowest mean distance wins, not the
        # first and not the highest
        rng = np.random.default_rng(rng_seed)
        corr, _ = make_matches(rng, 60, R_TEST, T_TEST, noise=noise)
        hyps = ransac_hypotheses_loop(corr.x1, corr.x2, max_iters=137,
                                      seed=6)
        top = max(h[0] for h in hyps if h)
        tied = [i for i, h in enumerate(hyps) if h and h[0] == top]
        winner = min(tied, key=lambda i: hyps[i][1])
        loser = max(tied, key=lambda i: hyps[i][1])
        masks = {i: hyps[i][2] for i in (tied[0], winner, loser)}
        assert not np.array_equal(masks[winner], masks[tied[0]])
        assert not np.array_equal(masks[winner], masks[loser])
        _, mask = ransac_essential(corr, max_iters=137, seed=6)
        assert np.array_equal(mask, masks[winner])
        self.assert_matches_loop(corr, max_iters=137, seed=6)

    @pytest.mark.parametrize("max_iters",
                             [1, 7, 8, 9, 24, 25, 49, 51, 56, 57, 137])
    def test_partial_last_block(self, max_iters):
        rng = np.random.default_rng(50)
        corr, _ = make_matches(rng, 90, R_TEST, T_TEST, noise=3e-4,
                               outliers=0.2)
        self.assert_matches_loop(corr, max_iters=max_iters, seed=7)

    def test_batch_of_one_equals_loop(self):
        rng = np.random.default_rng(60)
        for n in (8, 9, 17, 64, 233, 400):
            corr, _ = make_matches(rng, n, rng.normal(size=3) * 0.1,
                                   rng.normal(size=3), noise=1e-3,
                                   outliers=0.2)
            E = eight_point(corr)
            assert np.array_equal(E, eight_point_loop(corr.x1, corr.x2))
            E_any = rng.normal(size=(3, 3))
            assert np.array_equal(sampson_distance(E_any, corr),
                                  sampson_distance_loop(E_any, corr.x1,
                                                        corr.x2))


class TestEarlyExit:
    """RANSAC stops after the block in which one hypothesis counts every
    match as an inlier; the result stays the full loop's bitwise. Blocks
    hold 8, 16, 32, then 50 hypotheses, so they end after hypotheses 8, 24,
    56, 106, ... (counting from 1)."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """Hypotheses ``_eight_point`` is asked to solve, and its calls."""
        count = {"rows": 0, "calls": 0}
        solve = baseline._eight_point

        def counting(x1, x2):
            count["rows"] += len(x1)
            count["calls"] += 1
            return solve(x1, x2)

        monkeypatch.setattr(baseline, "_eight_point", counting)
        return count

    @staticmethod
    def matches(outliers=0.0):
        rng = np.random.default_rng(70)
        corr, _ = make_matches(rng, 400, R_TEST, T_TEST, noise=5e-4,
                               outliers=outliers)
        return corr

    @staticmethod
    def first_full_count(corr, seed):
        hyps = ransac_hypotheses_loop(corr.x1, corr.x2, max_iters=60,
                                      seed=seed)
        return next(i for i, h in enumerate(hyps) if h and h[0] == len(corr))

    def assert_equals_loop(self, corr, **kw):
        E, mask = ransac_essential(corr, **kw)
        loop = ransac_essential_loop(corr.x1, corr.x2, **kw)
        assert np.array_equal(mask, loop[1])
        assert np.array_equal(E, loop[0])
        return mask

    def test_all_inliers_stop_after_the_block_of_the_first_full_count(
            self, solved):
        corr = self.matches()
        assert self.first_full_count(corr, seed=8) == 14
        mask = self.assert_equals_loop(corr, seed=8)
        assert mask.all()
        # blocks of 8 and 16 hypotheses plus the final fit to the inliers
        assert solved == {"rows": 24 + 1, "calls": 2 + 1}

    def test_outliers_solve_every_hypothesis(self, solved):
        mask = self.assert_equals_loop(self.matches(outliers=0.3), seed=8)
        assert not mask.all()
        # 8 + 16 + 32 + 8 x 50 + 44: blocks stay large when no stop comes
        assert solved == {"rows": 500 + 1, "calls": 12 + 1}

    @pytest.mark.parametrize("seed,first,rows,calls", [
        (26, 7, 8, 1),    # the last hypothesis of block 1
        (55, 8, 24, 2),   # the first of block 2
        (18, 23, 24, 2),  # the last of block 2
        (3, 24, 56, 3),   # the first of block 3
    ])
    def test_exit_at_a_block_edge(self, solved, seed, first, rows, calls):
        corr = self.matches()
        assert self.first_full_count(corr, seed) == first
        mask = self.assert_equals_loop(corr, seed=seed)
        assert mask.all()
        assert solved == {"rows": rows + 1, "calls": calls + 1}

    @pytest.mark.parametrize("max_iters", [1, 7, 8, 49, 137])
    def test_exit_within_the_cap(self, solved, max_iters):
        corr = self.matches()
        # the first hypothesis of seed 20 already counts every match
        hyps = ransac_hypotheses_loop(corr.x1, corr.x2, max_iters=1, seed=20)
        assert hyps[0][0] == len(corr)
        mask = self.assert_equals_loop(corr, max_iters=max_iters, seed=20)
        assert mask.all()
        assert solved == {"rows": min(max_iters, 8) + 1, "calls": 2}


class TestDecompose:
    def test_noiseless_motion_recovery(self):
        rng = np.random.default_rng(9)
        corr, _ = make_matches(rng, 80, R_TEST, T_TEST)
        E = eight_point(corr)
        motion = decompose_essential(E, corr)
        err = motion_angular_errors(motion.normalized(),
                                    CameraMotion(R_TEST, T_TEST))
        assert err.rot_deg < 0.1
        assert err.trans_deg < 0.1

    def test_pure_sideways_translation(self):
        rng = np.random.default_rng(10)
        t = np.array([1.0, 0.0, 0.0])
        corr, _ = make_matches(rng, 60, np.zeros(3), t)
        E = eight_point(corr)
        motion = decompose_essential(E, corr)
        err = motion_angular_errors(motion.normalized(),
                                    CameraMotion(np.zeros(3), t))
        assert err.rot_deg < 0.1
        assert err.trans_deg < 0.1

    def test_reversed_correspondences_inverse_motion(self):
        rng = np.random.default_rng(11)
        corr, _ = make_matches(rng, 80, R_TEST, T_TEST)
        rev = Correspondences(corr.x2, corr.x1)
        E = eight_point(rev)
        motion = decompose_essential(E, rev)
        inv = CameraMotion(*inverse_motion(R_TEST, T_TEST)).normalized()
        err = motion_angular_errors(motion.normalized(), inv)
        assert err.rot_deg < 0.1
        assert err.trans_deg < 0.1

    def test_cheirality_tie_raises(self):
        # zero-flow matches with a sideways E give parallel rays in every
        # candidate, so no decomposition collects a single vote
        rng = np.random.default_rng(21)
        x = rng.uniform(-0.3, 0.3, size=(8, 2))
        corr = Correspondences(x, x.copy())
        E_true = skew(np.array([1.0, 0.0, 0.0]))  # R = I, t = x
        with pytest.raises(AmbiguousDecompositionError):
            decompose_essential(E_true, corr)


class TestRefine:
    def test_noiseless_unchanged(self):
        rng = np.random.default_rng(12)
        corr, _ = make_matches(rng, 60, R_TEST, T_TEST)
        gt = CameraMotion(R_TEST.copy(), T_TEST.copy())
        out = refine_motion(gt, corr)
        assert not out.no_progress
        assert np.abs(out.motion.r - gt.r).max() < 1e-8
        assert np.abs(out.motion.t - gt.t).max() < 1e-8
        assert out.final_cost <= out.initial_cost + 1e-15

    def test_jacobian_matches_finite_differences(self):
        from tvk.baseline import (_ba_jacobian, _ba_residuals, _front_depths,
                                  _tangent_basis)
        rng = np.random.default_rng(13)
        n = 12
        corr, _ = make_matches(rng, n, R_TEST, T_TEST, noise=1e-3)
        R = rotation_from_angle_axis(R_TEST)
        t = T_TEST.copy()
        a = corr.x1.copy()
        z1, _ = _front_depths(R, t, corr)
        xi = 1.0 / np.clip(z1, 1e-6, None)
        res0, Q = _ba_residuals(R, t, a, xi, corr.x1, corr.x2)
        B = _tangent_basis(t)
        J2 = _ba_jacobian(R, t, xi, Q, B)
        assert J2.shape == (n, 2, 8)
        # assemble the dense Jacobian over (camera 5, points 3 each): the
        # image-1 rows are the constant [0 | I 0], the image-2 rows are J2
        J = np.zeros((4 * n, 5 + 3 * n))
        for k in range(n):
            J[4 * k:4 * k + 2, 5 + 3 * k:7 + 3 * k] = np.eye(2)
            J[4 * k + 2:4 * k + 4, 0:5] = J2[k, :, 0:5]
            J[4 * k + 2:4 * k + 4, 5 + 3 * k:8 + 3 * k] = J2[k, :, 5:8]

        def residuals_at(delta):
            Rn = rotation_from_angle_axis(delta[0:3]) @ R
            tn = t + B @ delta[3:5]
            tn = tn / np.linalg.norm(tn)
            pt = delta[5:].reshape(n, 3)
            an = a + pt[:, 0:2]
            xin = xi + pt[:, 2]
            r, _ = _ba_residuals(Rn, tn, an, xin, corr.x1, corr.x2)
            return r.reshape(-1)

        step = 1e-7
        num = np.zeros_like(J)
        for k in range(J.shape[1]):
            d = np.zeros(J.shape[1])
            d[k] = step
            num[:, k] = (residuals_at(d) - residuals_at(-d)) / (2 * step)
        denom = np.maximum(np.abs(num), 1e-4)
        assert (np.abs(num - J) / denom).max() < 1e-5

    def test_damped_schur_step_matches_dense_solve(self, monkeypatch):
        # every trial step of two iterations, read off the parameters that
        # refine_motion evaluates, against the dense solve of
        # (H + lam (diag(H) + 1e-12 I)) delta = -J^T r with H = J^T J, at
        # the damping the schedule gives (x 1/3 on acceptance, x 4 if not)
        residuals = baseline._ba_residuals
        rng = np.random.default_rng(16)
        n = 12
        corr, _ = make_matches(rng, n, R_TEST, T_TEST, noise=1e-3)
        evaluated = []

        def spy(R, t, a, xi, x1, x2):
            res, Q = residuals(R, t, a, xi, x1, x2)
            evaluated.append(((R, t, a, xi), float(np.sum(res ** 2))))
            return res, Q

        def dense_step(R, t, a, xi, lam):
            res, Q = residuals(R, t, a, xi, corr.x1, corr.x2)
            B = tangent_basis_cross(t)
            Jc, Jp = ba_jacobian_blocks_reference(R, t, xi, Q, B)
            J = np.zeros((4 * n, 5 + 3 * n))
            for k in range(n):
                J[4 * k:4 * k + 4, 0:5] = Jc[k]
                J[4 * k:4 * k + 4, 5 + 3 * k:8 + 3 * k] = Jp[k]
            H = J.T @ J
            delta = np.linalg.solve(H + lam * np.diag(np.diag(H) + 1e-12),
                                    -J.T @ res.reshape(-1))
            dp = delta[5:].reshape(n, 3)
            t_new = t + B @ delta[3:5]
            return (rotation_from_angle_axis(delta[0:3]) @ R,
                    t_new / np.linalg.norm(t_new), a + dp[:, 0:2],
                    xi + dp[:, 2])

        monkeypatch.setattr(baseline, "_ba_residuals", spy)
        refine_motion(CameraMotion(R_TEST + 0.01, T_TEST + 0.02), corr,
                      max_iters=2)
        (base, cost), lam, accepted = evaluated[0], 1e-6, 0
        for trial, trial_cost in evaluated[1:]:
            for got, want, was in zip(trial, dense_step(*base, lam), base):
                step = np.abs(want - was).max()
                assert step > 0
                assert np.abs(got - want).max() <= 1e-9 * step
            if trial_cost < cost:
                base, cost, lam = trial, trial_cost, lam / 3.0
                accepted += 1
            else:
                lam *= 4.0
        # the second iteration starts away from a = x1, so res1 is not 0
        assert accepted == 2

    def test_monte_carlo_noise_improvement(self):
        # half-pixel noise at a 640-wide image in normalized units; the
        # unrefined estimate is a minimal-sample hypothesis as produced
        # inside RANSAC, refined over all matches (an all-points
        # normalized 8-point initialization is already near the maximum
        # likelihood optimum at this noise, so comparing against it only
        # measures estimator variance)
        sigma = 0.5 / 640.0
        rng = np.random.default_rng(14)
        gt = CameraMotion(R_TEST, T_TEST)
        wins = 0
        trials = 100
        for k in range(trials):
            corr, _ = make_matches(rng, 100, R_TEST, T_TEST, noise=sigma)
            idx = rng.choice(100, 8, replace=False)
            try:
                init = decompose_essential(eight_point(corr.subset(idx)), corr)
            except (EstimationError, AmbiguousDecompositionError):
                trials -= 1
                continue
            refined = refine_motion(init, corr).motion
            e0 = motion_angular_errors(init.normalized(), gt).rot_deg
            e1 = motion_angular_errors(refined.normalized(), gt).rot_deg
            if e1 <= e0 + 1e-9:
                wins += 1
        assert wins >= 0.9 * trials

    def test_too_few_matches(self):
        corr = Correspondences(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(EstimationError):
            refine_motion(CameraMotion(R_TEST, T_TEST), corr)

    def test_inliers_behind_a_camera_do_not_derail(self):
        # a rendered pair with 30 % of its flow vectors perturbed: 3 of the
        # 311 RANSAC inliers triangulate behind a camera under the 8-point
        # motion; refined over them as well, the translation ended 68.5
        # degrees off (1.4 degrees for the 8-point start)
        cfg = SynthConfig()
        K = cfg.intrinsics()
        s = render_pair(generate_scene(7, cfg, 0), cfg, 0)
        rng = np.random.default_rng(3)
        w = s.flow.astype(np.float64).copy()
        hit = rng.random(w.shape[:2]) < 0.3
        w[hit] += rng.normal(0, 0.05, (int(hit.sum()), 2))
        corr = sample_correspondences(FlowField(w), s.valid_flow, 400, 1, K)
        E, inliers = ransac_essential(corr, seed=1)
        start = decompose_essential(E, corr.subset(inliers))
        refined = refine_motion(start, corr, inliers).motion
        gt = CameraMotion(s.r, s.t)
        e0 = motion_angular_errors(start.normalized(), gt).trans_deg
        e1 = motion_angular_errors(refined.normalized(), gt).trans_deg
        assert e1 <= e0

    def test_too_few_matches_in_front(self):
        # every match triangulates behind the first camera for this motion
        rng = np.random.default_rng(15)
        corr, _ = make_matches(rng, 20, R_TEST, T_TEST)
        flipped = CameraMotion(R_TEST, -np.asarray(T_TEST))
        with pytest.raises(EstimationError, match="in front of both cameras"):
            refine_motion(flipped, corr)


class TestStructuredStep:
    def test_closed_form_block_inverse_matches_lapack(self):
        from tvk.baseline import _sym3_inverse
        rng = np.random.default_rng(17)
        A = rng.normal(size=(200, 3, 3))
        M = A @ A.transpose(0, 2, 1) + 1e-3 * np.eye(3)
        got = _sym3_inverse(M.transpose(1, 2, 0)).transpose(2, 0, 1)
        want = np.linalg.inv(M)
        err = np.abs(got - want).max(axis=(1, 2))
        assert np.all(err <= 1e-10 * np.abs(want).max(axis=(1, 2)))

    def test_closed_form_block_inverse_flags_singular_blocks(self):
        from tvk.baseline import _sym3_inverse
        M = np.tile(np.eye(3)[:, :, None], (1, 1, 4))
        assert _sym3_inverse(M) is not None
        singular = M.copy()
        singular[2, 2, 1] = 0.0  # a point block with no depth information
        assert _sym3_inverse(singular) is None
        nan = M.copy()
        nan[0, 1, 3] = nan[1, 0, 3] = np.nan
        assert _sym3_inverse(nan) is None

    def test_rendered_pairs_match_dense_reference(self):
        # the pipeline's inputs to refine_motion on seeds 0-3 x 12 pairs of
        # ground-truth flow plus N(0, 5e-4) noise, as in tools/digests.py
        cfg = SynthConfig(include_full=False)
        K = cfg.intrinsics()
        compared = 0
        for seed in range(4):
            rng = np.random.Generator(np.random.Philox(key=seed))
            for i in range(12):
                s = render_pair(generate_scene(seed, cfg, index=i), cfg, i)
                flow = s.flow + rng.normal(0.0, 5e-4, s.flow.shape)
                corr = sample_correspondences(FlowField(flow), s.valid_flow,
                                              400, i, K)
                try:
                    E, inliers = ransac_essential(corr, seed=i)
                    start = decompose_essential(E, corr.subset(inliers))
                except EstimationError:
                    continue
                out = []
                for refine in (refine_motion, refine_motion_reference):
                    try:
                        out.append(refine(start, corr, inliers))
                    except EstimationError as e:
                        out.append(type(e))
                got, want = out
                if isinstance(want, type) or isinstance(got, type):
                    assert got is want
                    continue
                compared += 1
                assert np.abs(got.motion.r - want.motion.r).max() <= 1e-8
                assert np.abs(got.motion.t - want.motion.t).max() <= 1e-8
                assert got.no_progress == want.no_progress
                if max(got.iterations, want.iterations) < 100:
                    assert got.iterations == want.iterations
        assert compared >= 40


K_BASE = Intrinsics(fx=0.89, fy=1.19, cx=0.5, cy=0.5, width=64, height=48)


def gt_scene(rng, K=K_BASE):
    xi = rng.uniform(0.05, 0.4, size=(K.height, K.width))
    # piecewise structure: overwrite blocks for depth discontinuities
    for _ in range(4):
        i = rng.integers(0, K.height - 8)
        j = rng.integers(0, K.width - 8)
        xi[i:i + 8, j:j + 8] = rng.uniform(0.05, 0.4)
    m = CameraMotion(rng.normal(size=3) * 0.05,
                     rng.normal(size=3)).normalized()
    flow, valid = flow_from_depth_motion(InverseDepthMap(xi), m, K)
    return xi, m, flow, valid


class TestBaselineDepth:
    def test_gt_flow_gt_motion_l1_inv(self):
        rng = np.random.default_rng(15)
        xi, m, flow, valid = gt_scene(rng)
        depth, dvalid = depth_from_flow_motion(flow, m, K_BASE)
        both = valid & dvalid & (xi > 0)
        z = 1.0 / depth.xi[both]
        z_gt = 1.0 / xi[both]
        assert l1_inv(z, z_gt) < 1e-4

    def test_rotation_only_raises(self):
        flow = FlowField(np.zeros((K_BASE.height, K_BASE.width, 2)))
        with pytest.raises(DegenerateMotionError):
            depth_from_flow_motion(flow, CameraMotion([0, 0.1, 0], [0, 0, 0]), K_BASE)

    def test_noise_degrades_monotonically(self):
        rng = np.random.default_rng(16)
        xi, m, flow, valid = gt_scene(rng)
        errs = []
        for sigma in (0.0, 1e-4, 1e-3):
            noisy = FlowField(flow.w + rng.normal(scale=sigma + 1e-12,
                                                  size=flow.w.shape))
            depth, dvalid = depth_from_flow_motion(noisy, m, K_BASE)
            both = valid & dvalid & (xi > 0)
            errs.append(l1_inv(1.0 / depth.xi[both], 1.0 / xi[both]))
        assert errs[0] < errs[1] < errs[2]


class TestSampleCorrespondences:
    def test_all_valid_when_n_exceeds(self):
        rng = np.random.default_rng(17)
        xi, m, flow, valid = gt_scene(rng)
        corr = sample_correspondences(flow, valid, n=10 ** 9, seed=0, K=K_BASE)
        assert len(corr) == int(valid.sum())

    @pytest.mark.parametrize("other", ["intrinsics", "mask"])
    def test_another_resolution_raises(self, other):
        rng = np.random.default_rng(17)
        xi, m, flow, valid = gt_scene(rng)
        K = K_BASE.scaled(2) if other == "intrinsics" else K_BASE
        if other == "mask":
            valid = valid[:K_BASE.height // 2, :K_BASE.width // 2]
        with pytest.raises(ValueError, match="resolutions differ"):
            sample_correspondences(flow, valid, 100, seed=0, K=K)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        xi, m, flow, valid = gt_scene(rng)
        c1 = sample_correspondences(flow, valid, 100, seed=5, K=K_BASE)
        c2 = sample_correspondences(flow, valid, 100, seed=5, K=K_BASE)
        assert np.array_equal(c1.x1, c2.x1) and np.array_equal(c1.x2, c2.x2)

    def test_gt_flow_satisfies_epipolar_constraint(self):
        rng = np.random.default_rng(19)
        xi, m, flow, valid = gt_scene(rng)
        corr = sample_correspondences(flow, valid, 300, seed=1, K=K_BASE)
        E = skew(m.t) @ rotation_from_angle_axis(m.r)
        ones = np.ones((len(corr), 1))
        x1 = np.hstack([corr.x1, ones])
        x2 = np.hstack([corr.x2, ones])
        res = np.abs(np.sum(x2 * (x1 @ E.T), axis=1))
        assert res.max() < 1e-8


class TestFullPipeline:
    def test_flow_to_motion_end_to_end(self):
        rng = np.random.default_rng(20)
        xi, m, flow, valid = gt_scene(rng)
        est = estimate_motion_from_flow(flow, valid, K_BASE, seed=7)
        err = motion_angular_errors(est.normalized(), m)
        assert err.rot_deg < 0.1
        assert err.trans_deg < 0.5

    @pytest.mark.xfail(strict=True, reason="the 8-point estimate on this "
                       "input is 84 degrees off in translation; open item")
    def test_seeded_pair_with_all_inliers_recovers_translation(self):
        # seed 18, pair 8: all 400 samples are RANSAC inliers and 142 of
        # them triangulate behind a camera under the chosen decomposition
        cfg = SynthConfig(include_full=False)
        rng = np.random.default_rng(18)
        for _ in range(9):  # one noise array per pair, in index order
            noise = rng.normal(0.0, 5e-4, (cfg.height, cfg.width, 2))
        s = render_pair(generate_scene(18, cfg, 8), cfg, 8)
        flow = FlowField(s.flow.astype(np.float32) + noise)
        est = estimate_motion_from_flow(flow, s.valid_flow, cfg.intrinsics(),
                                        seed=8)
        err = motion_angular_errors(est.normalized(), s.motion())
        assert err.trans_deg <= 3.0
