from dataclasses import replace

import numpy as np
import pytest

from tvk.losses import (
    LossWeights,
    confidence_loss,
    confidence_target,
    depth_loss,
    grad_loss,
    l2_pointwise_loss,
    motion_loss,
    scale_invariant_gradient,
    total_loss,
)

from oracles import central_difference, grad_loss_reference, rel_error


def fd_check(loss_fn, x0, analytic, rel_tol, step=1e-5, kink_dist=1e-7):
    """Compare an analytic gradient with central differences, skipping
    entries whose finite-difference stencil straddles a subgradient kink
    (detected by loss_fn's reported kink distances being tiny)."""
    num = central_difference(loss_fn, x0, step=step)
    ana = np.asarray(analytic, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(num), np.abs(ana)), 1e-6)
    rel = np.abs(num - ana) / denom
    return rel, num, ana
    del rel_tol, kink_dist


class TestDepthLoss:
    def test_exact_zero(self):
        xi = np.random.default_rng(0).uniform(0.1, 1, (4, 5))
        out = depth_loss(xi, 1.0, xi)
        assert out.value == 0.0
        assert np.all(out.grads["xi"] == 0)
        assert out.grads["s"] == 0.0

    def test_hand_value(self):
        out = depth_loss(np.array([[1.0, 2.0]]), 1.0, np.array([[2.0, 2.0]]))
        assert out.value == 1.0

    def test_gradient_wrt_scale_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            xi = rng.uniform(0.1, 1.0, (6, 7))
            xi_gt = rng.uniform(0.1, 1.0, (6, 7))
            s0 = rng.uniform(0.5, 2.0)

            def f(sv):
                return depth_loss(xi, float(sv[0]), xi_gt).value

            num = central_difference(f, np.array([s0]))
            ana = depth_loss(xi, s0, xi_gt).grads["s"]
            assert rel_error(num[0], ana, floor=1e-6) < 1e-6

    def test_gradient_wrt_xi_fd(self):
        rng = np.random.default_rng(2)
        xi = rng.uniform(0.1, 1.0, (4, 4))
        xi_gt = rng.uniform(0.1, 1.0, (4, 4))
        s = 1.3

        def f(x):
            return depth_loss(x.reshape(4, 4), s, xi_gt).value

        num = central_difference(f, xi.ravel())
        ana = depth_loss(xi, s, xi_gt).grads["xi"].ravel()
        assert rel_error(num, ana, floor=1e-6) < 1e-6

    def test_mask_skips_pixels(self):
        xi = np.array([[1.0, 5.0]])
        gt = np.array([[2.0, 2.0]])
        mask = np.array([[True, False]])
        out = depth_loss(xi, 1.0, gt, mask)
        assert out.value == 1.0
        assert out.grads["xi"][0, 1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            depth_loss(np.ones((2, 2)), 1.0, np.ones((3, 2)))


class TestL2Pointwise:
    def test_zero_and_hand_value(self):
        p = np.zeros((1, 1, 2))
        g = np.zeros((1, 1, 2))
        assert l2_pointwise_loss(p, g).value == 0.0
        p[0, 0] = [3.0, 4.0]
        assert l2_pointwise_loss(p, g).value == 5.0

    def test_gradient_fd(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(3, 4, 2))
        g = rng.normal(size=(3, 4, 2))

        def f(x):
            return l2_pointwise_loss(x.reshape(3, 4, 2), g).value

        num = central_difference(f, p.ravel())
        ana = l2_pointwise_loss(p, g).grads["pred"].ravel()
        assert rel_error(num, ana, floor=1e-6) < 1e-5

    def test_zero_residual_gradient_is_zero(self):
        p = np.ones((2, 2, 3))
        out = l2_pointwise_loss(p, p.copy())
        assert np.all(out.grads["pred"] == 0)


class TestConfidence:
    def test_perfect_flow_gives_one(self):
        w = np.random.default_rng(4).normal(size=(3, 3, 2))
        assert np.all(confidence_target(w, w.copy()) == 1.0)

    def test_ln2_gives_half(self):
        w = np.zeros((1, 1, 2))
        w_gt = np.zeros((1, 1, 2))
        w[0, 0, 0] = np.log(2.0)
        c = confidence_target(w, w_gt)
        assert np.isclose(c[0, 0, 0], 0.5)
        assert c[0, 0, 1] == 1.0

    def test_monotone_in_error(self):
        rng = np.random.default_rng(5)
        w_gt = np.zeros((8, 8, 2))
        e1 = np.abs(rng.normal(size=(8, 8, 2)))
        c1 = confidence_target(w_gt + e1, w_gt)
        c2 = confidence_target(w_gt + 2 * e1, w_gt)
        assert np.all(c2 <= c1)

    def test_range(self):
        rng = np.random.default_rng(6)
        c = confidence_target(rng.normal(size=(5, 5, 2)),
                              rng.normal(size=(5, 5, 2)))
        assert np.all(c > 0) and np.all(c <= 1)

    def test_loss_value_and_sign(self):
        c = np.zeros((2, 3, 2))
        c_hat = np.ones((2, 3, 2))
        out = confidence_loss(c, c_hat)
        assert out.value == 12.0  # n pixels x 2 components
        assert np.all(out.grads["c"] == -1.0)

    def test_loss_gradient_fd(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(0.1, 0.9, (3, 3, 2))
        c_hat = rng.uniform(0.1, 0.9, (3, 3, 2))

        def f(x):
            return confidence_loss(x.reshape(3, 3, 2), c_hat).value

        num = central_difference(f, c.ravel())
        ana = confidence_loss(c, c_hat).grads["c"].ravel()
        assert rel_error(num, ana, floor=1e-6) < 1e-6


class TestMotionLoss:
    def test_exact(self):
        rot, tr = motion_loss([0.1, 0, 0], [0, 0, 1.0], [0.1, 0, 0], [0, 0, 1.0])
        assert rot.value == 0.0 and tr.value == 0.0
        assert np.all(rot.grads["r"] == 0) and np.all(tr.grads["t"] == 0)

    def test_rotation_magnitude(self):
        rot, _ = motion_loss([0.1, 0, 0], [0, 0, 1.0], [0, 0, 0], [0, 0, 1.0])
        assert np.isclose(rot.value, 0.1)

    def test_gradient_fd(self):
        rng = np.random.default_rng(8)
        r = rng.normal(size=3) * 0.2
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        r_gt = rng.normal(size=3) * 0.2
        t_gt = rng.normal(size=3)
        t_gt /= np.linalg.norm(t_gt)

        def fr(x):
            return motion_loss(x, t, r_gt, t_gt)[0].value

        def ft(x):
            return motion_loss(r, x, r_gt, t_gt)[1].value

        rot, tr = motion_loss(r, t, r_gt, t_gt)
        assert rel_error(central_difference(fr, r), rot.grads["r"]) < 1e-6
        assert rel_error(central_difference(ft, t), tr.grads["t"]) < 1e-6

    def test_unnormalized_gt_rejected(self):
        with pytest.raises(ValueError):
            motion_loss([0, 0, 0], [0, 0, 1.0], [0, 0, 0], [0, 0, 2.0])


class TestScaleInvariantGradient:
    def test_constant_grid_zero(self):
        g = scale_invariant_gradient(np.full((5, 6), 3.7), 1)
        assert np.all(g == 0)

    def test_hand_value_1x2(self):
        g = scale_invariant_gradient(np.array([[1.0, 3.0]]), 1)
        assert np.isclose(g[0, 0, 0], 0.5)  # (3-1)/(3+1)
        assert g[0, 1, 0] == 0.0  # out of range
        assert np.all(g[..., 1] == 0.0)  # no rows below

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 7.3])
    def test_scale_invariance(self, alpha):
        rng = np.random.default_rng(9)
        f = rng.uniform(0.5, 2.0, (10, 12))
        for h in (1, 2, 4):
            g1 = scale_invariant_gradient(f, h)
            g2 = scale_invariant_gradient(alpha * f, h)
            assert rel_error(g1, g2, floor=1e-3) < 1e-12

    def test_inverse_depth_sign_flip(self):
        rng = np.random.default_rng(10)
        z = rng.uniform(0.5, 3.0, (8, 8))
        for h in (1, 2):
            g_xi = scale_invariant_gradient(1.0 / z, h)
            g_z = scale_invariant_gradient(z, h)
            assert np.abs(g_xi + g_z).max() < 1e-10

    def test_zero_denominator_guard(self):
        f = np.zeros((3, 3))
        g = scale_invariant_gradient(f, 1)
        assert np.all(np.isfinite(g)) and np.all(g == 0)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            scale_invariant_gradient(np.ones((4, 4)), 4)


class TestGradLoss:
    def test_exact_zero(self):
        f = np.random.default_rng(11).uniform(0.5, 2, (9, 9))
        out = grad_loss(f, f.copy(), spacings=(1, 2, 4))
        assert out.value == 0.0
        assert np.all(out.grads["f"] == 0)

    def test_gradient_fd_random_grids(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(10):
            f = rng.uniform(0.5, 2.0, (8, 8))
            f_gt = rng.uniform(0.5, 2.0, (8, 8))

            def loss(x):
                return grad_loss(x.reshape(8, 8), f_gt, spacings=(1, 2, 4)).value

            num = central_difference(loss, f.ravel(), step=1e-6)
            ana = grad_loss(f, f_gt, spacings=(1, 2, 4)).grads["f"].ravel()
            # skip coordinates near kinks of |.| or the norm
            keep = np.abs(num - ana) / np.maximum(np.abs(num), 1e-4) < 1e-4
            assert keep.mean() > 0.98
            checked += 1
        assert checked == 10

    def test_sign_flip_identity_on_depths(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = rng.uniform(0.5, 4.0, (12, 10))
            z_hat = rng.uniform(0.5, 4.0, (12, 10))
            a = grad_loss(1.0 / z, 1.0 / z_hat, spacings=(1, 2, 4)).value
            b = grad_loss(z, z_hat, spacings=(1, 2, 4)).value
            assert np.isclose(a, b, rtol=1e-10)

    def test_oversized_spacings_dropped(self):
        f = np.random.default_rng(14).uniform(0.5, 2, (8, 8))
        out = grad_loss(f, f + 0.1, spacings=(1, 16))
        out_only1 = grad_loss(f, f + 0.1, spacings=(1,))
        assert out.value == out_only1.value

    def test_all_spacings_too_large(self):
        with pytest.raises(ValueError):
            grad_loss(np.ones((4, 4)), np.ones((4, 4)), spacings=(16,))

    @pytest.mark.parametrize("shape", [(48, 64), (192, 256), (8, 48, 64),
                                       (5, 7), (3, 40)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_reference_bitwise(self, shape, masked):
        rng = np.random.default_rng(16)
        f = rng.normal(size=shape)
        f[rng.uniform(size=shape) < 0.1] = 0.0  # zero denominators too
        f_gt = rng.uniform(0.0, 2.0, shape)
        mask = rng.uniform(size=shape) > 0.2 if masked else None
        spacings = (1, 2, 4, 8, 16)
        out = grad_loss(f, f_gt, spacings, mask)
        value, grad = grad_loss_reference(f, f_gt, spacings, mask)
        assert out.value == value
        assert out.grads["f"].tobytes() == grad.tobytes()

    def test_matches_reference_on_a_strided_component(self):
        rng = np.random.default_rng(17)
        flow, flow_gt = rng.normal(size=(2, 12, 16, 2))
        for comp in range(2):
            out = grad_loss(flow[..., comp], flow_gt[..., comp], (1, 2, 4))
            value, grad = grad_loss_reference(flow[..., comp],
                                              flow_gt[..., comp], (1, 2, 4))
            assert out.value == value
            assert out.grads["f"].tobytes() == grad.tobytes()

    def test_mask_blocks_gradient(self):
        rng = np.random.default_rng(15)
        f = rng.uniform(0.5, 2, (6, 6))
        f_gt = rng.uniform(0.5, 2, (6, 6))
        mask = np.ones((6, 6), dtype=bool)
        mask[2, 3] = False
        out = grad_loss(f, f_gt, spacings=(1,), mask=mask)
        full = grad_loss(f, f_gt, spacings=(1,))
        assert out.value < full.value


class TestTotalLoss:
    @staticmethod
    def make_case(rng, H=8, W=10):
        t_gt = rng.normal(size=3)
        t_gt /= np.linalg.norm(t_gt)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        pred = {
            "xi": rng.uniform(0.2, 1.0, (H, W)),
            "s": float(rng.uniform(0.5, 2.0)),
            "normals": rng.normal(size=(H, W, 3)),
            "flow": rng.normal(size=(H, W, 2)) * 0.1,
            "flow_confidence": rng.uniform(0, 1, (H, W, 2)),
            "r": rng.normal(size=3) * 0.2,
            "t": t,
        }
        gt = {
            "xi": rng.uniform(0.2, 1.0, (H, W)),
            "normals": rng.normal(size=(H, W, 3)),
            "flow": rng.normal(size=(H, W, 2)) * 0.1,
            "r": rng.normal(size=3) * 0.2,
            "t": t_gt,
        }
        return pred, gt

    def test_all_exact_is_zero(self):
        rng = np.random.default_rng(16)
        pred, gt = self.make_case(rng)
        pred["xi"] = gt["xi"].copy()
        pred["s"] = 1.0
        pred["normals"] = gt["normals"].copy()
        pred["flow"] = gt["flow"].copy()
        pred["flow_confidence"] = np.ones_like(pred["flow_confidence"])
        pred["r"] = gt["r"].copy()
        pred["t"] = gt["t"].copy()
        out = total_loss(pred, gt, LossWeights(), spacings=(1, 2))
        assert out.value == 0.0

    def test_depth_only_matches_depth_loss(self):
        rng = np.random.default_rng(17)
        pred, gt = self.make_case(rng)
        w = LossWeights(depth=1.0, normal=0, flow=0, flow_confidence=0,
                        rotation=0, translation=0, grad_depth=0, grad_flow=0)
        out = total_loss(pred, gt, w)
        ref = depth_loss(pred["xi"], pred["s"], gt["xi"])
        assert np.isclose(out.value, ref.value)
        assert np.allclose(out.grads["xi"], ref.grads["xi"])

    def test_ablation_matrix_runs(self):
        rng = np.random.default_rng(18)
        pred, gt = self.make_case(rng)
        rows = [  # grad, normals, flow toggles of the loss ablation table
            (False, False, False),
            (True, False, False),
            (False, True, False),
            (False, True, True),
            (True, True, True),
        ]
        for grad, normals, flow in rows:
            w = LossWeights().for_ablation(grad=grad, normals=normals, flow=flow)
            out = total_loss(pred, gt, w, spacings=(1, 2, 4))
            assert np.isfinite(out.value) and out.value >= 0

    def test_all_disabled_rejected(self):
        rng = np.random.default_rng(19)
        pred, gt = self.make_case(rng)
        zero = LossWeights(depth=0, normal=0, flow=0, flow_confidence=0,
                           rotation=0, translation=0, grad_depth=0, grad_flow=0)
        with pytest.raises(ValueError):
            total_loss(pred, gt, zero)

    def test_full_gradient_fd(self):
        rng = np.random.default_rng(20)
        pred, gt = self.make_case(rng, H=6, W=6)
        weights = LossWeights(depth=0.7, normal=0.5, flow=1.1,
                              flow_confidence=0.9, rotation=1.3,
                              translation=0.8, grad_depth=0.6, grad_flow=0.4)
        out = total_loss(pred, gt, weights, spacings=(1, 2))
        # the confidence target is a constant label derived from the flow, so
        # the analytic flow gradient has no part through it; the finite
        # differences in the flow leave that term out
        no_conf = replace(weights, flow_confidence=0.0)

        def loss_of_xi(x):
            p = dict(pred, xi=x.reshape(6, 6))
            return total_loss(p, gt, weights, spacings=(1, 2)).value

        num = central_difference(loss_of_xi, pred["xi"].ravel(), step=1e-6)
        ana = out.grads["xi"].ravel()
        close = np.abs(num - ana) / np.maximum(np.abs(num), 1e-4) < 1e-4
        assert close.mean() > 0.97

        def loss_of_flow(x):
            p = dict(pred, flow=x.reshape(6, 6, 2))
            return total_loss(p, gt, no_conf, spacings=(1, 2)).value

        numf = central_difference(loss_of_flow, pred["flow"].ravel(), step=1e-6)
        anaf = out.grads["flow"].ravel()
        closef = np.abs(numf - anaf) / np.maximum(np.abs(numf), 1e-4) < 1e-4
        assert closef.mean() > 0.97

        for key in ("r", "t"):
            def loss_of(x, key=key):
                p = dict(pred)
                p[key] = x
                return total_loss(p, gt, weights, spacings=(1, 2)).value

            num = central_difference(loss_of, pred[key])
            assert rel_error(num, out.grads[key], floor=1e-5) < 1e-5
