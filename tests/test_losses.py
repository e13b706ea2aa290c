from dataclasses import replace

import numpy as np
import pytest

from tvk.losses import (
    DEFAULT_SPACINGS,
    LossWeights,
    confidence_target,
    grad_loss,
    l1_loss,
    l2_loss,
    total_loss,
)
from tvk.training import TrainConfig

from oracles import (
    central_difference,
    grad_loss_reference,
    rel_error,
    total_loss_reference,
)

TERMS = tuple(LossWeights.__dataclass_fields__)


def one_term(term, pred, gt, spacings=DEFAULT_SPACINGS):
    """``total_loss`` with every weight but ``term``'s (1) at 0."""
    weights = LossWeights(**{k: float(k == term) for k in TERMS})
    return total_loss(pred, gt, weights, spacings)


def depth_term(xi, s, xi_gt, mask=None):
    return one_term("depth", {"xi": xi, "s": s},
                    {"xi": xi_gt, "valid_depth": mask})


def motion_terms(r, t, r_gt, t_gt):
    pred, gt = {"r": r, "t": t}, {"r": r_gt, "t": t_gt}
    return one_term("rotation", pred, gt), one_term("translation", pred, gt)


class TestDepthLoss:
    def test_exact_zero(self):
        xi = np.random.default_rng(0).uniform(0.1, 1, (4, 5))
        out = depth_term(xi, 1.0, xi)
        assert out.value == 0.0
        assert np.all(out.grads["xi"] == 0)
        assert out.grads["s"] == 0.0

    def test_hand_value(self):
        out = depth_term(np.array([[1.0, 2.0]]), 1.0, np.array([[2.0, 2.0]]))
        assert out.value == 1.0

    def test_gradient_wrt_scale_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            xi = rng.uniform(0.1, 1.0, (6, 7))
            xi_gt = rng.uniform(0.1, 1.0, (6, 7))
            s0 = rng.uniform(0.5, 2.0)

            def f(sv):
                return depth_term(xi, float(sv[0]), xi_gt).value

            num = central_difference(f, np.array([s0]))
            ana = depth_term(xi, s0, xi_gt).grads["s"]
            assert rel_error(num[0], ana, floor=1e-6) < 1e-6

    def test_gradient_wrt_xi_fd(self):
        rng = np.random.default_rng(2)
        xi = rng.uniform(0.1, 1.0, (4, 4))
        xi_gt = rng.uniform(0.1, 1.0, (4, 4))
        s = 1.3

        def f(x):
            return depth_term(x.reshape(4, 4), s, xi_gt).value

        num = central_difference(f, xi.ravel())
        ana = depth_term(xi, s, xi_gt).grads["xi"].ravel()
        assert rel_error(num, ana, floor=1e-6) < 1e-6

    def test_mask_skips_pixels(self):
        xi = np.array([[1.0, 5.0]])
        gt = np.array([[2.0, 2.0]])
        mask = np.array([[True, False]])
        out = depth_term(xi, 1.0, gt, mask)
        assert out.value == 1.0
        assert out.grads["xi"][0, 1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            depth_term(np.ones((2, 2)), 1.0, np.ones((3, 2)))

    @pytest.mark.parametrize("s", [0.0, -1.0, float("nan")])
    def test_nonpositive_scale_rejected(self, s):
        with pytest.raises(ValueError, match="scale"):
            depth_term(np.ones((2, 2)), s, np.ones((2, 2)))


class TestL2Pointwise:
    def test_zero_and_hand_value(self):
        p = np.zeros((1, 1, 2))
        g = np.zeros((1, 1, 2))
        assert l2_loss(p, g).value == 0.0
        p[0, 0] = [3.0, 4.0]
        assert l2_loss(p, g).value == 5.0
        assert l2_loss([3.0, 0.0, 4.0], np.zeros(3)).value == 5.0  # a vector

    def test_gradient_fd(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(3, 4, 2))
        g = rng.normal(size=(3, 4, 2))

        def f(x):
            return l2_loss(x.reshape(3, 4, 2), g).value

        num = central_difference(f, p.ravel())
        ana = l2_loss(p, g).grads["f"].ravel()
        assert rel_error(num, ana, floor=1e-6) < 1e-5

    def test_zero_residual_gradient_is_zero(self):
        p = np.ones((2, 2, 3))
        out = l2_loss(p, p.copy())
        assert np.all(out.grads["f"] == 0)


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
        out = l1_loss(c, c_hat)
        assert out.value == 12.0  # n pixels x 2 components
        assert np.all(out.grads["f"] == -1.0)

    def test_loss_gradient_fd(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(0.1, 0.9, (3, 3, 2))
        c_hat = rng.uniform(0.1, 0.9, (3, 3, 2))

        def f(x):
            return l1_loss(x.reshape(3, 3, 2), c_hat).value

        num = central_difference(f, c.ravel())
        ana = l1_loss(c, c_hat).grads["f"].ravel()
        assert rel_error(num, ana, floor=1e-6) < 1e-6


class TestMotionLoss:
    def test_exact(self):
        rot, tr = motion_terms([0.1, 0, 0], [0, 0, 1.0], [0.1, 0, 0],
                               [0, 0, 1.0])
        assert rot.value == 0.0 and tr.value == 0.0
        assert np.all(rot.grads["r"] == 0) and np.all(tr.grads["t"] == 0)

    def test_rotation_magnitude(self):
        rot, _ = motion_terms([0.1, 0, 0], [0, 0, 1.0], [0, 0, 0], [0, 0, 1.0])
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
            return motion_terms(x, t, r_gt, t_gt)[0].value

        def ft(x):
            return motion_terms(r, x, r_gt, t_gt)[1].value

        rot, tr = motion_terms(r, t, r_gt, t_gt)
        assert rel_error(central_difference(fr, r), rot.grads["r"]) < 1e-6
        assert rel_error(central_difference(ft, t), tr.grads["t"]) < 1e-6

    def test_unnormalized_gt_rejected(self):
        for term in ("rotation", "translation"):
            with pytest.raises(ValueError, match="unit norm"):
                one_term(term, {"r": [0, 0, 0], "t": [0, 0, 1.0]},
                         {"r": [0, 0, 0], "t": [0, 0, 2.0]})


class TestScaleInvariantGradient:
    """The normalized gradient (b - a) / (|a| + |b|) inside ``grad_loss``."""

    def test_constant_grid_zero(self):
        out = grad_loss(np.full((5, 6), 3.7), np.full((5, 6), 0.2), (1,))
        assert out.value == 0.0 and np.all(out.grads["f"] == 0)

    def test_hand_value_1x2(self):
        # (3-1)/(3+1) against 0; a single row has no y component
        out = grad_loss(np.array([[1.0, 3.0]]), np.array([[1.0, 1.0]]), (1,))
        assert np.isclose(out.value, 0.5)
        # d/da = (-1 - 0.5) / 4, d/db = (1 - 0.5) / 4
        assert np.allclose(out.grads["f"], [[-0.375, 0.125]])

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 7.3])
    def test_scale_invariance(self, alpha):
        rng = np.random.default_rng(9)
        f = rng.uniform(0.5, 2.0, (10, 12))
        f_gt = rng.uniform(0.5, 2.0, (10, 12))
        for h in (1, 2, 4):
            a = grad_loss(f, f_gt, (h,))
            b = grad_loss(alpha * f, f_gt, (h,))
            assert rel_error(a.value, b.value) < 1e-12
            assert rel_error(a.grads["f"], alpha * b.grads["f"],
                             floor=1e-3) < 1e-12

    def test_inverse_depth_sign_flip(self):
        # the normalized gradient of 1/z is minus that of z, so the
        # residual of 1/z against z is twice that of z against a constant
        rng = np.random.default_rng(10)
        z = rng.uniform(0.5, 3.0, (8, 8))
        for h in (1, 2):
            flipped = grad_loss(1.0 / z, z, (h,)).value
            plain = grad_loss(z, np.ones_like(z), (h,)).value
            assert plain > 0 and np.isclose(flipped, 2 * plain, rtol=1e-10)

    def test_zero_denominator_guard(self):
        f = np.zeros((3, 3))
        out = grad_loss(f, f, (1,))
        assert out.value == 0.0 and np.all(out.grads["f"] == 0)
        g = grad_loss(f, np.ones((3, 3)) + np.eye(3), (1,)).grads["f"]
        assert np.all(np.isfinite(g))

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            grad_loss(np.ones((4, 4)), np.ones((4, 4)), (4,))


@pytest.mark.parametrize("kernel", [l1_loss, l2_loss, grad_loss])
def test_kernel_rejects_a_shape_or_mask_mismatch(kernel):
    f = np.ones((3, 4, 2))
    with pytest.raises(ValueError, match="shapes differ"):
        kernel(f, np.ones((3, 5, 2)))
    with pytest.raises(ValueError, match="mask shape"):
        kernel(f, f, mask=np.ones((3, 5), dtype=bool))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_loss_weights_reject_a_non_finite_or_negative_factor(bad):
    with pytest.raises(ValueError, match="grad_depth"):
        LossWeights(grad_depth=bad)
    assert LossWeights(grad_depth=0.0).grad_depth == 0.0


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
        out = one_term("depth", pred, gt)
        ref = l1_loss(pred["s"] * pred["xi"], gt["xi"])  # chain rule by hand
        sign = ref.grads["f"]
        assert out.value == ref.value
        assert np.array_equal(out.grads["xi"], pred["s"] * sign)
        assert out.grads["s"] == np.sum(pred["xi"] * sign)

    @pytest.mark.parametrize("term", TERMS + ("all",))
    def test_matches_reference(self, term):
        rng = np.random.default_rng(21 + TERMS.index(term) if term in TERMS
                                    else 29)
        for k in range(6):
            H, W = ((8, 10), (5, 7), (12, 6))[k % 3]
            pred, gt = self.make_case(rng, H, W)
            if k % 2:
                gt["valid_depth"] = rng.uniform(size=(H, W)) > 0.2
                gt["valid_flow"] = rng.uniform(size=(H, W)) > 0.2
            weights = LossWeights(**{
                name: rng.uniform(0.5, 2.0) if term in (name, "all") else 0.0
                for name in TERMS})
            out = total_loss(pred, gt, weights, spacings=(1, 2, 4))
            value, grads = total_loss_reference(pred, gt, weights, (1, 2, 4))
            np.testing.assert_allclose(out.value, value, rtol=1e-12)
            assert out.grads.keys() == grads.keys()
            for key, g in grads.items():
                np.testing.assert_allclose(out.grads[key], g, rtol=1e-12,
                                           err_msg=key)

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
            w = TrainConfig(use_grad_loss=grad, use_normals=normals,
                            use_flow_loss=flow).weights()
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
