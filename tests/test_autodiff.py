import weakref

import numpy as np
import pytest

from tvk import autodiff as ad
from tvk.autodiff import Adam, Tensor, backward

from oracles import (
    conv_direct,
    conv_dw_direct,
    gradcheck_vjp,
    leaky_relu,
    upconv_direct,
    upconv_phases_reference,
)


RNG = np.random.default_rng


class TestConv:
    def test_identity_1x1_kernel(self):
        x = Tensor(RNG(0).normal(size=(2, 3, 5, 6)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        out = ad.conv2d(x, w)
        assert np.allclose(out.data, x.data)

    def test_separable_pair_equals_dense(self):
        rng = RNG(1)
        x = Tensor(rng.normal(size=(2, 2, 8, 9)))
        k = 3
        row = rng.normal(size=(1, 1, 1, k))  # (1 x k)
        col = rng.normal(size=(1, 1, k, 1))  # (k x 1)
        wr = Tensor(np.broadcast_to(row, (1, 1, 1, k)).copy())
        # separable on a single channel: (1 x k) then (k x 1)
        x1 = Tensor(x.data[:, :1])
        a = ad.conv2d(x1, wr, padding=(0, k // 2))
        wc = Tensor(col.copy())
        b = ad.conv2d(a, wc, padding=(k // 2, 0))
        dense = Tensor((col.reshape(k, 1) @ row.reshape(1, k)).reshape(1, 1, k, k))
        ref = ad.conv2d(x1, dense, padding=k // 2)
        assert np.allclose(b.data, ref.data, atol=1e-12)

    def test_stride2_halves_dims(self):
        x = Tensor(RNG(2).normal(size=(1, 4, 12, 16)))
        w = Tensor(RNG(3).normal(size=(8, 4, 3, 3)))
        out = ad.conv2d(x, w, stride=2, padding=1)
        assert out.data.shape == (1, 8, 6, 8)

    def test_1d_pair_strides(self):
        # (1 x 7) stride (1,2) then (7 x 1) stride (2,1): overall stride 2
        rng = RNG(4)
        x = Tensor(rng.normal(size=(1, 3, 12, 16)))
        w1 = Tensor(rng.normal(size=(5, 3, 1, 7)))
        w2 = Tensor(rng.normal(size=(5, 5, 7, 1)))
        a = ad.conv2d(x, w1, stride=(1, 2), padding=(0, 3))
        b = ad.conv2d(a, w2, stride=(2, 1), padding=(3, 0))
        assert a.data.shape == (1, 5, 12, 8)
        assert b.data.shape == (1, 5, 6, 8)

    @pytest.mark.parametrize("stride,padding,k", [
        (1, 1, 3), (2, 1, 3), ((1, 2), (0, 3), (1, 7)), (2, 1, 4), (1, 2, 3),
    ])
    def test_gradcheck(self, stride, padding, k):
        rng = RNG(5)
        kh, kw = (k, k) if np.isscalar(k) else k
        x = rng.normal(size=(2, 2, 6, 8))
        w = rng.normal(size=(3, 2, kh, kw))
        b = rng.normal(size=3)
        err = gradcheck_vjp(
            lambda xt, wt, bt: ad.conv2d(xt, wt, bt, stride=stride,
                                         padding=padding),
            [x, w, b], rng)
        assert err < 1e-4

    @pytest.mark.parametrize("padding,kshape", [
        (3, (1, 1, 3, 3)), (-1, (1, 1, 3, 3)), ((1, 3), (1, 1, 1, 7)),
    ], ids=["3_on_3x3", "-1_on_3x3", "1_on_1x7"])
    def test_rejects_padding_outside_the_kernel_at_the_call(self, padding,
                                                           kshape):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match=r"padding .* kernel"):
            ad.conv2d(x, Tensor(np.zeros(kshape)), padding=padding)


class TestUpconv:
    def test_output_doubles_dims(self):
        x = Tensor(RNG(6).normal(size=(2, 8, 3, 4)))
        w = Tensor(RNG(7).normal(size=(8, 4, 4, 4)))
        out = ad.upconv2d(x, w)
        assert out.data.shape == (2, 4, 6, 8)

    def test_adjointness(self):
        rng = RNG(8)
        x = rng.normal(size=(2, 3, 8, 12))
        w = rng.normal(size=(5, 3, 4, 4))
        y = ad.conv2d(Tensor(x), Tensor(w), stride=2, padding=1)
        v = rng.normal(size=y.data.shape)
        back = ad.upconv2d(Tensor(v), Tensor(w))
        assert back.data.shape == x.shape
        lhs = float(np.sum(y.data * v))
        rhs = float(np.sum(back.data * x))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("kshape", [(4, 3, 3, 3), (4, 3, 2, 2),
                                        (4, 3, 1, 7)],
                             ids=["3x3", "2x2", "1x7"])
    def test_rejects_a_kernel_other_than_4x4(self, kshape):
        x = Tensor(np.zeros((1, 4, 3, 5)))
        with pytest.raises(ValueError, match=r"\(O, C, 4, 4\) kernel"):
            ad.upconv2d(x, Tensor(np.zeros(kshape)))

    @pytest.mark.parametrize("tiled", [False, True], ids=["whole", "tiled"])
    def test_vjp_is_the_adjoint_conv_bitwise(self, tiled, monkeypatch):
        # the one-walk VJP gives the bits of conv2d's forward (dx) and of
        # conv2d's kernel gradient seeded with the upconv input (dw)
        if tiled:
            monkeypatch.setattr(ad, "_TILE_LIMIT", 64)
        rng = RNG(12)
        x = Tensor(rng.normal(size=(2, 4, 3, 5)).astype(np.float32),
                   requires_grad=True)
        w = rng.normal(size=(4, 3, 4, 4)).astype(np.float32)
        wt = Tensor(w, requires_grad=True)
        y = ad.upconv2d(x, wt)
        g = rng.normal(size=y.shape).astype(np.float32)
        backward({y: g})
        w_conv = Tensor(w.copy(), requires_grad=True)
        c = ad.conv2d(Tensor(g), w_conv, stride=2, padding=1)
        backward({c: x.data})
        assert x.grad.tobytes() == c.data.tobytes()
        assert wt.grad.tobytes() == w_conv.grad.tobytes()

    @pytest.mark.parametrize("tiled", [False, True], ids=["whole", "tiled"])
    def test_forward_is_the_four_phase_convs_bitwise(self, tiled,
                                                     monkeypatch):
        # one walk with four GEMMs per tile and one interleave give the bits
        # of four phase convs and four strided scatters: with one tile per
        # sample, several, and (tiled) one output row per tile
        if tiled:
            monkeypatch.setattr(ad, "_TILE_LIMIT", 64)
        rng = RNG(13)
        for dtype in (np.float32, np.float64):
            for xshape, wshape in (((2, 8, 5, 6), (8, 4, 4, 4)),
                                   ((2, 128, 12, 16), (128, 8, 4, 4))):
                x = rng.normal(size=xshape).astype(dtype)
                w = rng.normal(size=wshape).astype(dtype)
                got = ad.upconv2d(Tensor(x), Tensor(w)).data
                ref = upconv_phases_reference(x, ad._phase_kernels(w))
                assert got.dtype == dtype and got.tobytes() == ref.tobytes()

    def test_tiles_never_span_samples(self):
        # as for conv2d: the forward is bitwise batch invariant with several
        # tiles per sample, and when the whole batch's patch matrix of a
        # phase would fit one tile
        rng = RNG(14)
        for xshape, wshape, one_tile in (
                ((6, 128, 12, 16), (128, 16, 4, 4), False),
                ((4, 8, 3, 4), (8, 16, 4, 4), True)):
            N, O, H, W = xshape  # a phase's patch matrix is 4 O by H W
            assert (N * 4 * O * H * W <= ad._TILE_LIMIT) == one_tile
            x = rng.normal(size=xshape).astype(np.float32)
            w = Tensor(rng.normal(size=wshape).astype(np.float32))
            batch = ad.upconv2d(Tensor(x), w).data
            alone = [ad.upconv2d(Tensor(x[n:n + 1]), w).data
                     for n in range(N)]
            assert batch.tobytes() == np.concatenate(alone).tobytes()

    def test_backward_pads_the_output_gradient_once(self, monkeypatch):
        # dx and dw come from one im2col walk over one padded copy of g
        rng = RNG(11)
        x = Tensor(rng.normal(size=(2, 4, 3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 4, 4)), requires_grad=True)
        y = ad.upconv2d(x, w)
        pads = []
        pad4 = ad._pad4
        monkeypatch.setattr(ad, "_pad4",
                            lambda a, *p: pads.append(a.shape) or pad4(a, *p))
        backward({y: rng.normal(size=y.shape)})
        assert pads == [y.shape]
        assert x.grad is not None and w.grad is not None

    def test_gradcheck(self):
        rng = RNG(9)
        x = rng.normal(size=(2, 4, 3, 4))
        w = rng.normal(size=(4, 2, 4, 4))
        b = rng.normal(size=2)
        err = gradcheck_vjp(
            lambda xt, wt, bt: ad.upconv2d(xt, wt, bt), [x, w, b], rng)
        assert err < 1e-4


# (op, input shape, kernel shape, stride, padding): every conv and upconv
# configuration of the networks; upconv2d's stride and padding are fixed
KERNEL_CASES = {
    "conv_1x7_s12": ("conv", (2, 3, 6, 16), (4, 3, 1, 7), (1, 2), (0, 3)),
    "conv_3x1_s21": ("conv", (2, 3, 8, 6), (4, 3, 3, 1), (2, 1), (1, 0)),
    "conv_3x3_s1": ("conv", (2, 3, 6, 7), (4, 3, 3, 3), (1, 1), (1, 1)),
    "upconv_polyphase": ("upconv", (2, 4, 3, 5), (4, 3, 4, 4), (2, 2), (1, 1)),
}


class TestKernelReference:
    @pytest.mark.parametrize("tiled", [False, True], ids=["whole", "tiled"])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                            (np.float32, 1e-6)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_direct_summation(self, case, dtype, rtol, tiled,
                                      monkeypatch):
        op, xshape, wshape, stride, padding = KERNEL_CASES[case]
        if tiled:  # one output row per tile in every case
            monkeypatch.setattr(ad, "_TILE_LIMIT", 64)
        rng = RNG(20)
        x = rng.normal(size=xshape).astype(dtype)
        w = rng.normal(size=wshape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        if op == "conv":
            y = ad.conv2d(xt, wt, stride=stride, padding=padding)
        else:
            y = ad.upconv2d(xt, wt)
        g = rng.normal(size=y.shape).astype(dtype)
        backward({y: g})

        x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
        if op == "conv":
            refs = (conv_direct(x64, w64, stride, padding),
                    upconv_direct(g64, w64, stride, padding, xshape[2:]),
                    conv_dw_direct(x64, g64, stride, padding, wshape))
        else:
            refs = (upconv_direct(x64, w64, stride, padding, y.shape[2:]),
                    conv_direct(g64, w64, stride, padding),
                    conv_dw_direct(g64, x64, stride, padding, wshape))
        for label, got, ref in zip(("forward", "dx", "dw"),
                                   (y.data, xt.grad, wt.grad), refs):
            assert got.dtype == dtype and got.shape == ref.shape, label
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err <= rtol, f"{label}: max rel diff {err:.3g}"

    def test_tiles_never_span_samples(self):
        # each sample's GEMMs are those of a batch of one, so the forward is
        # bitwise batch invariant: with several tiles per sample, and when
        # the whole batch's patch matrix would fit one tile
        rng = RNG(22)
        for xshape, wshape, one_tile in (
                ((24, 64, 12, 16), (32, 64, 3, 3), False),
                ((4, 8, 6, 8), (16, 8, 3, 3), True)):
            N, C, H, W = xshape  # 3x3, padding 1: the output is H x W
            assert (N * C * 9 * H * W <= ad._TILE_LIMIT) == one_tile
            x = rng.normal(size=xshape).astype(np.float32)
            w = Tensor(rng.normal(size=wshape).astype(np.float32))
            batch = ad.conv2d(Tensor(x), w, padding=1).data
            alone = [ad.conv2d(Tensor(x[n:n + 1]), w, padding=1).data
                     for n in range(N)]
            assert batch.tobytes() == np.concatenate(alone).tobytes()


    @pytest.mark.parametrize("padding", [(1, 1), (0, 0)],
                             ids=["padded", "unpadded"])
    def test_patch_view_is_read_only(self, padding):
        # unpadded, the view is built on the caller's own array
        x = RNG(15).normal(size=(2, 3, 6, 7))
        for a in (x, x.transpose(0, 1, 3, 2), ad._readonly(x.copy())):
            view = ad._im2col(a, (4, 3, 3, 3), (1, 1), padding)
            with pytest.raises(ValueError):
                view[0, 0, 0, 0, 0, 0] = 1.0
        assert x.tobytes() == RNG(15).normal(size=(2, 3, 6, 7)).tobytes()

def _widened(case):
    """A KERNEL_CASES entry with 8 output channels, one per special bias."""
    op, xshape, wshape, stride, padding = KERNEL_CASES[case]
    out_axis = 0 if op == "conv" else 1
    wshape = wshape[:out_axis] + (8,) + wshape[out_axis + 1:]
    return op, xshape, wshape, stride, padding


class TestFusedLeaky:
    """conv2d/upconv2d/fully_connected with ``leaky=True`` equal the op
    followed by the reference ``oracles.leaky_relu``."""

    @staticmethod
    def run(op, x, w, b, g, stride, padding, fused):
        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        if op == "conv":
            y = ad.conv2d(xt, wt, bt, stride=stride, padding=padding,
                          leaky=fused)
        elif op == "upconv":
            y = ad.upconv2d(xt, wt, bt, leaky=fused)
        else:
            y = ad.fully_connected(xt, wt, bt, leaky=fused)
        if not fused:
            y = leaky_relu(y)
        if g is not None:
            backward({y: g})
        return y.data, xt.grad, wt.grad, bt.grad

    @classmethod
    def check_bitwise(cls, op, x, w, dtype, rng, stride=None, padding=None):
        """Sample 1 of ``x`` is zero, so its pre-activations are the bias,
        but for the sign of a zero; ``rng`` draws the output gradient."""
        # +-0.0, +-inf, NaN, and +-the smallest denormal: 0.1 times it
        # rounds to +-0.0, so its leaky output is +-0.0 while the
        # pre-activation is not zero
        tiny = np.finfo(dtype).smallest_subnormal
        b = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 0.5],
                     dtype=dtype)
        args = (stride, padding)
        with np.errstate(invalid="ignore"):
            shape = cls.run(op, x, w, b, None, *args, False)[0].shape
            g = rng.normal(size=shape).astype(dtype)
            unfused = cls.run(op, x, w, b, g, *args, False)
            fused = cls.run(op, x, w, b, g, *args, True)
        out = unfused[0]
        assert (out == 0).any() and np.isnan(out).any()
        assert (np.signbit(out) & (out == 0)).any()  # from -tiny
        assert np.isposinf(out).any() and np.isneginf(out).any()
        for label, a, ref in zip(("out", "dx", "dw", "db"), fused, unfused):
            assert a.dtype == dtype and a.tobytes() == ref.tobytes(), label

    @pytest.mark.parametrize("tiled", [False, True], ids=["whole", "tiled"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_bitwise_equal_to_conv_then_activation(self, case, dtype, tiled,
                                                   monkeypatch):
        op, xshape, wshape, stride, padding = _widened(case)
        if tiled:
            monkeypatch.setattr(ad, "_TILE_LIMIT", 64)
        rng = RNG(40)
        x = rng.normal(size=xshape).astype(dtype)
        x[1] = 0.0
        w = rng.normal(size=wshape).astype(dtype)
        self.check_bitwise(op, x, w, dtype, rng, stride, padding)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "f32"])
    def test_fully_connected_bitwise_equal_to_fc_then_activation(self, dtype):
        rng = RNG(42)
        x = rng.normal(size=(3, 5)).astype(dtype)
        x[1] = 0.0
        w = rng.normal(size=(5, 8)).astype(dtype)
        self.check_bitwise("fc", x, w, dtype, rng)

    @pytest.mark.parametrize("op", ["conv", "upconv", "fc"])
    def test_gradcheck(self, op):
        rng = RNG(41)
        if op == "fc":
            x = rng.normal(size=(4, 5))
            w = rng.normal(size=(5, 3))

            def fn(xt, wt, bt, leaky=True):
                return ad.fully_connected(xt, wt, bt, leaky=leaky)
        elif op == "conv":
            x = rng.normal(size=(2, 2, 4, 5))
            w = rng.normal(size=(3, 2, 3, 3))

            def fn(xt, wt, bt, leaky=True):
                return ad.conv2d(xt, wt, bt, padding=1, leaky=leaky)
        else:
            x = rng.normal(size=(2, 2, 4, 5))
            w = rng.normal(size=(2, 3, 4, 4))

            def fn(xt, wt, bt, leaky=True):
                return ad.upconv2d(xt, wt, bt, leaky=leaky)
        b = rng.normal(size=3)
        pre = fn(Tensor(x), Tensor(w), Tensor(b), leaky=False).data
        # away from the kink: a step of 1e-5 moves no pre-activation across 0
        assert np.abs(pre).min() > 1e-3 and (pre < 0).any()
        assert gradcheck_vjp(fn, [x, w, b], rng) < 1e-4


class TestFullyConnected:
    def test_identity(self):
        x = Tensor(RNG(10).normal(size=(3, 4)))
        out = ad.fully_connected(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, x.data)

    def test_hand_2x2(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[1.0, 3.0], [2.0, 4.0]]))
        b = Tensor(np.array([0.5, -0.5]))
        out = ad.fully_connected(x, w, b)
        assert np.allclose(out.data, [[1 + 4 + 0.5, 3 + 8 - 0.5]])

    def test_gradcheck(self):
        rng = RNG(11)
        err = gradcheck_vjp(ad.fully_connected,
                            [rng.normal(size=(3, 5)), rng.normal(size=(5, 2)),
                             rng.normal(size=2)], rng)
        assert err < 1e-4


class TestActivations:
    def test_leaky_values(self):
        # the reference the fused leaky=True paths are compared against
        x = Tensor(np.array([-1.0, 2.0]))
        out = leaky_relu(x)
        assert np.allclose(out.data, [-0.1, 2.0])
        # 0.1 x for x <= 0 or NaN, else x; compared bit for bit
        special = [-1.0, 2.0, 0.0, -0.0, np.nan, np.inf, -np.inf]
        for dtype in (np.float64, np.float32):
            x = np.array(special, dtype=dtype)
            out = leaky_relu(Tensor(x)).data
            expected = np.array([-1.0 * dtype(0.1), 2.0, 0.0, -0.0, np.nan,
                                 np.inf, -np.inf], dtype=dtype)
            assert out.dtype == dtype
            assert out.tobytes() == expected.tobytes()

    def test_exp_at_zero(self):
        assert ad.exp(Tensor(np.zeros(3))).data[0] == 1.0

    @pytest.mark.parametrize("kind", ["leaky_relu", "exp"])
    def test_gradcheck(self, kind):
        rng = RNG(12)
        x = rng.normal(size=(4, 5)) + 0.3  # keep away from the kink
        fn = leaky_relu if kind == "leaky_relu" else ad.exp
        assert gradcheck_vjp(fn, [x], rng) < 1e-4


class TestShapeOps:
    def test_concat_split_round_trip(self):
        rng = RNG(13)
        a = Tensor(rng.normal(size=(2, 3, 4, 4)))
        b = Tensor(rng.normal(size=(2, 2, 4, 4)))
        cat = ad.concat_channels([a, b])
        assert np.allclose(ad.slice_channels(cat, 0, 3).data, a.data)
        assert np.allclose(ad.slice_channels(cat, 3, 5).data, b.data)

    def test_concat_gradcheck(self):
        rng = RNG(14)
        err = gradcheck_vjp(lambda a, b: ad.concat_channels([a, b]),
                            [rng.normal(size=(1, 2, 3, 3)),
                             rng.normal(size=(1, 1, 3, 3))], rng)
        assert err < 1e-4

    def test_global_avg_pool_gradcheck(self):
        rng = RNG(17)
        err = gradcheck_vjp(ad.global_avg_pool,
                            [rng.normal(size=(2, 3, 4, 5))], rng)
        assert err < 1e-4

    def test_l2_normalize_rows(self):
        rng = RNG(18)
        x = rng.normal(size=(4, 3)) + 0.5
        out = ad.l2_normalize_rows(Tensor(x))
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0)
        err = gradcheck_vjp(ad.l2_normalize_rows, [x], rng)
        assert err < 1e-4


class TestBackward:
    def test_square_derivative(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        y = ad.fully_connected(x, x)  # x^2
        backward({y: np.ones((1, 1))})
        assert np.isclose(x.grad[0, 0], 6.0)

    def test_disconnected_parameter_grad(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        unused = Tensor(np.array([5.0]), requires_grad=True)
        y = ad.fully_connected(x, x)
        backward({y: np.ones((1, 1))})
        assert unused.grad is None  # treated as zero by the optimizer

    def test_grad_accumulates_over_fanout(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        y = ad.concat_channels([ad.fully_connected(x, x),
                                ad.fully_connected(x, x)])  # [x^2, x^2]
        backward({y: np.ones((1, 2))})
        assert np.isclose(x.grad[0, 0], 8.0)

    def test_multi_seed_backward(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y1 = ad.fully_connected(x, Tensor(2.0 * np.eye(2)))
        y2 = ad.fully_connected(x, Tensor(3.0 * np.eye(2)))
        backward({y1: np.ones((1, 2)), y2: np.ones((1, 2))})
        assert np.allclose(x.grad, [5.0, 5.0])

    def test_constant_inputs_get_no_grad(self):
        const = Tensor(np.ones((1, 1, 2, 2)))
        w = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        out = ad.conv2d(const, w)
        backward({out: np.ones_like(out.data)})
        assert const.grad is None
        assert w.grad is not None


class TestConsumingBackward:
    """``backward`` frees the graph it walks; only leaves keep gradients."""

    @staticmethod
    def two_convs():
        rng = RNG(42)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)))
        params = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((3, 2, 3, 3), (3,), (4, 3, 3, 3), (4,))]
        h = ad.conv2d(x, params[0], params[1], padding=1, leaky=True)
        y = ad.conv2d(h, params[2], params[3], padding=1)
        return y, h, params

    def test_interior_nodes_drop_their_gradients(self):
        y, h, params = self.two_convs()
        backward({y: np.ones_like(y.data)})
        assert h.grad is None and y.grad is None
        assert all(p.grad is not None and p.grad.shape == p.shape
                   for p in params)

    def test_interior_activation_is_freed_while_outputs_are_held(self):
        y, h, _ = self.two_convs()
        activation = weakref.ref(h.data)
        del h
        assert activation() is not None
        backward({y: np.ones_like(y.data)})
        assert activation() is None
        assert y.data.shape == (2, 4, 6, 6)

    def test_second_backward_raises_naming_the_tensor(self):
        y, _, params = self.two_convs()
        backward({y: np.ones_like(y.data)})
        grads = [p.grad.copy() for p in params]
        with pytest.raises(ValueError,
                           match=r"shape \(2, 4, 6, 6\).*consumed"):
            backward({y: np.ones_like(y.data)})
        for p, g in zip(params, grads):  # nothing accumulated
            assert p.grad.tobytes() == g.tobytes()


class TestNoGrad:
    def _conv(self):
        x = Tensor(RNG(0).normal(size=(1, 2, 4, 4)))
        w = Tensor(RNG(1).normal(size=(3, 2, 3, 3)), requires_grad=True)
        return ad.conv2d(x, w, padding=1)

    def test_ops_return_leaves(self):
        graph = self._conv()
        with ad.no_grad():
            leaf = self._conv()
        assert graph.requires_grad and graph._parents and graph._vjp
        assert not leaf.requires_grad
        assert leaf._parents == () and leaf._vjp is None
        assert leaf.data.tobytes() == graph.data.tobytes()

    def test_mode_restored_after_nesting_and_exceptions(self):
        with ad.no_grad():
            with ad.no_grad():
                assert not self._conv().requires_grad
            assert not self._conv().requires_grad
        assert self._conv().requires_grad
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert self._conv().requires_grad

    def test_backward_rejects_a_seed_that_requires_no_grad(self):
        with ad.no_grad():
            out = self._conv()
        with pytest.raises(ValueError, match=r"shape \(1, 3, 4, 4\)"):
            backward({out: np.ones_like(out.data)})
        named = Tensor(np.ones(2), name="const")
        with pytest.raises(ValueError, match="'const'"):
            backward({named: np.ones(2)})

    def test_rejected_backward_accumulates_nothing(self):
        graph = self._conv()
        with ad.no_grad():
            leaf = self._conv()
        with pytest.raises(ValueError):
            backward({graph: np.ones_like(graph.data),
                      leaf: np.ones_like(leaf.data)})
        assert graph.grad is None and graph._parents[1].grad is None


class TestParameter:
    def test_an_immutable_trainable_copy(self):
        src = np.frombuffer(np.arange(3.0).tobytes())  # a read-only view
        p = Tensor.parameter(src, "w")
        assert ad.immutable(p.data) and not np.shares_memory(p.data, src)
        assert p.requires_grad and p.name == "w"
        assert p.data.tolist() == [0, 1, 2]


class TestAdam:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = Tensor.parameter(np.array([1.0, -2.0]), "p")
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert np.allclose(p.data, [1.0, -2.0])

    def test_first_step_matches_reference(self):
        # scripted reference: m=0.1, v=1e-3, mhat=1, vhat=1 -> step ~ lr
        p = Tensor.parameter(np.array([1.0]), "p")
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12
        assert abs(p.data[0] - 0.9) < 1e-8

    def test_reference_sequence(self):
        # independent scripted Adam over several steps
        rng = RNG(20)
        grads = [rng.normal(size=3) for _ in range(10)]
        p = Tensor.parameter(np.ones(3), "p")
        opt = Adam({"p": p}, lr=0.05, weight_decay=0.0)
        for g in grads:
            p.grad = g.copy()
            opt.step()

        theta = np.ones(3)
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            theta = theta - 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p.data, theta, atol=1e-12)

    def test_decoupled_weight_decay(self):
        p = Tensor.parameter(np.array([2.0]), "p")
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.01)
        p.grad = np.array([0.0])
        opt.step()
        assert np.isclose(p.data[0], 2.0 - 0.1 * 0.01 * 2.0)

    def test_quadratic_bowl_converges(self):
        p = Tensor.parameter(np.array([3.0, -2.0]), "p")
        target = np.array([0.5, 1.5])
        opt = Adam({"p": p}, lr=0.05, weight_decay=0.0)
        for _ in range(2000):
            p.grad = 2 * (p.data - target)
            opt.step()
            if np.abs(p.data - target).max() < 1e-6:
                break
        assert np.abs(p.data - target).max() < 1e-6

    def test_missing_grad_with_decay_only(self):
        p = Tensor.parameter(np.array([1.0]), "p")
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()  # no gradient at all
        assert np.allclose(p.data, [1.0])

    def test_state_round_trip(self):
        p = Tensor.parameter(np.array([1.0, 2.0]), "p")
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([0.1, -0.2])
        opt.step()
        state = opt.state_dict()
        opt2 = Adam({"p": p}, lr=0.01)
        opt2.load_state_dict(state)
        assert opt2.t == 1
        assert np.allclose(opt2.m["p"], opt.m["p"])

    @staticmethod
    def stepped():
        params = {"w": Tensor.parameter(np.array([1.0, 2.0, 3.0]), "w")}
        opt = Adam(params, lr=0.01)
        params["w"].grad = np.array([0.1, -0.2, 0.3])
        opt.step()
        return params, opt

    def test_unknown_state_entry_is_named_and_nothing_loads(self):
        params, opt = self.stepped()
        state = opt.state_dict()
        fresh = Adam(params, lr=0.01)
        with pytest.raises(KeyError, match="adam.m.typo"):
            fresh.load_state_dict({**state, "adam.m.typo": np.zeros(3)})
        assert fresh.t == 0 and not fresh.m["w"].any()

    def test_moment_shape_mismatch_is_named_and_nothing_loads(self):
        params, opt = self.stepped()
        state = opt.state_dict()
        fresh = Adam(params, lr=0.01)
        with pytest.raises(ValueError, match="adam.v.w"):
            fresh.load_state_dict({**state, "adam.v.w": np.ones(5)})
        assert fresh.t == 0 and not fresh.m["w"].any()


class TestLayoutMemo:
    """Kernel layouts memoized on a parameter follow each of its updates."""

    @staticmethod
    def store():
        rng = RNG(30)
        return {name: Tensor.parameter(
                    rng.normal(size=shape).astype(np.float32), name)
                for name, shape in (("up", (4, 3, 4, 4)),
                                    ("conv", (4, 3, 1, 7)))}

    @staticmethod
    def upconv_and_conv_dx(up, conv):
        # the upconv forward uses the polyphase layout, the conv input
        # gradient the flipped transpose
        rng = RNG(31)
        x = Tensor(rng.normal(size=(2, 4, 3, 5)).astype(np.float32))
        y = Tensor(rng.normal(size=(2, 3, 6, 16)).astype(np.float32),
                   requires_grad=True)
        out = ad.upconv2d(x, up)
        c = ad.conv2d(y, conv, stride=(1, 2), padding=(0, 3))
        backward({c: rng.normal(size=c.shape).astype(np.float32)})
        return out.data, y.grad

    def assert_matches_fresh_copies(self, ps):
        got = self.upconv_and_conv_dx(ps["up"], ps["conv"])
        ref = self.upconv_and_conv_dx(Tensor(ps["up"].data.copy()),
                                      Tensor(ps["conv"].data.copy()))
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_after_adam_step(self):
        ps = self.store()
        self.assert_matches_fresh_copies(ps)  # warms the memo
        opt = Adam(ps, lr=0.1)
        for p in ps.values():
            p.grad = np.ones_like(p.data)
        opt.step()
        self.assert_matches_fresh_copies(ps)

    def test_after_the_array_is_replaced(self):
        ps = self.store()
        self.assert_matches_fresh_copies(ps)
        for name, p in ps.items():  # as a reload in place would
            p.data = Tensor.parameter(-p.data, name).data
        self.assert_matches_fresh_copies(ps)

    def test_laid_out_once_per_array(self):
        up = self.store()["up"]
        first = ad._phase_layout(up)
        assert ad._phase_layout(up) is first
        loose = Tensor(up.data.copy())  # writeable: laid out on every call
        assert ad._phase_layout(loose) is not ad._phase_layout(loose)

    def test_in_place_write_raises(self):
        ps = self.store()
        with pytest.raises(ValueError):
            ps["up"].data[0] = 0
        Adam(ps).step()
        with pytest.raises(ValueError):
            ps["up"].data[0] = 0
        ps["conv"].data = Tensor.parameter(ps["conv"].data, "conv").data
        with pytest.raises(ValueError):
            ps["conv"].data += 1


class TestDeterminism:
    @staticmethod
    def run_once(seed):
        rng = np.random.default_rng(seed)
        w = Tensor.parameter(ad.fanin_uniform(rng, (4, 2, 3, 3), 18), "w")
        b = Tensor.parameter(np.zeros(4), "b")
        opt = Adam({"w": w, "b": b}, lr=1e-3)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)))
        for _ in range(20):
            opt.zero_grad()
            out = leaky_relu(ad.conv2d(x, w, b, padding=1))
            backward({out: np.ones_like(out.data)})
            opt.step()
        return w.data.copy(), b.data.copy()

    def test_same_seed_bitwise_identical(self):
        w1, b1 = self.run_once(123)
        w2, b2 = self.run_once(123)
        assert w1.tobytes() == w2.tobytes()
        assert b1.tobytes() == b2.tobytes()

    def test_different_seed_differs(self):
        w1, _ = self.run_once(123)
        w2, _ = self.run_once(124)
        assert w1.tobytes() != w2.tobytes()


class TestGradcheckUtility:
    def test_catches_wrong_gradient(self):
        def bad_op(x):
            out = np.tanh(x.data)

            def vjp(g):
                return (g * (1 - out ** 2) * 1.5,)  # deliberately wrong

            return ad.Tensor(out, requires_grad=True, _parents=(x,), _vjp=vjp)

        rng = RNG(21)
        err = gradcheck_vjp(bad_op, [rng.normal(size=(3, 3))], rng)
        assert err > 0.1
