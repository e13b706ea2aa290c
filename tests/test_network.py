from dataclasses import replace

import numpy as np
import pytest

from tvk import autodiff as ad
from tvk.autodiff import backward
from tvk.geometry import Intrinsics
from tvk.network import NetConfig, TwoViewNet, per_sample

TINY = NetConfig(width=16, height=16, channels=(2, 4), dtype="float64")
K_TINY = Intrinsics(fx=0.89, fy=1.19, cx=0.5, cy=0.5, width=16, height=16)


def predict_tiny(model):
    rng = np.random.default_rng(5)
    f = TINY.refine_factor
    img1, img2 = rng.uniform(size=(2, 16, 16, 3))
    full = rng.uniform(size=(16 * f, 16 * f, 3))
    return model.predict([img1], [img2], K_TINY, img1_full=[full])[0]


class TestNetConfig:
    def test_unknown_dtype_is_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            NetConfig(dtype="flaot32")

    def test_refinement_resolution_must_fit_its_levels(self):
        # 20x20 at refine_factor 1 cannot be halved three times
        with pytest.raises(ValueError, match="refine_channels"):
            NetConfig(width=20, height=20, channels=(2,), refine_factor=1,
                      refine_channels=(2, 4, 8))
        NetConfig(width=20, height=20, channels=(2,), refine_factor=2,
                  refine_channels=(2, 4, 8))  # 40x40 can


class TestPerSample:
    def test_items_are_samples_and_writing_them_fills_the_batch(self):
        rng = np.random.default_rng(2)
        for shape, item in (((2, 3, 4, 5), (4, 5, 3)), ((2, 1, 4, 5), (4, 5)),
                            ((2, 3), (3,)), ((2, 1), ())):
            batch = rng.normal(size=shape)
            view = per_sample(batch)
            assert view.shape == (2,) + item
            filled = np.zeros_like(batch)
            for n in range(2):
                assert np.shape(view[n]) == item
                per_sample(filled)[n] = view[n]
            assert np.array_equal(filled, batch)
            assert np.array_equal(np.moveaxis(batch, 1, -1).reshape(
                (2,) + item), view)


class TestMotionHead:
    def test_outputs_take_their_own_columns(self):
        # r, t and s are columns 0:3, 3:6 and 6 of the last fully connected
        # layer; a gradient on one output reaches only its own bias entries
        model = TwoViewNet(TINY, seed=1)
        rng = np.random.default_rng(2)
        img1, img2 = rng.uniform(size=(2, 3, 16, 16, 3))
        bias = model.params["boot_dm.fc2.b"]
        for key, cols in (("r", slice(0, 3)), ("t", slice(3, 6)),
                          ("s", slice(6, 7))):
            out = model.bootstrap_tensors(list(img1), list(img2))
            for p in model.params.values():
                p.grad = None
            backward({out[key]: np.ones_like(out[key].data)})
            grad = bias.grad
            assert np.all(np.delete(grad, np.arange(7)[cols]) == 0.0), key
            if key == "r":
                assert np.array_equal(grad[cols], [3.0, 3.0, 3.0])
            if key == "s":  # d exp(z) / dz = exp(z), summed over the batch
                assert np.isclose(grad[6], out["s"].data.sum(), rtol=1e-12)
        assert np.allclose(np.linalg.norm(out["t"].data, axis=1), 1.0)
        assert np.all(out["s"].data > 0)


class TestLayoutMemo:
    def test_warm_predict_equals_freshly_loaded(self):
        model = TwoViewNet(TINY, seed=1)
        predict_tiny(model)
        warm = predict_tiny(model)  # every kernel layout from the memo
        loaded = TwoViewNet(TINY, seed=2)
        predict_tiny(loaded)  # memo filled from the seed-2 weights
        loaded.load_state_dict(model.state_dict())
        fresh = predict_tiny(loaded)
        for field in ("flow", "flow_confidence", "xi", "normals", "r", "t",
                      "s", "refined_xi"):
            a = np.asarray(getattr(warm, field))
            b = np.asarray(getattr(fresh, field))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


class TestBatchInvariance:
    def test_batch_predicts_what_each_sample_predicts_alone(self):
        # the motion head's fully connected layers run one GEMM per row; a
        # multi-row GEMM rounded differently, and the depth proposal of the
        # iterations amplified that
        rng = np.random.default_rng(7)
        img1, img2 = rng.uniform(size=(2, 4, 16, 16, 3))
        for cfg in (TINY, replace(TINY, dtype="float32")):
            model = TwoViewNet(cfg, seed=1)
            batch = model.predict(list(img1), list(img2), K_TINY,
                                  keep_history=True)
            for n in range(4):
                alone = model.predict([img1[n]], [img2[n]], K_TINY,
                                      keep_history=True)
                for it, (b, a) in enumerate(zip(batch, alone)):
                    for field in ("flow", "flow_confidence", "xi", "normals",
                                  "r", "t", "s"):
                        x = np.asarray(getattr(b[n], field))
                        y = np.asarray(getattr(a[0], field))
                        assert x.tobytes() == y.tobytes(), (cfg.dtype, n, it,
                                                            field)


class TestStageMethods:
    def test_full_stages_extend_the_flow_stage_and_prepare_images_once(
            self, monkeypatch):
        rng = np.random.default_rng(5)
        img1, img2 = (list(a) for a in rng.uniform(size=(2, 2, 16, 16, 3)))
        model = TwoViewNet(TINY, seed=1)
        prev = model.bootstrap_forward(img1, img2)
        calls = []
        prep = model._prep_images
        monkeypatch.setattr(model, "_prep_images", lambda a, b: (
            calls.append(1) or prep(a, b)))
        for flow, full in (
                (model.bootstrap_flow_tensors(img1, img2),
                 model.bootstrap_tensors(img1, img2)),
                (model.iterative_flow_tensors(img1, img2, prev, K_TINY),
                 model.iterative_tensors(img1, img2, prev, K_TINY))):
            for key in ("flow", "conf"):
                assert flow[key].data.tobytes() == full[key].data.tobytes()
            assert "xi" not in flow and "xi" in full
        assert len(calls) == 4  # once per call above


FIELDS = ("flow", "flow_confidence", "xi", "normals", "r", "t", "s",
          "refined_xi")


def assert_same_predictions(got, want, where):
    assert len(got) == len(want), where
    for n, (g, w) in enumerate(zip(got, want)):
        for field in FIELDS:
            a, b = getattr(g, field), getattr(w, field)
            if a is None or b is None:  # refined_xi of a low-res prediction
                assert a is b, (where, n, field)
                continue
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                where, n, field)


class TestInferenceMode:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_forwards_equal_the_graph_chain_and_build_no_graph(
            self, dtype, batch, monkeypatch):
        rng = np.random.default_rng(11)
        f = TINY.refine_factor
        img1, img2 = (list(a) for a in rng.uniform(size=(2, batch, 16, 16, 3)))
        full = list(rng.uniform(size=(batch, 16 * f, 16 * f, 3)))
        model = TwoViewNet(replace(TINY, dtype=dtype), seed=1)
        to_predictions = model.tensors_to_predictions

        boot = model.bootstrap_tensors(img1, img2)
        assert boot["xi"].requires_grad  # the graph path keeps its graph
        chain = [to_predictions(boot)]
        for _ in range(TINY.iterations):
            chain.append(to_predictions(
                model.iterative_tensors(img1, img2, chain[-1], K_TINY)))
        refined = model.refine_tensors(full, chain[-1])
        assert refined.requires_grad

        made = []  # every op output from here on
        op = ad._op
        monkeypatch.setattr(ad, "_op", lambda *a: made.append(op(*a))
                            or made[-1])
        assert_same_predictions(model.bootstrap_forward(img1, img2),
                                chain[0], "bootstrap")
        for it in range(1, len(chain)):
            assert_same_predictions(
                model.iterative_forward(img1, img2, chain[it - 1], K_TINY),
                chain[it], f"iteration {it}")
        for n, (p, rx) in enumerate(zip(
                chain[-1], model.refine_forward(full, chain[-1]))):
            assert rx.tobytes() == refined.data[n, 0].astype(
                np.float64).tobytes(), n
            p.refined_xi = rx
        calls = []  # predict runs each stage through its public method

        def spy(name):
            method = getattr(model, name)
            return lambda *a: calls.append(name) or method(*a)

        for name in ("bootstrap_tensors", "iterative_tensors",
                     "refine_tensors"):
            monkeypatch.setattr(model, name, spy(name))
        history = model.predict(img1, img2, K_TINY, img1_full=full,
                                keep_history=True)
        assert calls == (["bootstrap_tensors"]
                         + ["iterative_tensors"] * TINY.iterations
                         + ["refine_tensors"])
        for it, (got, want) in enumerate(zip(history, chain, strict=True)):
            assert_same_predictions(got, want, f"predict iteration {it}")

        assert made and not any(t.requires_grad or t._parents or t._vjp
                                for t in made)
        assert all(p.grad is None for p in model.params.values())


class TestEndToEndGradient:
    """The gradient of a whole stage, motion head included, against central
    differences along random directions of its trained parameters: two
    forwards per direction instead of two per parameter."""

    CFG = replace(TINY, refine_factor=2, refine_channels=(2, 4))
    # component -> (stage, the outputs of that component a loss reads)
    STAGES = {"boot_flow": ("boot", ("flow", "conf")),
              "boot_dm": ("boot", ("xi", "normals", "r", "t", "s")),
              "iter_flow": ("iter", ("flow", "conf")),
              "iter_dm": ("iter", ("xi", "normals", "r", "t", "s")),
              "refine": ("refine", ("xi",))}

    @pytest.mark.parametrize("component", sorted(STAGES))
    def test_directional_derivative(self, component):
        rng = np.random.default_rng(0)
        f = self.CFG.refine_factor
        img1, img2 = (list(a) for a in rng.uniform(size=(2, 2, 16, 16, 3)))
        full = list(rng.uniform(size=(2, 16 * f, 16 * f, 3)))
        model = TwoViewNet(self.CFG, seed=0)
        prev = model.bootstrap_forward(img1, img2)
        stage, keys = self.STAGES[component]

        def outputs():
            if stage == "boot":
                out = model.bootstrap_tensors(img1, img2)
            elif stage == "iter":
                out = model.iterative_tensors(img1, img2, prev, K_TINY)
            else:
                out = {"xi": model.refine_tensors(full, prev)}
            return [out[k] for k in keys]

        ys = outputs()
        seeds = [rng.normal(size=y.shape) for y in ys]

        def loss():
            return sum(float(np.sum(s * y.data))
                       for s, y in zip(seeds, outputs()))

        backward(dict(zip(ys, seeds)))
        params = model.component_parameters(component)
        grads = {name: p.grad for name, p in params.items()}
        assert all(g is not None for g in grads.values())
        # a step must carry no pre-activation across the leaky ReLU's kink:
        # in this untrained net a step of 1e-6 did so in about a third of
        # 60 draws, a step of 1e-8 in one
        eps = 1e-8
        for _ in range(3):
            v = {name: rng.normal(size=p.shape) for name, p in params.items()}
            analytic = sum(float(np.sum(grads[n] * v[n])) for n in params)
            numeric = 0.0
            for sign in (1, -1):
                base = {n: p.data for n, p in params.items()}
                for n, p in params.items():
                    p.data = base[n] + sign * eps * v[n]
                numeric += sign * loss() / (2 * eps)
                for n, p in params.items():
                    p.data = base[n]
            err = abs(numeric - analytic) / max(abs(numeric), abs(analytic))
            assert err < 1e-6, (component, numeric, analytic)
