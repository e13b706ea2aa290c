import csv
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from tvk.autodiff import Tensor
from tvk.container import save_arrays
from tvk.geometry import Intrinsics
from tvk.losses import DEFAULT_SPACINGS, LossWeights, total_loss
from tvk.network import XI_FLOOR, NetConfig, TwoViewNet
from tvk.synthdata import SynthConfig, generate_dataset, load_dataset
from tvk.metrics import (CSV_FIELDS, csv_row, endpoint_error, l1_inv,
                         l1_rel, motion_angular_errors, sc_inv, write_csv)
from tvk import training
from tvk.training import (CollapsedScaleError, MissingFieldError,
                          NonFiniteError, TrainConfig, Trainer, _batch_loss,
                          evaluate_iterations, load_checkpoint,
                          save_checkpoint)

TINY = NetConfig(width=16, height=16, channels=(2, 4))
K_TINY = Intrinsics(fx=0.89, fy=1.19, cx=0.5, cy=0.5, width=16, height=16)
FIELDS = ("flow", "flow_confidence", "xi", "normals", "r", "t", "s",
          "refined_xi")


def predict_tiny(model):
    rng = np.random.default_rng(31)
    f = TINY.refine_factor
    img1, img2 = rng.uniform(size=(2, 16, 16, 3))
    full = rng.uniform(size=(16 * f, 16 * f, 3))
    return model.predict([img1], [img2], K_TINY, img1_full=[full])[0]


class TestCheckpoint:
    def test_round_trip_predicts_bitwise_equal(self, tmp_path):
        path = str(tmp_path / "tiny.tvk")
        model = TwoViewNet(TINY, seed=3)
        save_checkpoint(path, model)
        loaded, meta = load_checkpoint(path)
        assert loaded.cfg == TINY
        assert meta["kind"] == "checkpoint-v1"
        before, after = predict_tiny(model), predict_tiny(loaded)
        for field in FIELDS:
            a = np.asarray(getattr(before, field))
            b = np.asarray(getattr(after, field))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_unknown_net_config_key_is_named(self, tmp_path):
        path = str(tmp_path / "bad.tvk")
        model = TwoViewNet(TINY, seed=3)
        meta = {"kind": "checkpoint-v1",
                "net_config": {**asdict(TINY), "depth_levels": 3}}
        save_arrays(path, model.state_dict(), meta=meta)
        with pytest.raises(ValueError, match="depth_levels"):
            load_checkpoint(path)


# --- the loss of every phase goes through one helper -----------------------

ALL = LossWeights()
FLOW_TERMS = dict(depth=0.0, normal=0.0, rotation=0.0, translation=0.0,
                  grad_depth=0.0)
PHASE_WEIGHTS = {
    "p1_flow_warmup": (replace(ALL, grad_flow=0.0, **FLOW_TERMS),
                       {"flow", "conf"}),
    "p1_flow": (replace(ALL, **FLOW_TERMS), {"flow", "conf"}),
    "p1_dm": (replace(ALL, flow=0.0, flow_confidence=0.0, grad_flow=0.0),
              {"xi", "normals", "r", "t", "s"}),
    "p2": (ALL, {"flow", "conf", "xi", "normals", "r", "t", "s"}),
}


def unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def batch_case(rng, n=3, H=16, W=16):
    """Batched float64 network outputs and one masked ground truth each."""
    out = {"flow": rng.normal(size=(n, 2, H, W)) * 0.1,
           "conf": rng.uniform(0, 1, (n, 2, H, W)),
           "xi": rng.uniform(0.2, 1.0, (n, 1, H, W)),
           "normals": rng.normal(size=(n, 3, H, W)),
           "r": rng.normal(size=(n, 3)) * 0.2,
           "t": unit_rows(rng, n),
           "s": rng.uniform(0.5, 2.0, (n, 1))}
    t_gt = unit_rows(rng, n)
    gts = [{"xi": rng.uniform(0.2, 1.0, (H, W)),
            "normals": rng.normal(size=(H, W, 3)),
            "flow": rng.normal(size=(H, W, 2)) * 0.1,
            "r": rng.normal(size=3) * 0.2, "t": t_gt[k],
            "valid_depth": rng.uniform(size=(H, W)) > 0.2,
            "valid_flow": rng.uniform(size=(H, W)) > 0.2} for k in range(n)]
    return out, gts


def oracle(weights, out, gts):
    """Mean of per-sample total_loss; each gradient put back in its slot."""
    n = len(gts)
    value, seeds = 0.0, {}
    for k, gt in enumerate(gts):
        pred = {name: np.moveaxis(out[key][k], 0, -1)
                for key, name in (("flow", "flow"), ("normals", "normals"),
                                  ("conf", "flow_confidence")) if key in out}
        pred.update({key: out[key][k] for key in ("r", "t") if key in out})
        pred["xi"] = out["xi"][k, 0]
        pred["s"] = float(out["s"][k, 0]) if "s" in out else 1.0
        res = total_loss(pred, gt, weights, DEFAULT_SPACINGS)
        value += res.value / n
        for name, g in res.grads.items():
            key = "conf" if name == "flow_confidence" else name
            if key not in out:
                continue
            g = np.asarray(g)
            if g.ndim == 3:
                g = np.moveaxis(g, -1, 0)
            slot = seeds.setdefault(key, np.zeros_like(out[key]))
            slot[k] += g.reshape(out[key][k].shape) / n
    return value, seeds


def assert_close(a, b):
    scale = max(np.abs(b).max(), 1e-300)
    assert np.abs(np.asarray(a) - b).max() <= 1e-12 * scale


class TestBatchLoss:
    @pytest.mark.parametrize("phase", sorted(PHASE_WEIGHTS))
    def test_matches_per_sample_oracle(self, phase):
        weights, seeded = PHASE_WEIGHTS[phase]
        out, gts = batch_case(np.random.default_rng(5))
        tensors = {k: Tensor(v) for k, v in out.items()}
        value, seeds = _batch_loss(weights, tensors, gts)
        want_value, want_seeds = oracle(weights, out, gts)
        assert set(seeds) == seeded == set(want_seeds)
        assert_close(value, want_value)
        for key in seeded:
            assert seeds[key].shape == out[key].shape
            assert_close(seeds[key], want_seeds[key])

    def test_refinement_depth_at_full_resolution(self):
        rng = np.random.default_rng(6)
        f = TINY.refine_factor
        out = {"xi": rng.uniform(0.2, 1.0, (3, 1, 16 * f, 16 * f))}
        gts = [{"xi": rng.uniform(0.2, 1.0, (16 * f, 16 * f))}
               for _ in range(3)]
        weights = LossWeights(normal=0.0, flow=0.0, flow_confidence=0.0,
                              rotation=0.0, translation=0.0, grad_flow=0.0)
        value, seeds = _batch_loss(weights, {"xi": Tensor(out["xi"])}, gts)
        want_value, want_seeds = oracle(weights, out, gts)
        assert set(seeds) == {"xi"}
        assert_close(value, want_value)
        assert_close(seeds["xi"], want_seeds["xi"])


# --- determinism: same seed and config, same files -------------------------

@pytest.fixture(scope="module")
def tiny_samples(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "tiny.tvk")
    generate_dataset(path, 2, 4, SynthConfig(width=16, height=16))
    samples, _ = load_dataset(path)
    return samples


def test_phase_weights(tiny_samples, tmp_path):
    trainer = Trainer(TwoViewNet(TINY, seed=1), tiny_samples, K_TINY,
                      TrainConfig(grad_loss_start=1), str(tmp_path))
    assert trainer._weights_for("p1a_boot_flow", 0) == \
        PHASE_WEIGHTS["p1_flow_warmup"][0]
    assert trainer._weights_for("p1c_iter_flow", 1) == \
        PHASE_WEIGHTS["p1_flow"][0]
    assert trainer._weights_for("p1d_iter_dm", 0) == PHASE_WEIGHTS["p1_dm"][0]
    # no warm-up after phase 1
    assert trainer._weights_for("p2_iterative", 0) == PHASE_WEIGHTS["p2"][0]
    assert trainer._weights_for("p3_refine", 0) == replace(
        ALL, normal=0.0, flow=0.0, flow_confidence=0.0, rotation=0.0,
        translation=0.0, grad_flow=0.0)


@pytest.mark.parametrize("toggle, off", [
    ("use_grad_loss", {"grad_depth", "grad_flow"}),
    ("use_normals", {"normal"}),
    ("use_flow_loss", {"flow", "flow_confidence", "grad_flow"}),
    ("use_confidence", {"flow_confidence"})])
def test_ablation_toggle_switches_off_its_terms(toggle, off):
    assert TrainConfig().weights() == ALL
    weights = asdict(TrainConfig(**{toggle: False}).weights())
    assert {k for k, v in weights.items() if v == 0.0} == off
    assert all(v == 1.0 for k, v in weights.items() if k not in off)


@pytest.mark.parametrize("field, bad, edge", [
    ("seed", -1, 0), ("seed", 2**96, 2**96 - 1),
    ("batch_size", 0, 1), ("log_every", 0, 1), ("replay_passes", -1, 0),
    ("phase1_steps", -1, 0), ("phase2_steps", -5, 0), ("phase3_steps", -1, 0),
    ("iterations", -1, 0), ("lr", -1.0, 1e-9), ("lr", float("nan"), 1e-9),
    ("lr_decay", -1.0, 1.0), ("lr_decay_at", 2.0, 1.0),
    ("weight_decay", float("nan"), 0.0), ("val_fraction", 1.5, 0.0),
    ("grad_loss_start", -3, 0), ("kernel", -1, 1), ("first_kernel", -3, 1),
    ("channels", (), (16,)), ("refine_channels", (), (8,)),
    ("refine_factor", 0, 1), ("width", 0, 16),
    ("seed", 1.5, 1), ("batch_size", 2.5, 2), ("phase1_steps", 1.5, 1),
    ("replay_passes", 1.5, 1), ("log_every", 1.0, 1),
    ("grad_loss_start", 0.5, 0), ("iterations", 1.5, 1),
    ("channels", (16.5, 32), (16, 32)), ("kernel", 3.0, 3),
    ("width", "64", 64), ("use_normals", "no", False),
    ("use_grad_loss", 1, np.bool_(True)), ("single_image", 0.0, False),
    ("use_flow_confidence_input", None, np.bool_(True))])
def test_train_config_rejects_a_value_that_fails_late_or_does_nothing(
        field, bad, edge):
    config = TrainConfig if field in TrainConfig.__dataclass_fields__ \
        else NetConfig
    with pytest.raises(ValueError, match=field):
        config(**{field: bad})
    assert getattr(config(**{field: edge}), field) == edge


@pytest.mark.parametrize("fraction, n_val", [(0.0, 0), (0.01, 1), (0.5, 2)])
def test_val_fraction_zero_holds_out_no_sample(tiny_samples, tmp_path,
                                               fraction, n_val):
    trainer = Trainer(TwoViewNet(TINY), tiny_samples, K_TINY,
                      TrainConfig(val_fraction=fraction), str(tmp_path))
    assert len(trainer.val) == n_val
    assert len(trainer.train_set) == len(tiny_samples) - n_val


def test_seeded_training_writes_identical_files(tiny_samples, tmp_path):
    config = TrainConfig(seed=4, batch_size=2, phase1_steps=2, phase2_steps=2,
                         phase3_steps=2, grad_loss_start=1, log_every=1)
    files = ("phase1.tvk", "phase2.tvk", "final.tvk", "loss_curves.csv")
    runs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        trainer = Trainer(TwoViewNet(TINY, seed=4), tiny_samples, K_TINY,
                          config, str(out_dir))
        trainer.train()
        assert not trainer._memo  # released when phase 3 ends
        runs.append({name: (out_dir / name).read_bytes() for name in files})
    assert runs[0] == runs[1]
    rows = runs[0]["loss_curves.csv"].decode().splitlines()[1:]
    assert len(rows) == 4 * 2 + 2 + 2
    assert all(np.isfinite(float(row.split(",")[2])) for row in rows)


def test_missing_full_resolution_fields_fail_before_phase1(tiny_samples,
                                                           tmp_path):
    low = [replace(s, img1_full=None, xi_full=None) for s in tiny_samples]
    out_dir = tmp_path / "out"
    trainer = Trainer(TwoViewNet(TINY, seed=1), low, K_TINY,
                      TrainConfig(batch_size=2, phase1_steps=1,
                                  phase2_steps=1, phase3_steps=1),
                      str(out_dir))
    with pytest.raises(MissingFieldError):
        trainer.train()
    assert list(out_dir.iterdir()) == [] and trainer.loss_log == []
    with pytest.raises(MissingFieldError):
        trainer.phase3()


@pytest.mark.parametrize("full_factor, K, message", [
    (2, K_TINY, r"img1_full has height and width \(32, 32\), but the net "
                r"needs \(64, 64\)"),
    (4, replace(K_TINY, width=32),
     r"K has height and width \(16, 32\), but the net needs \(16, 16\)")],
    ids=["img1_full", "K"])
def test_resolution_mismatch_fails_before_phase1(tmp_path, full_factor, K,
                                                 message):
    path = str(tmp_path / "data.tvk")
    generate_dataset(path, 2, 4, SynthConfig(width=16, height=16,
                                             full_factor=full_factor))
    samples, _ = load_dataset(path)
    out_dir = tmp_path / "out"
    trainer = Trainer(TwoViewNet(TINY, seed=1), samples, K,
                      TrainConfig(batch_size=2, phase1_steps=1,
                                  phase2_steps=1, phase3_steps=1),
                      str(out_dir))
    with pytest.raises(training.FieldShapeError, match=message):
        trainer.train()
    assert list(out_dir.iterdir()) == [] and trainer.loss_log == []


def test_phase3_grad_loss_takes_every_spacing_of_the_full_resolution_grid(
        tiny_samples, tmp_path):
    # the net's grid is 16x16, the refined depth's 64x64: spacing 16 fits
    # only the latter, and phase 3's loss must keep it
    model = TwoViewNet(TINY, seed=1)
    trainer = Trainer(model, tiny_samples, K_TINY,
                      TrainConfig(batch_size=2, phase3_steps=1),
                      str(tmp_path))
    batch, _ = next(trainer._batches(training._PHASES["p3_refine"][0], 1))
    preds = model.predict([s.img1 for s in batch], [s.img2 for s in batch],
                          K_TINY, img1_full=[s.img1_full for s in batch])
    weights = trainer._weights_for("p3_refine", 0)
    want = np.mean([total_loss({"xi": p.refined_xi, "s": 1.0},
                               {"xi": s.xi_full}, weights,
                               DEFAULT_SPACINGS).value
                    for p, s in zip(preds, batch)])
    trainer.phase3()
    assert float(trainer.loss_log[0]["loss"]) == pytest.approx(want, rel=1e-8)


# --- the hooks a subclass may override (the benchmark's trainer does) -------

class ObservedTrainer(Trainer):
    """Records every hook call and the weights before and after each phase."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls, self.logged, self.phases = [], [], []

    def _observe(self, label, trained, run):
        before = self.model.state_dict()
        result = run()
        self.phases.append((label, trained, before, self.model.state_dict()))
        return result

    def _train_component(self, phase, component, forward, steps):
        self.calls.append((phase, component))
        return self._observe(
            phase, {component},
            lambda: super(ObservedTrainer, self)._train_component(
                phase, component, forward, steps))

    def phase2(self):
        self.calls.append("phase2")
        return self._observe("p2", {"iter_flow", "iter_dm"}, super().phase2)

    def phase3(self):
        self.calls.append("phase3")
        return self._observe("p3", {"refine"}, super().phase3)

    def _log(self, phase, step, value):
        self.logged.append((phase, step, value))
        super()._log(phase, step, value)


def test_subclass_hooks_see_every_phase(tiny_samples, tmp_path):
    trainer = ObservedTrainer(
        TwoViewNet(TINY, seed=5), tiny_samples, K_TINY,
        TrainConfig(seed=5, batch_size=2, phase1_steps=3, phase2_steps=3,
                    phase3_steps=1, grad_loss_start=0, log_every=2),
        str(tmp_path))
    trainer.train()
    p1 = [("p1a_boot_flow", "boot_flow"), ("p1b_boot_dm", "boot_dm"),
          ("p1c_iter_flow", "iter_flow"), ("p1d_iter_dm", "iter_dm")]
    assert trainer.calls == p1 + ["phase2", "phase3"]
    # steps 0 and 2 of each three-step phase, step 0 of phase 3
    assert [row[:2] for row in trainer.logged] == [
        (phase, step) for phase in [p for p, _ in p1] + ["p2_iterative"]
        for step in (0, 2)] + [("p3_refine", 0)]
    assert [(row["phase"], row["step"], row["loss"])
            for row in trainer.loss_log] == [
        (phase, step, f"{value:.9g}") for phase, step, value in trainer.logged]
    assert [p[0] for p in trainer.phases] == [p for p, _ in p1] + ["p2", "p3"]
    for label, trained, before, after in trainer.phases:
        for name in before:
            moved = not np.array_equal(before[name], after[name])
            if name.split(".", 1)[0] not in trained:
                assert not moved, (label, name)
            elif name.endswith(".w"):
                assert moved, (label, name)


# --- non-finite guard: the error names the phase, the step and the tensor ---

GUARD_CONFIG = TrainConfig(batch_size=2, phase1_steps=1, phase2_steps=2,
                           phase3_steps=1, grad_loss_start=0, log_every=1)


def test_nan_output_is_named_before_the_loss_runs(tiny_samples, tmp_path):
    model = TwoViewNet(TINY, seed=1)
    bias = model.params["boot_flow.head1.b"]
    new = bias.data.copy()
    new[0] = np.nan  # the first flow channel
    new.setflags(write=False)  # read-only, as Adam.step leaves it
    bias.data = new
    trainer = Trainer(model, tiny_samples, K_TINY, GUARD_CONFIG, str(tmp_path))
    with pytest.raises(NonFiniteError,
                       match="p1a_boot_flow, step 0: flow ") as info:
        trainer.train()
    err = info.value
    assert (err.phase, err.step, err.tensor) == ("p1a_boot_flow", 0, "flow")
    assert trainer.loss_log == []


def test_collapsed_scale_is_named_before_the_loss_runs(tiny_samples,
                                                       tmp_path):
    model = TwoViewNet(TINY, seed=1)
    bias = model.params["boot_dm.fc2.b"]
    new = bias.data.copy()
    new[6] = -1e4  # the scale entry: exp underflows to 0
    new.setflags(write=False)
    bias.data = new
    trainer = Trainer(model, tiny_samples, K_TINY, GUARD_CONFIG, str(tmp_path))
    with pytest.raises(CollapsedScaleError,
                       match="p1b_boot_dm, step 0: s is not positive"
                       ) as info:
        trainer.train()
    err = info.value
    assert isinstance(err, NonFiniteError)
    assert (err.phase, err.step, err.tensor) == ("p1b_boot_dm", 0, "s")
    assert [row["phase"] for row in trainer.loss_log] == ["p1a_boot_flow"]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("call, where", [(6, "loss"), (7, "seed")])
def test_non_finite_loss_or_gradient_is_named(tiny_samples, tmp_path,
                                              monkeypatch, call, where):
    calls = []
    batch_loss = training._batch_loss

    def corrupt(*args):
        value, seeds = batch_loss(*args)
        calls.append(1)
        if len(calls) == call and where == "loss":
            value = float("nan")
        elif len(calls) == call:
            for g in seeds.values():
                g.flat[0] = np.inf
        return value, seeds

    monkeypatch.setattr(training, "_batch_loss", corrupt)
    trainer = Trainer(TwoViewNet(TINY, seed=1), tiny_samples, K_TINY,
                      GUARD_CONFIG, str(tmp_path))
    with pytest.raises(NonFiniteError) as info:
        trainer.train()
    err = info.value
    if where == "loss":  # calls 1-4: phase 1; 5 and 6: phase 2
        assert (err.phase, err.step, err.tensor) == ("p2_iterative", 1, "loss")
    else:  # the gradient of a refinement parameter
        assert (err.phase, err.step) == ("p3_refine", 0)
        assert err.tensor.startswith("refine.")
    assert f"{err.phase}, step {err.step}: {err.tensor} " in str(err)
    assert len(trainer.loss_log) == call - 1


# --- frozen predictions: memoized per sample, only what a phase needs -------

def assert_same_prediction(a, b):
    for field in FIELDS:
        x, y = np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


def test_memo_entry_is_the_sample_alone_until_its_weights_change(
        tiny_samples, tmp_path, monkeypatch):
    model = TwoViewNet(TINY, seed=1)
    trainer = Trainer(model, tiny_samples, K_TINY, TrainConfig(),
                      str(tmp_path))
    calls = []
    forward = model.bootstrap_forward
    monkeypatch.setattr(model, "bootstrap_forward", lambda img1, img2: (
        calls.append(len(img1)) or forward(img1, img2)))

    idx = np.array([2, 0, 2])
    got = trainer._frozen(idx, 0)
    assert calls == [2]  # the misses, together and once each
    for i, pred in zip(idx, got):
        s = trainer.train_set[i]
        assert_same_prediction(pred, forward([s.img1], [s.img2])[0])
    assert trainer._frozen([0], 0)[0] is got[1] and calls == [2]

    final = trainer._frozen([1], TINY.iterations)[0]
    assert calls == [2, 1]  # sample 1's bootstrap was not memoized yet
    s = trainer.train_set[1]
    assert_same_prediction(final, model.predict([s.img1], [s.img2], K_TINY)[0])

    calls.clear()
    bias = model.params["boot_dm.fc2.b"]
    new = bias.data + 1.0
    new.setflags(write=False)
    bias.data = new  # an update replaces the array with a read-only one
    again = trainer._frozen([0], 0)[0]
    assert calls == [1] and again is not got[1]
    s = trainer.train_set[0]
    assert_same_prediction(again, forward([s.img1], [s.img2])[0])
    assert again.s != got[1].s
    assert trainer._frozen([0], 0)[0] is again and calls == [1]
    # its bootstrap changed too
    assert trainer._frozen([1], TINY.iterations)[0] is not final
    assert calls == [1, 1]


@pytest.mark.parametrize("kind", ["writeable", "read-only view"])
def test_memo_entry_made_with_a_mutable_array_is_recomputed(
        tiny_samples, tmp_path, kind):
    model = TwoViewNet(TINY, seed=1)
    trainer = Trainer(model, tiny_samples, K_TINY, TrainConfig(),
                      str(tmp_path))
    bias = model.params["boot_dm.fc2.b"]
    base = bias.data.copy()  # assigned from outside: writeable
    if kind == "writeable":
        bias.data = base
    else:
        view = base.view()
        view.setflags(write=False)
        bias.data = view  # read-only, but changes with its writeable base
    first = trainer._frozen([0], 0)[0]
    base += 1.0  # the same array, changed in place
    again = trainer._frozen([0], 0)[0]
    s = trainer.train_set[0]
    assert_same_prediction(
        again, model.bootstrap_forward([s.img1], [s.img2])[0])
    assert again.s != first.s


def test_replay_pool_feeds_back_each_prediction_up_to_replay_passes_times(
        tiny_samples, tmp_path, monkeypatch):
    model = TwoViewNet(TINY, seed=1)
    config = TrainConfig(batch_size=2, replay_passes=2, phase2_steps=4)
    trainer = Trainer(model, tiny_samples, K_TINY, config, str(tmp_path))
    steps = []  # (img1, img2, prev, predictions out) of every forward
    forward = model.iterative_tensors

    def spy(img1, img2, prev, K):
        out = forward(img1, img2, prev, K)
        steps.append((img1, img2, prev, model.tensors_to_predictions(out)))
        return out

    monkeypatch.setattr(model, "iterative_tensors", spy)
    trainer.phase2()
    assert len(steps) == 4
    pool = []  # (img1, prediction, passes since its bootstrap), oldest first
    for img1, img2, prev, outs in steps:
        fresh = config.batch_size
        n_replayed = min(len(pool), fresh * config.replay_passes)
        assert len(prev) == fresh + n_replayed
        for j in range(fresh):  # the bootstrap output of the step's draws
            assert_same_prediction(
                prev[j], model.bootstrap_forward([img1[j]], [img2[j]])[0])
        replayed, pool = pool[:n_replayed], pool[n_replayed:]
        for j, (image, previous, _) in enumerate(replayed, fresh):
            assert img1[j] is image
            assert_same_prediction(prev[j], previous)  # its last output
        ages = [0] * fresh + [age for _, _, age in replayed]
        pool += [(img1[j], outs[j], age + 1) for j, age in enumerate(ages)
                 if age < config.replay_passes]
    assert max(age for _, _, age in pool) == config.replay_passes

def test_flow_only_phases_never_run_their_depth_motion_net(
        tiny_samples, tmp_path, monkeypatch):
    model = TwoViewNet(TINY, seed=1)
    trainer = Trainer(model, tiny_samples, K_TINY,
                      TrainConfig(batch_size=2, phase1_steps=2,
                                  grad_loss_start=1, log_every=1),
                      str(tmp_path))
    phases = []
    train_component = trainer._train_component
    monkeypatch.setattr(trainer, "_train_component", lambda phase, *a: (
        phases.append(phase) or train_component(phase, *a)))
    # the frozen bootstrap of p1c (memoized) does run boot_dm
    for ed, flow_only in ((model.boot_dm, ("p1a_boot_flow",)),
                          (model.iter_dm, ("p1a_boot_flow", "p1c_iter_flow"))):
        def guarded(x, run=ed.forward, flow_only=flow_only):
            assert phases[-1] not in flow_only
            return run(x)
        monkeypatch.setattr(ed, "forward", guarded)
    trainer.phase1()
    assert phases == ["p1a_boot_flow", "p1b_boot_dm", "p1c_iter_flow",
                      "p1d_iter_dm"]
    assert [row["phase"] for row in trainer.loss_log].count(
        "p1c_iter_flow") == 2


def test_a_step_frees_its_outputs_before_the_next_forward(
        tiny_samples, tmp_path, monkeypatch):
    # p1b's flow outputs head a subgraph no backward walks (the frozen
    # flow net's), so only dropping the step's outputs frees it
    model = TwoViewNet(TINY, seed=1)
    trainer = Trainer(model, tiny_samples, K_TINY,
                      TrainConfig(batch_size=2, phase1_steps=3,
                                  grad_loss_start=0, log_every=1),
                      str(tmp_path))
    flows = []
    forward = model.bootstrap_tensors

    def watched(*args):
        assert all(flow() is None for flow in flows), len(flows)
        out = forward(*args)
        flows.append(weakref.ref(out["flow"].data))
        return out

    monkeypatch.setattr(model, "bootstrap_tensors", watched)
    trainer.phase1()
    assert len(flows) >= 3


# --- every ablation row trains ----------------------------------------------

@pytest.mark.parametrize("toggle", [
    "use_grad_loss", "use_normals", "use_flow_loss", "use_confidence",
    "single_image", "use_flow_confidence_input"])
def test_ablation_row_trains_one_step(tiny_samples, tmp_path, toggle):
    net, train = TINY, TrainConfig(batch_size=2, phase1_steps=1,
                                   phase2_steps=1, phase3_steps=1,
                                   grad_loss_start=0, log_every=1)
    if toggle in train.__dataclass_fields__:
        train = replace(train, **{toggle: False})
    else:
        net = replace(net, **{toggle: not getattr(net, toggle)})
    trainer = Trainer(TwoViewNet(net, seed=1), tiny_samples, K_TINY, train,
                      str(tmp_path))
    trainer.train()
    phases = [row["phase"] for row in trainer.loss_log]
    # without the flow loss the flow-only phases have nothing to train on
    skipped = ({"p1a_boot_flow", "p1c_iter_flow"}
               if toggle == "use_flow_loss" else set())
    assert phases == [p for p in ("p1a_boot_flow", "p1b_boot_dm",
                                  "p1c_iter_flow", "p1d_iter_dm",
                                  "p2_iterative", "p3_refine")
                      if p not in skipped]
    assert all(np.isfinite(float(row["loss"])) for row in trainer.loss_log)
    for name in ("phase1.tvk", "phase2.tvk", "final.tvk", "loss_curves.csv"):
        assert (tmp_path / name).exists()


# --- evaluation --------------------------------------------------------------

def per_sample_rows(model, samples, n_iters):
    """evaluate_iterations recomputed one sample and one metric at a time."""
    per_it = [[] for _ in range(n_iters + 1)]
    for s in samples:
        history = model.predict([s.img1], [s.img2], K_TINY, n_iters=n_iters,
                                keep_history=True)
        mask = s.valid_flow & s.valid_depth
        assert mask.any()
        z_gt = 1.0 / np.clip(s.xi, XI_FLOOR, None)
        for it, (p,) in enumerate(history):
            z = 1.0 / np.clip(p.xi * p.s, XI_FLOOR, None)
            err = motion_angular_errors(p.motion().normalized(), s.motion())
            per_it[it].append({
                "l1_inv": l1_inv(z, z_gt, mask), "sc_inv": sc_inv(z, z_gt, mask),
                "l1_rel": l1_rel(z, z_gt, mask),
                "epe": endpoint_error(p.flow, s.flow, mask),
                "rot_deg": err.rot_deg, "trans_deg": err.trans_deg})
    return [{"iteration": it, **{k: float(np.mean([r[k] for r in rows]))
                                 for k in rows[0]}}
            for it, rows in enumerate(per_it)]


def test_evaluate_iterations_matches_per_sample_metrics(tiny_samples):
    model = TwoViewNet(replace(TINY, dtype="float64"), seed=2)
    samples = tiny_samples[:3]
    rows = evaluate_iterations(model, samples, K_TINY, n_iters=2)
    assert [r["iteration"] for r in rows] == [0, 1, 2]
    assert rows == per_sample_rows(model, samples, 2)
    one = evaluate_iterations(model, samples, K_TINY, n_iters=2, batch_size=1)
    assert [np.array(list(r.values())).tobytes() for r in one] == \
        [np.array(list(r.values())).tobytes() for r in rows]


def test_evaluate_iterations_rows_round_trip_through_the_csv(tiny_samples,
                                                            tmp_path):
    model = TwoViewNet(replace(TINY, dtype="float64"), seed=2)
    rows = evaluate_iterations(model, tiny_samples[:2], K_TINY, n_iters=1)
    del rows[1]["epe"]  # an error the row lacks stays empty
    path = str(tmp_path / "eval.csv")
    write_csv([csv_row("tiny", f"it{r['iteration']}", r) for r in rows], path)
    with open(path, newline="") as f:
        read = list(csv.DictReader(f))
    assert [list(r) for r in read] == [CSV_FIELDS] * 2
    for row, back in zip(rows, read):
        assert back["method"] == f"it{row['iteration']}"
        for k in CSV_FIELDS[2:]:  # 9 significant digits, or empty
            if k in row:
                assert float(back[k]) == pytest.approx(row[k], rel=5e-9)
            else:
                assert back[k] == ""


def test_intrinsics_from_meta_reads_the_dataset_config(tmp_path):
    cfg = SynthConfig(width=16, height=16, fx=0.7, cy=0.45,
                      include_full=False)
    path = str(tmp_path / "k.tvk")
    generate_dataset(path, 2, 1, cfg)
    _, meta = load_dataset(path)
    assert training.intrinsics_from_meta(meta) == cfg.intrinsics()
    assert training.intrinsics_from_meta({}) == SynthConfig().intrinsics()
