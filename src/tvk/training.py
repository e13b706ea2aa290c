"""Three-phase training procedure and the evaluation harness.

Phase 1 trains the four low-resolution encoder-decoders sequentially
(flow then depth/motion, bootstrap then iterative), keeping the weights
of all previously trained components fixed; the scale-invariant gradient
loss on flow is switched on only after a warm-up. Phase 2 trains the
iterative pair alone: every minibatch of fresh samples (whose previous
estimate comes from the frozen bootstrap stage) is extended with stored
predictions of earlier passes over the same samples, held in a replay
pool; stored predictions enter as constants, so no gradient crosses
iteration boundaries. Phase 3 trains the refinement stage with all other
weights fixed.

All six phases (p1a-p1d, p2, p3) run through one loop, ``Trainer._train``.
Each step sets the learning rate, runs the phase's forward (its graph
outputs and one ground truth per sample), evaluates ``_batch_loss``, runs
``zero_grad``, ``backward`` and ``Adam.step``, and logs every ``log_every``
steps through ``_log``. Phase 2's forward puts its outputs into the replay
pool as soon as it has them; nothing reads the pool before the next forward.
``_PHASES`` holds each phase's batch seed and loss terms. A non-finite
output the loss reads (checked before the loss runs), loss value or trained
parameter's gradient raises ``NonFiniteError``, which names the phase, the
step and the tensor; a scale output ``s`` that is not positive raises its
subclass ``CollapsedScaleError``.

Losses bridge into the graph as seed gradients: ``_batch_loss`` runs
``losses.total_loss`` per sample on the detached outputs and injects the
batch-mean analytic gradients into the output tensors that received one;
``network.per_sample`` and ``network.OUTPUT_FIELDS`` do both crossings.
It stays a per-sample loop: one batched pass over phase 3's
full-resolution depth raised peak memory and took longer.

A frozen stage runs once per training sample, not once per visit, and a
phase runs no stage it does not need. The flow-only phases (p1a, p1c) run
only the flow net, through
``TwoViewNet.bootstrap_flow_tensors`` / ``iterative_flow_tensors``.
``Trainer._frozen(idx, iterations)`` gives the low-resolution prediction of
training samples after ``iterations`` iterative steps, memoized per sample:
the bootstrap output (key 0) from p1c on, and the final prediction (key
``NetConfig.iterations``) in phase 3. A miss is computed by
``TwoViewNet.bootstrap_forward`` / ``iterative_forward``, which build no
graph (``autodiff.no_grad``); a key above 0 takes its misses' bootstrap from
key 0. The memo saves work only where a training-sample index repeats while
its key is valid: within a batch, or in a later step of p1c, p1d, phase 2 or
phase 3 (key 0) or of phase 3 (the final key). Draws that do not repeat cost
what recomputing costs.

Each key holds one snapshot, the weight arrays of the stages it reads, and
its entries follow ``autodiff``'s one validity rule for values computed
from weights: they are valid while each array of the snapshot ``is`` the
current one and is ``autodiff.immutable``; otherwise the key starts again
empty. So a key whose snapshot holds a writeable array or a view (one
assigned from outside) is emptied on every lookup. All misses of a lookup
are computed in one batch. Because every op is batch invariant (see
``autodiff``), an entry equals a fresh prediction of that sample, in any
batch, bitwise, so training writes what recomputing would.

The memo holds at most one bootstrap and one final entry per training
sample, each about 197 KB (a float64 ``Prediction`` at 64x48): at most
394 KB per training sample, against the 1.87 MB a loaded training sample
takes. Phase 3 clears it when it ends.

A step's graph lives from its forward to its ``backward``, which frees the
activations and gradients of each layer once it has passed it (see
``autodiff``). The step then drops its outputs, so the next forward runs
neither beside them nor beside a subgraph no ``backward`` walked (p1b's and
p1d's frozen flow net). Phase 3's full-resolution refinement step sets the
peak. Traced numpy memory (``tracemalloc``) rises above its level at the
phase's start by about 114 MiB in phase 3, 59 MiB in phase 2 (its new
replay entries live through the step's backward) and 42 MiB in phase 1
(44 MiB with 3 steps per net), at batch 8 with the default ``NetConfig``,
12 samples, 1/2/1 steps per phase, ``grad_loss_start=0`` and the dataset,
net and training seeds all 601, 602 or 603.

A phase-1 phase whose loss weights are all zero (``use_flow_loss=False``
leaves p1a and p1c nothing to train on) is skipped and logs nothing.
``train`` checks the dataset before phase 1 writes anything: a missing
full-resolution field raises ``MissingFieldError``, and a field or ``K``
without the net's resolution raises ``FieldShapeError``.
"""

from __future__ import annotations

import collections
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import container
from .autodiff import Adam, backward, immutable
from .geometry import Intrinsics, check_field_types
from .losses import LossWeights, total_loss
from .metrics import (CSV_FIELDS, depth_error_report, endpoint_error,
                      motion_angular_errors, write_csv)
from .network import (OUTPUT_FIELDS, XI_FLOOR, NetConfig, Prediction,
                      TwoViewNet, per_sample, sample_fields)
from .synthdata import SamplePair, SynthConfig

_FLOW = ("flow", "flow_confidence", "grad_flow")
_DEPTH_MOTION = ("depth", "normal", "rotation", "translation", "grad_depth")


@dataclass
class TrainConfig:
    seed: int = 0
    batch_size: int = 8
    replay_passes: int = 3
    lr: float = 1e-3
    lr_decay: float = 0.3
    lr_decay_at: float = 0.75  # fraction of each phase
    weight_decay: float = 0.0004
    phase1_steps: int = 2000
    phase2_steps: int = 8000
    phase3_steps: int = 2000
    grad_loss_start: int = 200
    val_fraction: float = 0.1
    log_every: int = 25
    # loss term toggles (ablation rows)
    use_grad_loss: bool = True
    use_normals: bool = True
    use_flow_loss: bool = True
    use_confidence: bool = True

    def __post_init__(self):
        check_field_types(self)
        for field, ok in (
                # Philox keys lie in [0, 2**128); _batches uses seed << 32
                ("seed", 0 <= self.seed < 2**96),
                ("batch_size", self.batch_size >= 1),
                ("log_every", self.log_every >= 1),
                ("replay_passes", self.replay_passes >= 0),
                ("phase1_steps", self.phase1_steps >= 0),
                ("phase2_steps", self.phase2_steps >= 0),
                ("phase3_steps", self.phase3_steps >= 0),
                ("grad_loss_start", self.grad_loss_start >= 0),
                ("lr", 0 < self.lr < np.inf),
                ("lr_decay", 0 < self.lr_decay <= 1),
                ("lr_decay_at", 0 <= self.lr_decay_at <= 1),
                ("weight_decay", 0 <= self.weight_decay < np.inf),
                ("val_fraction", 0 <= self.val_fraction < 1)):
            if not ok:
                raise ValueError(f"{field}={getattr(self, field)} is out of range")

    def weights(self) -> LossWeights:
        """Default weights with the terms of the switched-off toggles at 0."""
        off = ((self.use_grad_loss, ("grad_depth", "grad_flow")),
               (self.use_normals, ("normal",)), (self.use_flow_loss, _FLOW),
               (self.use_confidence, ("flow_confidence",)))
        return LossWeights(**{term: 0.0 for on, terms in off if not on
                              for term in terms})


class MissingFieldError(ValueError):
    """Dataset lacks a ground-truth field required by the training phase."""


class FieldShapeError(ValueError):
    """A dataset field or ``K`` does not have the net's resolution."""


class NonFiniteError(FloatingPointError):
    """A training step produced a NaN or an infinity in ``tensor``: an
    output key, ``"loss"`` or the name of a trained parameter's gradient."""

    what = "finite"

    def __init__(self, phase: str, step: int, tensor: str):
        super().__init__(f"{phase}, step {step}: {tensor} is not {self.what}")
        self.phase, self.step, self.tensor = phase, step, tensor


class CollapsedScaleError(NonFiniteError):
    """The scale output ``s`` is not positive (its ``exp`` underflowed)."""

    what = "positive"


def intrinsics_from_meta(meta: dict) -> Intrinsics:
    """The camera of a dataset's ``SynthConfig``; a field its meta lacks
    takes the ``SynthConfig`` default."""
    cfg = meta.get("config", {})
    return replace(SynthConfig(), **{
        k: cfg[k] for k in ("fx", "fy", "cx", "cy", "width", "height")
        if k in cfg}).intrinsics()


# phase -> (key of its batch draws, the loss terms it trains on)
_PHASES = {"p1a_boot_flow": (11, _FLOW), "p1b_boot_dm": (12, _DEPTH_MOTION),
           "p1c_iter_flow": (13, _FLOW), "p1d_iter_dm": (14, _DEPTH_MOTION),
           "p2_iterative": (2, _FLOW + _DEPTH_MOTION),
           "p3_refine": (3, ("depth", "grad_depth"))}


def _images(samples: list[SamplePair]) -> tuple[list, list]:
    return [s.img1 for s in samples], [s.img2 for s in samples]


def _ground_truth(sample: SamplePair) -> dict:
    return {"xi": sample.xi, "normals": sample.normals, "flow": sample.flow,
            "r": sample.r, "t": sample.t, "valid_depth": sample.valid_depth,
            "valid_flow": sample.valid_flow}


def _batch_loss(weights: LossWeights, tensors: dict,
                gts: list[dict]) -> tuple[float, dict]:
    """Mean per-sample ``total_loss`` of a batch and its seed gradients.

    ``tensors`` holds batched graph outputs under keys of
    ``network.OUTPUT_FIELDS``; a missing ``s`` counts as 1. ``gts`` holds
    one ground-truth dict per sample. Seeds are returned, in
    ``OUTPUT_FIELDS`` order, only for the outputs that received a gradient,
    so a flow-only loss never backpropagates through the depth-motion net.
    """
    acc: dict[str, np.ndarray] = {}
    value = 0.0
    for n, gt in enumerate(gts):
        out = total_loss({"s": 1.0, **sample_fields(tensors, n)}, gt, weights)
        value += out.value
        for key, field in OUTPUT_FIELDS.items():
            if key in tensors and field in out.grads:
                if key not in acc:
                    acc[key] = np.zeros_like(tensors[key].data)
                per_sample(acc[key])[n] += out.grads[field]
    scale = 1.0 / len(gts)  # losses are pixel sums; average over the batch
    return value * scale, {k: a * scale for k, a in acc.items()}


def _only(weights: LossWeights, *terms: str) -> LossWeights:
    """``weights`` with every term but ``terms`` switched off."""
    return replace(weights, **{k: 0.0 for k in weights.__dataclass_fields__
                               if k not in terms})


def _require_finite(phase: str, step: int, arrays: dict) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise NonFiniteError(phase, step, name)


class Trainer:
    def __init__(self, model: TwoViewNet, samples: list[SamplePair],
                 K: Intrinsics, config: TrainConfig, out_dir: str):
        self.model = model
        self.K = K
        self.config = config
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        rng = np.random.Generator(np.random.Philox(key=config.seed))
        order = rng.permutation(len(samples))
        n_val = (max(1, int(round(config.val_fraction * len(samples))))
                 if config.val_fraction else 0)
        self.val = [samples[i] for i in order[:n_val]]
        self.train_set = [samples[i] for i in order[n_val:]]
        if not self.train_set:
            raise ValueError("dataset too small for the requested split")
        self.loss_log: list[dict] = []
        # iterative steps -> (weight arrays of the stages those steps read,
        # {training-sample index: Prediction})
        self._memo: dict[int, tuple] = {}

    # --- helpers ---------------------------------------------------------

    def _batches(self, phase_seed: int, steps: int):
        rng = np.random.Generator(
            np.random.Philox(key=(self.config.seed << 32) + phase_seed))
        n = len(self.train_set)
        for _ in range(steps):
            idx = rng.integers(0, n, size=self.config.batch_size)
            yield [self.train_set[i] for i in idx], idx

    def _lr_at(self, step: int, steps: int) -> float:
        if steps <= 0 or step < self.config.lr_decay_at * steps:
            return self.config.lr
        return self.config.lr * self.config.lr_decay

    def _log(self, phase: str, step: int, value: float):
        self.loss_log.append({"phase": phase, "step": step,
                              "loss": f"{value:.9g}"})

    def _weights_for(self, phase: str, step: int) -> LossWeights:
        """The phase's terms of ``config.weights()``; phase 1 adds the flow
        gradient term from step ``grad_loss_start`` on."""
        w = _only(self.config.weights(), *_PHASES[phase][1])
        if phase.startswith("p1") and step < self.config.grad_loss_start:
            w = replace(w, grad_flow=0.0)
        return w

    def _require_fields(self):
        """Every training sample has the full-resolution fields, and every
        field, like ``K``, has the net's resolution (``refine_factor`` times
        it for ``*_full``)."""
        if any(s.xi_full is None or s.img1_full is None
               for s in self.train_set):
            raise MissingFieldError(
                "refinement training needs full-resolution fields "
                "(img1_full, xi_full) in the dataset")
        cfg = self.model.cfg
        low = (cfg.height, cfg.width)
        full = (cfg.height * cfg.refine_factor, cfg.width * cfg.refine_factor)
        shapes = [("K", (self.K.height, self.K.width))] + [
            (f.name, np.shape(getattr(s, f.name))[:2])
            for s in self.train_set for f in fields(s)
            if np.ndim(getattr(s, f.name)) >= 2]
        for name, got in shapes:
            want = full if name.endswith("_full") else low
            if got != want:
                raise FieldShapeError(f"{name} has height and width {got}, "
                                      f"but the net needs {want}")

    # --- frozen predictions, memoized per training sample ------------------

    def _frozen(self, idx, iterations: int) -> list[Prediction]:
        """Low-resolution ``predict`` of training samples ``idx`` after
        ``iterations`` iterative steps (0: the bootstrap output), from the
        memo (see the module docstring); the misses run in one batch."""
        stages = ("boot_flow", "boot_dm", "iter_flow", "iter_dm")
        arrays = [p.data for c in stages[:4 if iterations else 2]
                  for p in self.model.component_parameters(c).values()]
        snapshot, memo = self._memo.get(iterations, (None, None))
        if memo is None or not all(
                a is b and immutable(a) for a, b in zip(snapshot, arrays)):
            memo = {}
            self._memo[iterations] = (arrays, memo)
        misses = [i for i in dict.fromkeys(int(i) for i in idx)
                  if i not in memo]
        if misses:
            imgs = _images([self.train_set[i] for i in misses])
            if iterations:
                preds = self._frozen(misses, 0)
                for _ in range(iterations):
                    preds = self.model.iterative_forward(*imgs, preds, self.K)
            else:
                preds = self.model.bootstrap_forward(*imgs)
            memo.update(zip(misses, preds))
        return [memo[int(i)] for i in idx]

    # --- phases ------------------------------------------------------------

    def _train(self, phase: str, params: dict, steps: int, forward) -> Adam:
        """The one training loop (module docstring): ``steps`` Adam steps of
        ``params``. ``forward(batch, idx)`` returns the graph outputs and
        one ground truth per sample."""
        cfg = self.config
        opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        for step, (batch, idx) in enumerate(
                self._batches(_PHASES[phase][0], steps)):
            opt.lr = self._lr_at(step, steps)
            tensors, gts = forward(batch, idx)
            _require_finite(phase, step, {k: tensors[k].data for k in
                                          OUTPUT_FIELDS if k in tensors})
            if "s" in tensors and not (tensors["s"].data > 0).all():
                raise CollapsedScaleError(phase, step, "s")
            value, seeds = _batch_loss(self._weights_for(phase, step),
                                       tensors, gts)
            _require_finite(phase, step, {"loss": value})
            opt.zero_grad()
            backward({tensors[k]: g for k, g in seeds.items()})
            _require_finite(phase, step, {name: p.grad for name, p in
                                          params.items() if p.grad is not None})
            opt.step()
            if step % cfg.log_every == 0:
                self._log(phase, step, value)
            # the next forward must not run beside this step's outputs and
            # the subgraphs backward did not walk (a frozen flow net's)
            del tensors, gts, seeds
        return opt

    def _train_component(self, phase: str, component: str, forward, steps):
        """One phase-1 phase: train one encoder-decoder, others fixed.

        ``forward(batch, idx)`` gives the graph outputs of a batch. A phase
        whose loss weights are all zero (after the warm-up) is skipped: it
        takes no steps and logs nothing.
        """
        if not any(asdict(self._weights_for(
                phase, self.config.grad_loss_start)).values()):
            return None
        return self._train(
            phase, self.model.component_parameters(component), steps,
            lambda batch, idx: (forward(batch, idx),
                                [_ground_truth(s) for s in batch]))

    def phase1(self):
        model = self.model

        def boot(net):
            return lambda batch, idx: net(*_images(batch))

        def iterative(net):
            return lambda batch, idx: net(*_images(batch),
                                          self._frozen(idx, 0), self.K)

        for phase, component, forward in (
                ("p1a_boot_flow", "boot_flow",
                 boot(model.bootstrap_flow_tensors)),
                ("p1b_boot_dm", "boot_dm", boot(model.bootstrap_tensors)),
                ("p1c_iter_flow", "iter_flow",
                 iterative(model.iterative_flow_tensors)),
                ("p1d_iter_dm", "iter_dm", iterative(model.iterative_tensors))):
            self._train_component(phase, component, forward,
                                  self.config.phase1_steps)
        self.save_checkpoint("phase1.tvk")

    def phase2(self):
        """Joint iterative training with the prediction replay pool."""
        model = self.model
        cfg = self.config
        params = {**model.component_parameters("iter_flow"),
                  **model.component_parameters("iter_dm")}
        pool: collections.deque = collections.deque()  # (sample, prev, age)

        def forward(batch, idx):
            entries = [(s, p, 0) for s, p in zip(batch, self._frozen(idx, 0))]
            entries += [pool.popleft() for _ in range(
                min(len(pool), cfg.batch_size * cfg.replay_passes))]
            samples = [e[0] for e in entries]
            tensors = model.iterative_tensors(*_images(samples),
                                              [e[1] for e in entries], self.K)
            pool.extend((s, pred, age + 1) for (s, _p, age), pred in zip(
                entries, model.tensors_to_predictions(tensors))
                if age < cfg.replay_passes)
            return tensors, [_ground_truth(s) for s in samples]

        self._train("p2_iterative", params, cfg.phase2_steps, forward)
        self.save_checkpoint("phase2.tvk")

    def phase3(self):
        """Refinement training; all other weights fixed."""
        self._require_fields()

        def forward(batch, idx):
            return ({"xi": self.model.refine_tensors(
                        [s.img1_full for s in batch],
                        self._frozen(idx, self.model.cfg.iterations))},
                    [{"xi": s.xi_full} for s in batch])

        self._train("p3_refine", self.model.component_parameters("refine"),
                    self.config.phase3_steps, forward)
        self._memo.clear()  # no later phase reads it
        self.save_checkpoint("final.tvk")

    def train(self):
        self._require_fields()  # fail before phase 1 writes anything
        self.phase1()
        self.phase2()
        self.phase3()
        self.write_loss_csv()

    # --- persistence ------------------------------------------------------

    def save_checkpoint(self, name: str):
        path = os.path.join(self.out_dir, name)
        save_checkpoint(path, self.model, self.config)

    def write_loss_csv(self):
        path = os.path.join(self.out_dir, "loss_curves.csv")
        write_csv(self.loss_log, path, ["phase", "step", "loss"])
        return path


def save_checkpoint(path: str, model: TwoViewNet,
                    train_config: TrainConfig | None = None) -> None:
    meta = {"kind": "checkpoint-v1", "net_config": asdict(model.cfg)}
    if train_config is not None:
        meta["train_config"] = asdict(train_config)
    container.save_arrays(path, model.state_dict(), meta=meta)


def load_checkpoint(path: str) -> tuple[TwoViewNet, dict]:
    arrays, meta = container.load_arrays(path)
    model = TwoViewNet(NetConfig.from_dict(meta.get("net_config", {})), seed=0)
    model.load_state_dict(arrays)
    return model, meta


# --- evaluation --------------------------------------------------------------

def evaluate_iterations(model: TwoViewNet, samples: list[SamplePair],
                        K: Intrinsics, n_iters: int,
                        batch_size: int = 16) -> list[dict]:
    """Mean metrics per iteration count (0 = bootstrap output).

    Depth metrics are computed on z = 1/(s*xi) against the ground truth,
    restricted to pixels visible in both images; the endpoint error uses
    the same mask; motion errors compare unit translations and angle-axis
    rotations. A row holds the report schema's error names, so
    ``metrics.csv_row`` takes it as it is (``iteration`` is not written).
    """
    accum = [collections.defaultdict(list) for _ in range(n_iters + 1)]
    for start in range(0, len(samples), batch_size):
        batch = samples[start:start + batch_size]
        history = model.predict([s.img1 for s in batch],
                                [s.img2 for s in batch], K,
                                n_iters=n_iters, keep_history=True)
        for it, preds in enumerate(history):
            for sample, pred in zip(batch, preds):
                mask = sample.valid_flow & sample.valid_depth
                if not mask.any():
                    continue
                z = pred.metric_depth()
                z_gt = 1.0 / np.clip(sample.xi, XI_FLOOR, None)
                errors = {**asdict(depth_error_report(z, z_gt, mask)),
                          **asdict(motion_angular_errors(
                              pred.motion().normalized(), sample.motion())),
                          "epe": endpoint_error(pred.flow, sample.flow, mask)}
                for k in CSV_FIELDS[2:]:
                    accum[it][k].append(errors[k])
    return [{"iteration": it, **{k: float(np.mean(v)) for k, v in a.items()}}
            for it, a in enumerate(accum)]
