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
steps through ``_log``; phase 2 also gets the step's outputs after the
optimizer step, for its replay pool. ``_PHASES`` holds each phase's batch
seed and loss terms. A non-finite output the loss reads (checked before the
loss runs), loss value or trained parameter's gradient raises
``NonFiniteError``, which names the phase, the step and the tensor.

Losses bridge into the graph as seed gradients: ``_batch_loss`` runs
``losses.total_loss`` per sample on the detached outputs and injects the
batch-mean analytic gradients into the output tensors that received one.
It stays a per-sample loop: one batched pass over phase 3's
full-resolution depth raised peak memory and took longer.

A frozen stage runs once per training sample, not once per visit, and a
phase runs no stage it does not need. The flow-only phases (p1a, p1c) run
only the flow net, through
``TwoViewNet.bootstrap_flow_tensors`` / ``iterative_flow_tensors``. The
predictions of frozen stages are memoized per training sample: the
bootstrap output from p1c on, and the final low-resolution prediction
(bootstrap plus ``iterations`` iterative steps) in phase 3. A miss is
computed by ``TwoViewNet.bootstrap_forward`` / ``iterative_forward``, which
build no graph (``autodiff.no_grad``). The memo saves
work only where a training-sample index repeats while its entry is valid:
within a batch, or in a later step of p1c, p1d, phase 2 or phase 3 (the
bootstrap entries) or of phase 3 (the final ones). Draws that do not
repeat cost what recomputing costs.

An entry holds the weight arrays of the stages that computed it and is
valid while each of them ``is`` the current array and is
``autodiff.immutable``; parameter arrays are read-only and every update
replaces them, and since the entry keeps the old arrays alive their ids
cannot be reused. An array that is writeable or a view (one assigned from
outside) could change in place, so an entry made with one is recomputed
on every use. A stale or missing entry is recomputed, all misses of a
batch in one batch.
Because every op is batch invariant (see ``autodiff``), an entry equals a
fresh prediction of that sample, in any batch, bitwise, so training writes
what recomputing would.

The memo holds at most one bootstrap and one final entry per training
sample, each about 197 KB (a float64 ``Prediction`` at 64x48): at most
394 KB per training sample, against the 1.87 MB a loaded training sample
takes. Phase 3 clears it when it ends.

A phase-1 phase whose loss weights are all zero (``use_flow_loss=False``
leaves p1a and p1c nothing to train on) is skipped and logs nothing.
"""

from __future__ import annotations

import collections
import csv
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import container
from .autodiff import Adam, backward, immutable
from .geometry import Intrinsics
from .losses import LossWeights, total_loss
from .metrics import (
    endpoint_error,
    l1_inv,
    l1_rel,
    motion_angular_errors,
    sc_inv,
)
from .network import NetConfig, Prediction, TwoViewNet, XI_FLOOR
from .synthdata import SamplePair

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

    def weights(self) -> LossWeights:
        """Default weights with the terms of the switched-off toggles at 0."""
        off = ((self.use_grad_loss, ("grad_depth", "grad_flow")),
               (self.use_normals, ("normal",)), (self.use_flow_loss, _FLOW),
               (self.use_confidence, ("flow_confidence",)))
        return LossWeights(**{term: 0.0 for on, terms in off if not on
                              for term in terms})


class MissingFieldError(ValueError):
    """Dataset lacks a ground-truth field required by the training phase."""


class NonFiniteError(FloatingPointError):
    """A training step produced a NaN or an infinity in ``tensor``: an
    output key, ``"loss"`` or the name of a trained parameter's gradient."""

    def __init__(self, phase: str, step: int, tensor: str):
        super().__init__(f"{phase}, step {step}: {tensor} is not finite")
        self.phase, self.step, self.tensor = phase, step, tensor


def intrinsics_from_meta(meta: dict) -> Intrinsics:
    cfg = meta.get("config", {})
    return Intrinsics(cfg.get("fx", 0.89), cfg.get("fy", 1.19),
                      cfg.get("cx", 0.5), cfg.get("cy", 0.5),
                      cfg.get("width", 64), cfg.get("height", 48))


# network output -> the name of its prediction in ``total_loss``
_LOSS_NAMES = {"flow": "flow", "conf": "flow_confidence", "xi": "xi",
               "normals": "normals", "r": "r", "t": "t", "s": "s"}
_MAPS = ("flow", "conf", "normals")  # (N, C, H, W); (H, W, C) in the loss

# phase -> (key of its batch draws, the loss terms it trains on)
_PHASES = {"p1a_boot_flow": (11, _FLOW), "p1b_boot_dm": (12, _DEPTH_MOTION),
           "p1c_iter_flow": (13, _FLOW), "p1d_iter_dm": (14, _DEPTH_MOTION),
           "p2_iterative": (2, _FLOW + _DEPTH_MOTION),
           "p3_refine": (3, ("depth", "grad_depth"))}


def _at(key: str, k: int):
    """Index of sample k in output ``key``; xi and s keep a channel axis."""
    return (k, 0) if key in ("xi", "s") else k


def _images(samples: list[SamplePair]) -> tuple[list, list]:
    return [s.img1 for s in samples], [s.img2 for s in samples]


def _ground_truth(sample: SamplePair) -> dict:
    return {"xi": sample.xi, "normals": sample.normals, "flow": sample.flow,
            "r": sample.r, "t": sample.t, "valid_depth": sample.valid_depth,
            "valid_flow": sample.valid_flow}


def _batch_loss(weights: LossWeights, tensors: dict, gts: list[dict],
                spacings) -> tuple[float, dict]:
    """Mean per-sample ``total_loss`` of a batch and its seed gradients.

    ``tensors`` holds batched graph outputs under the keys of
    ``_LOSS_NAMES``; a missing ``s`` counts as 1. ``gts`` holds one
    ground-truth dict per sample. Seeds are returned, in ``_LOSS_NAMES``
    order, only for the outputs that received a gradient, so a flow-only
    loss never backpropagates through the depth-motion net.
    """
    data = {k: tensors[k].data for k in _LOSS_NAMES if k in tensors}
    acc: dict[str, np.ndarray] = {}
    value = 0.0
    for k, gt in enumerate(gts):
        pred = {"s": 1.0}
        for key, a in data.items():
            a = a[_at(key, k)]
            if key in _MAPS:
                a = a.transpose(1, 2, 0)
            a = a.astype(np.float64)
            pred[_LOSS_NAMES[key]] = float(a) if key == "s" else a
        out = total_loss(pred, gt, weights, spacings=spacings)
        value += out.value
        for key, a in data.items():
            if _LOSS_NAMES[key] not in out.grads:
                continue
            g = np.asarray(out.grads[_LOSS_NAMES[key]])
            if key in _MAPS:
                g = g.transpose(2, 0, 1)
            if key not in acc:
                acc[key] = np.zeros_like(a)
            acc[key][_at(key, k)] += g.astype(a.dtype)
    scale = 1.0 / len(gts)  # losses are pixel sums; average over the batch
    return value * scale, {k: acc[k] * scale for k in data if k in acc}


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
        n_val = max(1, int(round(config.val_fraction * len(samples))))
        self.val = [samples[i] for i in order[:n_val]]
        self.train_set = [samples[i] for i in order[n_val:]]
        if not self.train_set:
            raise ValueError("dataset too small for the requested split")
        self.loss_log: list[dict] = []
        # frozen stages -> {training-sample index: (weight arrays of those
        # stages at compute time, Prediction)}
        self._memo: dict[tuple, dict] = {}
        self.spacings = tuple(
            h for h in (1, 2, 4, 8, 16)
            if h < max(model.cfg.height, model.cfg.width))

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

    def _require_full_fields(self):
        if any(s.xi_full is None or s.img1_full is None
               for s in self.train_set):
            raise MissingFieldError(
                "refinement training needs full-resolution fields "
                "(img1_full, xi_full) in the dataset")

    # --- frozen predictions, memoized per training sample ------------------

    def _frozen(self, stages: tuple, idx, compute) -> list[Prediction]:
        """Predictions of the frozen ``stages`` for training samples ``idx``,
        from the memo (see the module docstring); stale and missing entries
        are computed together by one ``compute(misses)`` call."""
        arrays = [p.data for c in stages
                  for p in self.model.component_parameters(c).values()]
        memo = self._memo.setdefault(stages, {})

        def fresh(i):
            entry = memo.get(i)
            return entry is not None and all(
                a is b and immutable(a) for a, b in zip(entry[0], arrays))

        misses = [i for i in dict.fromkeys(int(i) for i in idx)
                  if not fresh(i)]
        if misses:
            for i, pred in zip(misses, compute(misses)):
                memo[i] = (arrays, pred)
        return [memo[int(i)][1] for i in idx]

    def _bootstrap(self, idx) -> list[Prediction]:
        """``bootstrap_forward`` of training samples ``idx``, memoized."""
        def compute(misses):
            return self.model.bootstrap_forward(
                *_images([self.train_set[i] for i in misses]))

        return self._frozen(("boot_flow", "boot_dm"), idx, compute)

    def _final(self, idx) -> list[Prediction]:
        """Low-resolution ``predict`` of training samples ``idx``, memoized."""
        def compute(misses):
            imgs = _images([self.train_set[i] for i in misses])
            preds = self._bootstrap(misses)
            for _ in range(self.model.cfg.iterations):
                preds = self.model.iterative_forward(*imgs, preds, self.K)
            return preds

        return self._frozen(("boot_flow", "boot_dm", "iter_flow", "iter_dm"),
                            idx, compute)

    # --- phases ------------------------------------------------------------

    def _train(self, phase: str, params: dict, steps: int, forward,
               after=None) -> Adam:
        """The one training loop (module docstring): ``steps`` Adam steps of
        ``params``. ``forward(batch, idx)`` returns the graph outputs and
        one ground truth per sample; ``after(tensors)`` runs after each
        optimizer step."""
        cfg = self.config
        opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        for step, (batch, idx) in enumerate(
                self._batches(_PHASES[phase][0], steps)):
            opt.lr = self._lr_at(step, steps)
            tensors, gts = forward(batch, idx)
            _require_finite(phase, step, {k: tensors[k].data
                                          for k in _LOSS_NAMES if k in tensors})
            value, seeds = _batch_loss(self._weights_for(phase, step),
                                       tensors, gts, self.spacings)
            _require_finite(phase, step, {"loss": value})
            opt.zero_grad()
            backward({tensors[k]: g for k, g in seeds.items()})
            _require_finite(phase, step, {name: p.grad for name, p in
                                          params.items() if p.grad is not None})
            opt.step()
            if after is not None:
                after(tensors)
            if step % cfg.log_every == 0:
                self._log(phase, step, value)
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
                                          self._bootstrap(idx), self.K)

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
        pool: collections.deque = collections.deque()
        entries: list[tuple] = []  # (index, sample, previous, age) of a step

        def forward(batch, idx):
            entries[:] = [(int(i), s, p, 0)
                          for i, s, p in zip(idx, batch, self._bootstrap(idx))]
            for _ in range(min(len(pool), cfg.batch_size * cfg.replay_passes)):
                entries.append(pool.popleft())
            samples = [e[1] for e in entries]
            return (model.iterative_tensors(*_images(samples),
                                            [e[2] for e in entries], self.K),
                    [_ground_truth(s) for s in samples])

        def replay(tensors):
            for (i, s, _p, age), pred in zip(
                    entries, model.tensors_to_predictions(tensors)):
                if age + 1 <= cfg.replay_passes:
                    pool.append((i, s, pred, age + 1))

        self._train("p2_iterative", params, cfg.phase2_steps, forward, replay)
        self.save_checkpoint("phase2.tvk")

    def phase3(self):
        """Refinement training; all other weights fixed."""
        self._require_full_fields()

        def forward(batch, idx):
            return ({"xi": self.model.refine_tensors(
                        [s.img1_full for s in batch], self._final(idx))},
                    [{"xi": s.xi_full} for s in batch])

        self._train("p3_refine", self.model.component_parameters("refine"),
                    self.config.phase3_steps, forward)
        self._memo.clear()  # no later phase reads it
        self.save_checkpoint("final.tvk")

    def train(self):
        self._require_full_fields()  # fail before phase 1 writes anything
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
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=["phase", "step", "loss"],
                                    lineterminator="\n")
            writer.writeheader()
            for row in self.loss_log:
                writer.writerow(row)
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
    rotations.
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
                a = accum[it]
                a["l1_inv"].append(l1_inv(z, z_gt, mask))
                a["sc_inv"].append(sc_inv(z, z_gt, mask))
                a["l1_rel"].append(l1_rel(z, z_gt, mask))
                a["epe"].append(endpoint_error(pred.flow, sample.flow, mask))
                err = motion_angular_errors(pred.motion().normalized(),
                                            sample.motion())
                a["rot_deg"].append(err.rot_deg)
                a["trans_deg"].append(err.trans_deg)
    rows = []
    for it, a in enumerate(accum):
        row = {"iteration": it}
        row.update({k: float(np.mean(v)) for k, v in a.items()})
        rows.append(row)
    return rows
