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

Losses bridge into the graph as seed gradients. Every phase evaluates
its loss through ``_batch_loss``: ``losses.total_loss`` runs per sample on
the detached outputs, under the phase's weights (flow terms only,
depth-motion terms only, all terms in phase 2, depth and its gradient
term on the refined depth in phase 3), and the batch-mean analytic
gradients are injected into the output tensors that received one. The
loss stays a per-sample loop: one batched pass over phase 3's
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
        return LossWeights().for_ablation(
            grad=self.use_grad_loss, normals=self.use_normals,
            flow=self.use_flow_loss, confidence=self.use_confidence)


class MissingFieldError(ValueError):
    """Dataset lacks a ground-truth field required by the training phase."""


def intrinsics_from_meta(meta: dict) -> Intrinsics:
    cfg = meta.get("config", {})
    return Intrinsics(cfg.get("fx", 0.89), cfg.get("fy", 1.19),
                      cfg.get("cx", 0.5), cfg.get("cy", 0.5),
                      cfg.get("width", 64), cfg.get("height", 48))


# network output -> the name of its prediction in ``total_loss``
_LOSS_NAMES = {"flow": "flow", "conf": "flow_confidence", "xi": "xi",
               "normals": "normals", "r": "r", "t": "t", "s": "s"}
_MAPS = ("flow", "conf", "normals")  # (N, C, H, W); (H, W, C) in the loss


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
        w = self.config.weights()
        if phase.endswith("flow"):
            w = _only(w, "flow", "flow_confidence", "grad_flow")
            if step < self.config.grad_loss_start:
                w = replace(w, grad_flow=0.0)
        elif phase.endswith("dm"):
            w = _only(w, "depth", "normal", "rotation", "translation",
                      "grad_depth")
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

    _PHASE_SEEDS = {"p1a_boot_flow": 11, "p1b_boot_dm": 12,
                    "p1c_iter_flow": 13, "p1d_iter_dm": 14}

    def _train_component(self, phase: str, component: str, forward, steps):
        """Generic phase-1 loop: train one encoder-decoder, others fixed.

        ``forward(batch, idx)`` gives the graph outputs of a batch. A phase
        whose loss weights are all zero (after the warm-up) is skipped: it
        takes no steps and logs nothing.
        """
        if not any(asdict(self._weights_for(
                phase, self.config.grad_loss_start)).values()):
            return None
        params = self.model.component_parameters(component)
        opt = Adam(params, lr=self.config.lr,
                   weight_decay=self.config.weight_decay)
        for step, (batch, idx) in enumerate(
                self._batches(self._PHASE_SEEDS[phase], steps)):
            opt.lr = self._lr_at(step, steps)
            tensors = forward(batch, idx)
            value, seeds = _batch_loss(
                self._weights_for(phase, step), tensors,
                [_ground_truth(s) for s in batch], self.spacings)
            opt.zero_grad()
            backward({tensors[k]: g for k, g in seeds.items()})
            opt.step()
            if step % self.config.log_every == 0:
                self._log(phase, step, value)
        return opt

    def phase1(self):
        model = self.model
        cfg = self.config

        def boot_flow_fwd(batch, _idx):
            return model.bootstrap_flow_tensors(*_images(batch))

        def boot_fwd(batch, _idx):
            return model.bootstrap_tensors(*_images(batch))

        def iter_flow_fwd(batch, idx):
            return model.iterative_flow_tensors(*_images(batch),
                                                self._bootstrap(idx), self.K)

        def iter_fwd(batch, idx):
            return model.iterative_tensors(*_images(batch),
                                           self._bootstrap(idx), self.K)

        self._train_component("p1a_boot_flow", "boot_flow", boot_flow_fwd,
                              cfg.phase1_steps)
        self._train_component("p1b_boot_dm", "boot_dm", boot_fwd,
                              cfg.phase1_steps)
        self._train_component("p1c_iter_flow", "iter_flow", iter_flow_fwd,
                              cfg.phase1_steps)
        self._train_component("p1d_iter_dm", "iter_dm", iter_fwd,
                              cfg.phase1_steps)
        self.save_checkpoint("phase1.tvk")

    def phase2(self):
        """Joint iterative training with the prediction replay pool."""
        model = self.model
        cfg = self.config
        params = dict(model.component_parameters("iter_flow"))
        params.update(model.component_parameters("iter_dm"))
        opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        pool: collections.deque = collections.deque()
        max_replay = cfg.batch_size * cfg.replay_passes

        for step, (batch, idx) in enumerate(self._batches(2, cfg.phase2_steps)):
            opt.lr = self._lr_at(step, cfg.phase2_steps)
            entries = [(int(i), s, p, 0)
                       for i, s, p in zip(idx, batch, self._bootstrap(idx))]
            n_replay = min(len(pool), max_replay)
            for _ in range(n_replay):
                entries.append(pool.popleft())

            samples = [e[1] for e in entries]
            prev = [e[2] for e in entries]
            tensors = model.iterative_tensors(*_images(samples), prev, self.K)
            value, seeds = _batch_loss(cfg.weights(), tensors,
                                       [_ground_truth(s) for s in samples],
                                       self.spacings)
            opt.zero_grad()
            backward({tensors[k]: g for k, g in seeds.items()})
            opt.step()

            new_preds = model.tensors_to_predictions(tensors)
            for (i, s, _p, age), np_ in zip(entries, new_preds):
                if age + 1 <= cfg.replay_passes:
                    pool.append((i, s, np_, age + 1))
            if step % cfg.log_every == 0:
                self._log("p2_iterative", step, value)
        self.save_checkpoint("phase2.tvk")

    def phase3(self):
        """Refinement training; all other weights fixed."""
        model = self.model
        cfg = self.config
        self._require_full_fields()
        params = model.component_parameters("refine")
        opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        weights = _only(cfg.weights(), "depth", "grad_depth")
        for step, (batch, idx) in enumerate(self._batches(3, cfg.phase3_steps)):
            opt.lr = self._lr_at(step, cfg.phase3_steps)
            tensors = {"xi": model.refine_tensors([s.img1_full for s in batch],
                                                  self._final(idx))}
            value, seeds = _batch_loss(weights, tensors,
                                       [{"xi": s.xi_full} for s in batch],
                                       self.spacings)
            opt.zero_grad()
            backward({tensors[k]: g for k, g in seeds.items()})
            opt.step()
            if step % cfg.log_every == 0:
                self._log("p3_refine", step, value)
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
