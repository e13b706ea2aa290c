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

Losses bridge into the graph as seed gradients: the loss module computes
values and analytic gradients from the detached outputs, and those
gradients are injected into the corresponding output tensors.
"""

from __future__ import annotations

import collections
import csv
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import container
from .autodiff import Adam, backward
from .geometry import Intrinsics
from .losses import LossWeights, confidence_target, total_loss
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

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        cfg = TrainConfig()
        unknown = set(d) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown training config keys: {sorted(unknown)}")
        return replace(cfg, **d)


class MissingFieldError(ValueError):
    """Dataset lacks a ground-truth field required by the training phase."""


def intrinsics_from_meta(meta: dict) -> Intrinsics:
    cfg = meta.get("config", {})
    return Intrinsics(cfg.get("fx", 0.89), cfg.get("fy", 1.19),
                      cfg.get("cx", 0.5), cfg.get("cy", 0.5),
                      cfg.get("width", 64), cfg.get("height", 48))


def _flow_hwc(t):
    return t.transpose(1, 2, 0).astype(np.float64)


def _sample_losses(weights: LossWeights, tensors: dict, batch,
                   spacings=(1, 2, 4, 8, 16)) -> tuple[float, dict]:
    """Per-sample loss evaluation; returns (mean value, seed gradients)."""
    flow = tensors["flow"].data
    conf = tensors["conf"].data
    xi = tensors["xi"].data
    normals = tensors["normals"].data
    r = tensors["r"].data
    t = tensors["t"].data
    s = tensors["s"].data
    n = flow.shape[0]
    dt = flow.dtype

    seeds = {
        "flow": np.zeros_like(flow),
        "conf": np.zeros_like(conf),
        "xi": np.zeros_like(xi),
        "normals": np.zeros_like(normals),
        "r": np.zeros_like(r),
        "t": np.zeros_like(t),
        "s": np.zeros_like(s),
    }
    total_value = 0.0
    for k, sample in enumerate(batch):
        pred = {
            "xi": xi[k, 0].astype(np.float64),
            "s": float(s[k, 0]),
            "normals": _flow_hwc(normals[k]),
            "flow": _flow_hwc(flow[k]),
            "flow_confidence": _flow_hwc(conf[k]),
            "r": r[k].astype(np.float64),
            "t": t[k].astype(np.float64),
        }
        gt = {
            "xi": sample.xi,
            "normals": sample.normals,
            "flow": sample.flow,
            "r": sample.r,
            "t": sample.t,
            "valid_depth": sample.valid_depth,
            "valid_flow": sample.valid_flow,
            "flow_confidence_target": confidence_target(pred["flow"],
                                                        sample.flow),
        }
        out = total_loss(pred, gt, weights, spacings=spacings)
        total_value += out.value
        g = out.grads
        if "flow" in g:
            seeds["flow"][k] += g["flow"].transpose(2, 0, 1).astype(dt)
        if "flow_confidence" in g:
            seeds["conf"][k] += g["flow_confidence"].transpose(2, 0, 1).astype(dt)
        if "xi" in g:
            seeds["xi"][k, 0] += g["xi"].astype(dt)
        if "normals" in g:
            seeds["normals"][k] += g["normals"].transpose(2, 0, 1).astype(dt)
        if "r" in g:
            seeds["r"][k] += g["r"].astype(dt)
        if "t" in g:
            seeds["t"][k] += g["t"].astype(dt)
        if "s" in g:
            seeds["s"][k, 0] += np.asarray(g["s"], dtype=dt)
    scale = 1.0 / n  # losses are pixel sums; average over the batch only
    for key in seeds:
        seeds[key] *= scale
    return total_value * scale, seeds


def _flow_only(weights: LossWeights) -> LossWeights:
    return replace(weights, depth=0.0, normal=0.0, rotation=0.0,
                   translation=0.0, grad_depth=0.0)


def _dm_only(weights: LossWeights) -> LossWeights:
    return replace(weights, flow=0.0, flow_confidence=0.0, grad_flow=0.0)


def _backward_flow(tensors: dict, seeds: dict) -> None:
    backward({tensors["flow"]: seeds["flow"], tensors["conf"]: seeds["conf"]})


def _backward_dm(tensors: dict, seeds: dict) -> None:
    backward({tensors["xi"]: seeds["xi"],
              tensors["normals"]: seeds["normals"],
              tensors["r"]: seeds["r"], tensors["t"]: seeds["t"],
              tensors["s"]: seeds["s"]})


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
            w = _flow_only(w)
            if step < self.config.grad_loss_start:
                w = replace(w, grad_flow=0.0)
        elif phase.endswith("dm"):
            w = _dm_only(w)
        return w

    # --- phases ------------------------------------------------------------

    _PHASE_SEEDS = {"p1a_boot_flow": 11, "p1b_boot_dm": 12,
                    "p1c_iter_flow": 13, "p1d_iter_dm": 14}

    def _train_component(self, phase: str, component: str, forward, steps):
        """Generic phase-1 loop: train one encoder-decoder, others fixed."""
        params = self.model.component_parameters(component)
        opt = Adam(params, lr=self.config.lr,
                   weight_decay=self.config.weight_decay)
        flow_stage = component.endswith("flow")
        for step, (batch, _) in enumerate(
                self._batches(self._PHASE_SEEDS[phase], steps)):
            opt.lr = self._lr_at(step, steps)
            weights = self._weights_for(phase, step)
            tensors = forward(batch)
            value, seeds = _sample_losses(weights, tensors, batch,
                                          self.spacings)
            opt.zero_grad()
            if flow_stage:
                _backward_flow(tensors, seeds)
            else:
                _backward_dm(tensors, seeds)
            opt.step()
            if step % self.config.log_every == 0:
                self._log(phase, step, value)
        return opt

    def phase1(self):
        model = self.model
        cfg = self.config

        def boot_flow_fwd(batch):
            return model.bootstrap_tensors([s.img1 for s in batch],
                                           [s.img2 for s in batch])

        def iter_flow_fwd(batch):
            prev = model.bootstrap_forward([s.img1 for s in batch],
                                           [s.img2 for s in batch])
            return model.iterative_tensors([s.img1 for s in batch],
                                           [s.img2 for s in batch],
                                           prev, self.K)

        self._train_component("p1a_boot_flow", "boot_flow", boot_flow_fwd,
                              cfg.phase1_steps)
        self._train_component("p1b_boot_dm", "boot_dm", boot_flow_fwd,
                              cfg.phase1_steps)
        self._train_component("p1c_iter_flow", "iter_flow", iter_flow_fwd,
                              cfg.phase1_steps)
        self._train_component("p1d_iter_dm", "iter_dm", iter_flow_fwd,
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
            boot = model.bootstrap_forward([s.img1 for s in batch],
                                           [s.img2 for s in batch])
            entries = [(int(i), s, p, 0) for i, s, p in zip(idx, batch, boot)]
            n_replay = min(len(pool), max_replay)
            for _ in range(n_replay):
                entries.append(pool.popleft())

            samples = [e[1] for e in entries]
            prev = [e[2] for e in entries]
            tensors = model.iterative_tensors([s.img1 for s in samples],
                                              [s.img2 for s in samples],
                                              prev, self.K)
            w_flow = self._weights_for("p2_flow", step + cfg.grad_loss_start)
            w_dm = self._weights_for("p2_dm", step)
            v1, seeds_flow = _sample_losses(w_flow, tensors, samples,
                                            self.spacings)
            v2, seeds_dm = _sample_losses(w_dm, tensors, samples,
                                          self.spacings)
            opt.zero_grad()
            backward({tensors["flow"]: seeds_flow["flow"],
                      tensors["conf"]: seeds_flow["conf"],
                      tensors["xi"]: seeds_dm["xi"],
                      tensors["normals"]: seeds_dm["normals"],
                      tensors["r"]: seeds_dm["r"],
                      tensors["t"]: seeds_dm["t"],
                      tensors["s"]: seeds_dm["s"]})
            opt.step()

            new_preds = model.tensors_to_predictions(tensors)
            for (i, s, _p, age), np_ in zip(entries, new_preds):
                if age + 1 <= cfg.replay_passes:
                    pool.append((i, s, np_, age + 1))
            if step % cfg.log_every == 0:
                self._log("p2_iterative", step, v1 + v2)
        self.save_checkpoint("phase2.tvk")

    def phase3(self):
        """Refinement training; all other weights fixed."""
        model = self.model
        cfg = self.config
        if any(s.xi_full is None or s.img1_full is None
               for s in self.train_set):
            raise MissingFieldError(
                "refinement training needs full-resolution fields "
                "(img1_full, xi_full) in the dataset")
        params = model.component_parameters("refine")
        opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        weights = self.config.weights()
        for step, (batch, _) in enumerate(self._batches(3, cfg.phase3_steps)):
            opt.lr = self._lr_at(step, cfg.phase3_steps)
            preds = model.predict([s.img1 for s in batch],
                                  [s.img2 for s in batch], self.K)
            out = model.refine_tensors([s.img1_full for s in batch], preds)
            xi_ref = out.data
            seed = np.zeros_like(xi_ref)
            value = 0.0
            from .losses import depth_loss, grad_loss
            for k, sample in enumerate(batch):
                dl = depth_loss(xi_ref[k, 0].astype(np.float64), 1.0,
                                sample.xi_full)
                g = dl.grads["xi"]
                v = dl.value
                if weights.grad_depth > 0:
                    gl = grad_loss(xi_ref[k, 0].astype(np.float64),
                                   sample.xi_full, self.spacings)
                    g = g + weights.grad_depth * gl.grads["f"]
                    v += weights.grad_depth * gl.value
                seed[k, 0] = g.astype(xi_ref.dtype)
                value += v
            seed /= len(batch)
            opt.zero_grad()
            backward({out: seed})
            opt.step()
            if step % cfg.log_every == 0:
                self._log("p3_refine", step, value / len(batch))
        self.save_checkpoint("final.tvk")

    def train(self):
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
