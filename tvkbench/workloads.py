"""The three workloads: set-up, one timed round, and the output checks.

Each workload is a closed loop: one process issues one call at a time.
A round is the same list of operations every time. ``round`` is the only
timed call; ``verify_round`` and ``checks`` run outside the timed region.

Calls into ``tvk`` go through module attributes (``synthdata.render_pair``,
not an imported name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from tvk import (autodiff, baseline, container, geometry, losses, metrics,
                 network, synthdata, training)

from checks import (boot_flow_ref, direction_angle_deg, flow_at_pixel,
                    max_rel_diff, quantize_image, rotation_angle_deg)

# Tolerances, each set from measurements on the seed commit with a margin.
REF_FORWARD_RTOL = 4e-6    # float32 net vs float64 reference; seen <= 6e-7
BATCH_RTOL = 2e-5          # bootstrap alone vs in a batch; seen <= 1.2e-6
UNIT_T_TOL = 1e-5          # |t| of a float32 unit vector
STORED_FLOW_ATOL = 2e-6    # float32 flow vs projection of float32 depth
TRIANGULATE_RTOL = 1e-5    # float64 round trip; seen <= 1.1e-7
NOISE_SIGMA = 5e-4         # flow noise for the classical pipeline
MOTION_ROT_DEG = 0.5       # fixed-input motion check
MOTION_TRANS_DEG = 3.0
MOTION_CHECK_SEED = 7      # scene seed of the fixed-input motion check
MOTION_CHECK_PAIRS = 4
ADAM_CHECK_LR = 1e-4


def _no_mark() -> None:
    pass


def _report(exc: BaseException) -> BaseException:
    traceback.print_exception(exc, file=sys.stderr)
    return exc


def _run_op(fn, *args):
    """One operation; an exception is recorded and returned as its result."""
    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        return _report(exc)


class Workload:
    name = ""
    pairs_per_round = 0
    ops_per_round = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # ``mark`` is called between operations; the timer may probe the
    # machine's speed there (see run.SpeedClock).

    def setup(self, mark=_no_mark) -> None:
        """Everything before the first timed round, warm-up round included."""
        raise NotImplementedError

    def round(self, mark=_no_mark) -> list:
        """One timed round: one result (or exception) per operation."""
        raise NotImplementedError

    def verify_round(self, results: list) -> int:
        """Number of failed operations in a round's results."""
        failed = 0
        for res in results:
            if isinstance(res, BaseException) or not self.output_ok(res):
                failed += 1
        return failed

    def output_ok(self, res) -> bool:
        raise NotImplementedError

    def checks(self) -> list[tuple[str, bool, str]]:
        """Run-level checks: (name, passed, detail)."""
        raise NotImplementedError


# --- predict -----------------------------------------------------------------

class Predict(Workload):
    """Batch-1 ``predict`` with 3 iterations and refinement over 8 pairs."""

    name = "predict"
    n_pairs = 8
    pairs_per_round = n_pairs
    ops_per_round = n_pairs

    def setup(self, mark=_no_mark):
        data = self.path("predict.tvk")
        synthdata.generate_dataset(data, self.seed, self.n_pairs,
                                   synthdata.SynthConfig())
        mark()
        self.samples, meta = synthdata.load_dataset(data)
        self.K = training.intrinsics_from_meta(meta)
        ckpt = self.path("predict_model.tvk")
        training.save_checkpoint(
            ckpt, network.TwoViewNet(network.NetConfig(), seed=self.seed))
        mark()
        self.model, _ = training.load_checkpoint(ckpt)
        mark()
        self.round(mark)

    def _predict(self, s):
        return self.model.predict([s.img1], [s.img2], self.K, n_iters=3,
                                  img1_full=[s.img1_full])[0]

    def round(self, mark=_no_mark):
        results = []
        for s in self.samples:
            results.append(_run_op(self._predict, s))
            mark()
        return results

    def output_ok(self, p):
        cfg = self.model.cfg
        fields = (p.flow, p.flow_confidence, p.xi, p.normals, p.r, p.t,
                  p.refined_xi)
        return (all(np.all(np.isfinite(f)) for f in fields)
                and abs(float(np.linalg.norm(p.t)) - 1.0) <= UNIT_T_TOL
                and math.isfinite(p.s) and p.s > 0
                and p.refined_xi.shape == (cfg.refine_factor * cfg.height,
                                           cfg.refine_factor * cfg.width))

    def checks(self):
        out = []
        s = self.samples[0]
        t = self.model.bootstrap_tensors([s.img1], [s.img2])
        got = np.concatenate([t["flow"].data[0], t["conf"].data[0]])
        ref = boot_flow_ref(s.img1, s.img2, self.model.state_dict(),
                            self.model.cfg)
        err = max_rel_diff(got, ref)
        out.append(("predict.boot_flow_reference", err <= REF_FORWARD_RTOL,
                    f"max rel diff {err:.3g}"))

        batch = self.model.bootstrap_forward([x.img1 for x in self.samples],
                                             [x.img2 for x in self.samples])
        worst = 0.0
        for s, pb in zip(self.samples, batch):
            pa = self.model.bootstrap_forward([s.img1], [s.img2])[0]
            for f in ("flow", "flow_confidence", "xi", "normals", "r", "t"):
                worst = max(worst, max_rel_diff(getattr(pb, f), getattr(pa, f)))
            worst = max(worst, abs(pb.s - pa.s) / pa.s)
        out.append(("predict.batch_invariance", worst <= BATCH_RTOL,
                    f"max rel diff {worst:.3g}"))
        return out


# --- train ---------------------------------------------------------------------

def _component(param_name: str) -> str:
    return param_name.split(".", 1)[0]


class _MarkedTrainer(training.Trainer):
    """Trainer that calls ``mark`` after every logged step."""

    def __init__(self, *args, mark=_no_mark, **kwargs):
        super().__init__(*args, **kwargs)
        self.mark = mark

    def _log(self, phase, step, value):
        super()._log(phase, step, value)
        self.mark()


class _ObservedTrainer(_MarkedTrainer):
    """Trainer that snapshots the parameters around every phase."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phases: list[tuple[str, set, dict, dict]] = []

    def _observe(self, label, trained, run):
        before = self.model.state_dict()
        result = run()
        self.phases.append((label, trained, before, self.model.state_dict()))
        return result

    def _train_component(self, phase, component, forward, steps):
        return self._observe(
            phase, {component},
            lambda: super(_ObservedTrainer, self)._train_component(
                phase, component, forward, steps))

    def phase2(self):
        return self._observe("p2", {"iter_flow", "iter_dm"}, super().phase2)

    def phase3(self):
        return self._observe("p3", {"refine"}, super().phase3)


_PRED_KEYS = {"flow": "flow", "flow_confidence": "conf", "xi": "xi",
              "normals": "normals", "r": "r", "t": "t", "s": "s"}


def _batch_loss(tensors, batch, weights):
    """Mean total loss of a batch and its seed gradients per output tensor."""
    d = {k: t.data for k, t in tensors.items() if k in _PRED_KEYS.values()}
    seeds = {k: np.zeros_like(v) for k, v in d.items()}
    n = len(batch)
    value = 0.0

    def hwc(a):
        return a.transpose(1, 2, 0).astype(np.float64)

    for k, s in enumerate(batch):
        pred = {"xi": d["xi"][k, 0].astype(np.float64), "s": float(d["s"][k, 0]),
                "normals": hwc(d["normals"][k]), "flow": hwc(d["flow"][k]),
                "flow_confidence": hwc(d["conf"][k]),
                "r": d["r"][k].astype(np.float64),
                "t": d["t"][k].astype(np.float64)}
        gt = {"xi": s.xi, "normals": s.normals, "flow": s.flow, "r": s.r,
              "t": s.t, "valid_depth": s.valid_depth,
              "valid_flow": s.valid_flow}
        res = losses.total_loss(pred, gt, weights)
        value += res.value
        for key, g in res.grads.items():
            g = np.asarray(g)
            dst = seeds[_PRED_KEYS[key]]
            if g.ndim == 3:
                dst[k] += g.transpose(2, 0, 1) / n
            elif key in ("xi", "s"):
                dst[k, 0] += g / n
            else:
                dst[k] += g / n
    return value / n, seeds


class Train(Workload):
    """A fresh ``Trainer(...).train()`` per round: p1a-p1d, p2, p3 at batch 8."""

    name = "train"
    n_samples = 12
    config = dict(batch_size=8, phase1_steps=1, phase2_steps=2,
                  phase3_steps=1, grad_loss_start=0, log_every=1)
    steps_per_round = 4 * 1 + 2 + 1
    pairs_per_round = 8 * steps_per_round
    ops_per_round = 1

    def setup(self, mark=_no_mark):
        data = self.path("train.tvk")
        synthdata.generate_dataset(data, self.seed, self.n_samples,
                                   synthdata.SynthConfig())
        mark()
        self.samples, meta = synthdata.load_dataset(data)
        self.K = training.intrinsics_from_meta(meta)
        self.train_config = training.TrainConfig(seed=self.seed, **self.config)
        self.out_dir = self.path("train_run")
        self.observed = self._train(_ObservedTrainer, mark)
        self.first_checkpoint = self._checkpoint_digest()

    def _train(self, cls=_MarkedTrainer, mark=_no_mark):
        model = network.TwoViewNet(network.NetConfig(), seed=self.seed)
        trainer = cls(model, self.samples, self.K, self.train_config,
                      self.out_dir, mark=mark)
        trainer.train()
        return trainer

    def round(self, mark=_no_mark):
        return [_run_op(self._train, _MarkedTrainer, mark)]

    def _checkpoint_digest(self):
        with open(os.path.join(self.out_dir, "final.tvk"), "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    def output_ok(self, trainer):
        with open(os.path.join(self.out_dir, "loss_curves.csv")) as f:
            logged = [float(row["loss"]) for row in csv.DictReader(f)]
        return (len(logged) == self.steps_per_round
                and all(math.isfinite(v) for v in logged)
                and self._checkpoint_digest() == self.first_checkpoint)

    def checks(self):
        out = []
        for label, trained, before, after in self.observed.phases:
            frozen_same = all(np.array_equal(before[k], after[k])
                              for k in before if _component(k) not in trained)
            trained_moved = all(not np.array_equal(before[k], after[k])
                                for k in before
                                if _component(k) in trained and k.endswith(".w"))
            out.append((f"train.{label}.frozen_unchanged_trained_moved",
                        frozen_same and trained_moved,
                        f"frozen unchanged {frozen_same}, "
                        f"trained moved {trained_moved}"))
        labels = [p[0] for p in self.observed.phases]
        out.append(("train.all_phases_observed", len(labels) == 6,
                    " ".join(labels)))

        weights = self.train_config.weights()
        flow_only = replace(weights, depth=0.0, normal=0.0, rotation=0.0,
                            translation=0.0, grad_depth=0.0)
        dm_only = replace(weights, flow=0.0, flow_confidence=0.0,
                          grad_flow=0.0)
        batch = self.samples[:self.train_config.batch_size]
        imgs = ([s.img1 for s in batch], [s.img2 for s in batch])
        for label, component, w in (("p1a", "boot_flow", flow_only),
                                    ("p1b", "boot_dm", dm_only)):
            model = network.TwoViewNet(network.NetConfig(), seed=self.seed)
            tensors = model.bootstrap_tensors(*imgs)
            before, seeds = _batch_loss(tensors, batch, w)
            autodiff.backward({tensors[k]: g for k, g in seeds.items()})
            autodiff.Adam(model.component_parameters(component),
                          lr=ADAM_CHECK_LR).step()
            after, _ = _batch_loss(model.bootstrap_tensors(*imgs), batch, w)
            out.append((f"train.{label}.adam_step_lowers_loss",
                        after < before, f"{before:.6g} -> {after:.6g}"))
        return out


# --- classical -------------------------------------------------------------------

class Classical(Workload):
    """Render, store and reload 24 low-res pairs; estimate motion from noisy
    ground-truth flow; triangulate; score."""

    name = "classical"
    n_pairs = 24
    pairs_per_round = n_pairs
    ops_per_round = n_pairs
    synth = synthdata.SynthConfig(include_full=False)

    def setup(self, mark=_no_mark):
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        s = self.synth
        self.noise = rng.normal(0.0, NOISE_SIGMA,
                                (self.n_pairs, s.height, s.width, 2))
        self.data = self.path("classical.tvk")
        self.round(mark)

    def _pair(self, k, s, K):
        flow = geometry.FlowField(s.flow + self.noise[k])
        motion = baseline.estimate_motion_from_flow(flow, s.valid_flow, K,
                                                    seed=k)
        dep, valid = geometry.depth_from_flow_motion(flow, motion, K)
        mask = valid & s.valid_depth & s.valid_flow
        z = 1.0 / np.where(mask, dep.xi, 1.0)
        z_gt = 1.0 / np.where(s.valid_depth, s.xi, 1.0)
        return (motion, metrics.depth_error_report(z, z_gt, mask),
                metrics.motion_angular_errors(motion, s.motion()))

    def _load(self):
        synthdata.generate_dataset(self.data, self.seed, self.n_pairs,
                                   self.synth)
        samples, meta = synthdata.load_dataset(self.data)
        return samples, training.intrinsics_from_meta(meta)

    def round(self, mark=_no_mark):
        loaded = _run_op(self._load)
        if isinstance(loaded, BaseException):
            return [loaded] * self.n_pairs
        self.samples, self.K = loaded
        mark()
        results = []
        for k, s in enumerate(self.samples):
            results.append(_run_op(self._pair, k, s, self.K))
            mark()
        return results

    def output_ok(self, res):
        motion, depth, mot = res
        return (abs(float(np.linalg.norm(motion.t)) - 1.0) <= UNIT_T_TOL
                and all(math.isfinite(v) for v in
                        (depth.l1_inv, depth.sc_inv, depth.l1_rel,
                         mot.rot_deg, mot.trans_deg))
                and depth.n_valid > 0)

    def checks(self):
        out = []
        K = self.K
        rng = np.random.Generator(np.random.Philox(key=self.seed + 1))
        worst = 0.0
        for s in self.samples:
            rows, cols = np.nonzero(s.valid_flow & s.valid_depth)
            for i in rng.choice(rows.size, size=min(20, rows.size),
                                replace=False):
                w = flow_at_pixel(rows[i], cols[i], s.xi[rows[i], cols[i]],
                                  s.r, s.t, K)
                worst = max(worst, float(np.max(
                    np.abs(w - s.flow[rows[i], cols[i]]))))
        out.append(("classical.stored_flow_is_projection",
                    worst <= STORED_FLOW_ATOL, f"max abs diff {worst:.3g}"))

        records, _ = container.read_all(self.data)
        same = True
        tri_worst = 0.0
        for i in (0, self.n_pairs - 1):
            scene = synthdata.generate_scene(self.seed, self.synth, index=i)
            pair = synthdata.render_pair(scene, self.synth, sample_id=i)
            rec = records[i]
            expect = {"img1": quantize_image(pair.img1),
                      "img2": quantize_image(pair.img2),
                      "xi": pair.xi.astype(np.float32),
                      "normals": pair.normals.astype(np.float32),
                      "flow": pair.flow.astype(np.float32),
                      "r": pair.r, "t": pair.t,
                      "valid_depth": pair.valid_depth.astype(np.uint8),
                      "valid_flow": pair.valid_flow.astype(np.uint8),
                      "sample_id": np.int64(i)}
            same = same and set(rec) == set(expect) and all(
                rec[k].dtype == np.asarray(v).dtype
                and np.array_equal(rec[k], v) for k, v in expect.items())
            dep, valid = geometry.depth_from_flow_motion(
                geometry.FlowField(pair.flow), pair.motion(), K)
            m = valid & pair.valid_flow & pair.valid_depth
            tri_worst = max(tri_worst, float(np.max(
                np.abs(dep.xi[m] - pair.xi[m]) / pair.xi[m])))
        out.append(("classical.records_equal_direct_render", same, ""))
        out.append(("classical.triangulation_recovers_depth",
                    tri_worst <= TRIANGULATE_RTOL,
                    f"max rel diff {tri_worst:.3g}"))

        # The estimator misses badly on a few seeded pairs (see the FOUND
        # lines in CHANGES.md), so its accuracy is checked on inputs that do
        # not depend on the run's seed.
        rng = np.random.Generator(np.random.Philox(key=MOTION_CHECK_SEED))
        worst_r = worst_t = 0.0
        for i in range(MOTION_CHECK_PAIRS):
            scene = synthdata.generate_scene(MOTION_CHECK_SEED, self.synth,
                                             index=i)
            pair = synthdata.render_pair(scene, self.synth, sample_id=i)
            flow = pair.flow + rng.normal(0.0, NOISE_SIGMA, pair.flow.shape)
            motion = baseline.estimate_motion_from_flow(
                geometry.FlowField(flow), pair.valid_flow, K, seed=i)
            worst_r = max(worst_r, rotation_angle_deg(motion.r, pair.r))
            worst_t = max(worst_t, direction_angle_deg(motion.t, pair.t))
        out.append(("classical.motion_within_angle",
                    worst_r <= MOTION_ROT_DEG and worst_t <= MOTION_TRANS_DEG,
                    f"rot {worst_r:.3g} deg, trans {worst_t:.3g} deg"))
        return out


WORKLOADS = {w.name: w for w in (Predict, Train, Classical)}
