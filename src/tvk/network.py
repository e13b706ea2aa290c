"""Desk-scale two-view depth and motion networks.

Three components chained at inference time: a bootstrap stage computing
initial optical flow and then depth/normals/motion from the image pair, a
weight-shared iterative stage that refines those estimates (fed with
geometric conversions of the previous prediction), and a refinement stage
that upsamples the low-resolution depth to full resolution.

Every stage, refinement included, is an ``EncoderDecoder`` over 1D
convolution pairs (stride 2 per level; the low-resolution stages widen
the first level's kernel) with skip connections and stride-2 transposed
convolutions in the decoder. The depth/motion encoder-decoders
carry an extra head (global average pool + 3 fully connected layers) that
outputs the angle-axis rotation, a unit-norm translation and a positive
depth scale factor. Every conv and upconv but an encoder-decoder's last
runs with its bias and leaky ReLU fused into the op (``leaky=True``, see
``autodiff``), so a training graph keeps one array and one node per layer;
only the motion head's fully connected layers use ``autodiff.activation``.

The ``*_tensors`` methods return graph outputs, for training and for
gradient checks. The ``*_forward`` methods, and ``predict`` through them,
run the same stages under ``autodiff.no_grad``: they return bitwise the
same values but build no graph, so each activation is freed once the next
layer has read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .geometry import (
    CameraMotion,
    DegenerateMotionError,
    FlowField,
    Intrinsics,
    InverseDepthMap,
    depth_from_flow_motion,
    flow_from_depth_motion,
    warp_batch,
)

XI_FLOOR = 1e-6  # floor for inverse depth when converting to metric depth


@dataclass
class NetConfig:
    width: int = 64
    height: int = 48
    channels: tuple[int, ...] = (16, 32, 64, 128)
    first_kernel: int = 7
    kernel: int = 3
    refine_factor: int = 4
    refine_channels: tuple[int, ...] = (8, 16)
    iterations: int = 3
    use_flow_confidence_input: bool = True
    single_image: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        for field, f in (("channels", 1),
                         ("refine_channels", self.refine_factor)):
            n = 2 ** len(getattr(self, field))
            if (self.width * f) % n or (self.height * f) % n:
                raise ValueError(f"{field}: resolution {self.width * f}x"
                                 f"{self.height * f} not divisible by {n}")
        if self.first_kernel % 2 == 0 or self.kernel % 2 == 0:
            raise ValueError("1D filter lengths must be odd")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype {self.dtype!r} is not float32 or float64")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @staticmethod
    def from_dict(d: dict) -> "NetConfig":
        cfg = NetConfig()
        unknown = set(d) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown net config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("channels", "refine_channels"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return replace(cfg, **kwargs)


@dataclass
class Prediction:
    """Network outputs for one image pair (numpy, image layout H x W x C).

    ``xi`` is the raw depth-head output; geometric consumers clamp it to
    be nonnegative via ``inverse_depth``. ``t`` is unit norm and ``s`` is
    positive by construction.
    """

    flow: np.ndarray
    flow_confidence: np.ndarray
    xi: np.ndarray
    normals: np.ndarray
    r: np.ndarray
    t: np.ndarray
    s: float
    refined_xi: np.ndarray | None = None

    def motion(self) -> CameraMotion:
        return CameraMotion(self.r, self.t)

    def inverse_depth(self) -> InverseDepthMap:
        """Scaled inverse depth s * max(xi, 0), in the |t| = 1 frame."""
        xi = np.clip(self.xi.astype(np.float64), 0.0, None)
        return InverseDepthMap(xi * self.s)

    def metric_depth(self) -> np.ndarray:
        """z = 1 / (s * xi), floored to stay positive."""
        sxi = np.clip(self.xi.astype(np.float64) * self.s, XI_FLOOR, None)
        return 1.0 / sxi


class EncoderDecoder:
    """Encoder-decoder over 1D convolution pairs with skip connections."""

    def __init__(self, params: ParameterStore, prefix: str, in_channels: int,
                 out_channels: int, channels: tuple[int, ...],
                 first_kernel: int, cfg: NetConfig,
                 rng: np.random.Generator, motion_head: bool = False):
        self.prefix = prefix
        self.cfg = cfg
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.channels = channels
        self.first_kernel = first_kernel
        self.motion_head = motion_head
        self.p: dict[str, Tensor] = {}
        dt = cfg.np_dtype

        def param(name, shape, out_axis=0):
            # fan-in: the weight's size over all but its output axis. The
            # output is axis 0 of a conv kernel and axis 1 of a fully
            # connected (in, out) matrix and of a transposed-conv kernel,
            # which keeps the conv layout (input channels first).
            n_out = shape[out_axis]
            self.p[name + ".w"] = params.add(
                f"{prefix}.{name}.w",
                ad.fanin_uniform(rng, shape, math.prod(shape) // n_out, dt))
            self.p[name + ".b"] = params.add(
                f"{prefix}.{name}.b", np.zeros(n_out, dtype=dt))

        chans = channels
        c_prev = in_channels
        for i, c in enumerate(chans):
            k = first_kernel if i == 0 else cfg.kernel
            param(f"enc{i}.x", (c, c_prev, 1, k))
            param(f"enc{i}.y", (c, c, k, 1))
            c_prev = c
        for i in range(len(chans) - 1, 0, -1):
            param(f"up{i}", (chans[i], chans[i - 1], 4, 4), out_axis=1)
            param(f"merge{i}", (chans[i - 1], 2 * chans[i - 1], 3, 3))
        param("up0", (chans[0], chans[0], 4, 4), out_axis=1)
        param("head0", (chans[0], chans[0], 3, 3))
        param("head1", (out_channels, chans[0], 3, 3))
        if motion_head:
            for name, f_in, f_out in (("fc0", chans[-1], 64), ("fc1", 64, 32),
                                      ("fc2", 32, 7)):
                param(name, (f_in, f_out), out_axis=1)

    def parameter_names(self) -> list[str]:
        return [f"{self.prefix}.{k}" for k in self.p]

    def forward(self, x: Tensor):
        """Returns (output map Tensor (N,out,H,W), motion tuple or None)."""
        cfg = self.cfg
        if x.data.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.prefix}: expected {self.in_channels} input channels, "
                f"got {x.data.shape[1]}")
        skips = []
        h = x
        for i in range(len(self.channels)):
            k = self.first_kernel if i == 0 else cfg.kernel
            h = ad.conv2d(h, self.p[f"enc{i}.x.w"], self.p[f"enc{i}.x.b"],
                          stride=(1, 2), padding=(0, k // 2), leaky=True)
            h = ad.conv2d(h, self.p[f"enc{i}.y.w"], self.p[f"enc{i}.y.b"],
                          stride=(2, 1), padding=(k // 2, 0), leaky=True)
            skips.append(h)

        bottleneck = h
        for i in range(len(self.channels) - 1, 0, -1):
            h = ad.upconv2d(h, self.p[f"up{i}.w"], self.p[f"up{i}.b"],
                            leaky=True)
            h = ad.concat_channels([h, skips[i - 1]])
            h = ad.conv2d(h, self.p[f"merge{i}.w"], self.p[f"merge{i}.b"],
                          stride=1, padding=1, leaky=True)
        h = ad.upconv2d(h, self.p["up0.w"], self.p["up0.b"], leaky=True)
        h = ad.conv2d(h, self.p["head0.w"], self.p["head0.b"],
                      stride=1, padding=1, leaky=True)
        out = ad.conv2d(h, self.p["head1.w"], self.p["head1.b"],
                        stride=1, padding=1)

        motion = None
        if self.motion_head:
            g = ad.global_avg_pool(bottleneck)
            act = lambda t: ad.activation(t, "leaky_relu")  # noqa: E731
            g = act(ad.fully_connected(g, self.p["fc0.w"], self.p["fc0.b"]))
            g = act(ad.fully_connected(g, self.p["fc1.w"], self.p["fc1.b"]))
            g = ad.fully_connected(g, self.p["fc2.w"], self.p["fc2.b"])
            r = ad.slice_channels(g, 0, 3)
            t = ad.l2_normalize_rows(ad.slice_channels(g, 3, 6))
            s = ad.activation(ad.slice_channels(g, 6, 7), "exp")
            motion = (r, t, s)
        return out, motion


# --- batched numpy helpers (constant inputs, no gradients) -----------------

def images_to_nchw(imgs: list[np.ndarray], dtype) -> np.ndarray:
    """List of (H, W, C) -> (N, C, H, W)."""
    arr = np.stack([np.asarray(im) for im in imgs])
    return np.ascontiguousarray(arr.transpose(0, 3, 1, 2)).astype(dtype)


class TwoViewNet:
    """Bootstrap + weight-shared iterative + refinement networks."""

    def __init__(self, cfg: NetConfig, seed: int = 0):
        self.cfg = cfg
        self.params = ParameterStore()
        rng = np.random.Generator(np.random.Philox(key=seed))
        low = (cfg.channels, cfg.first_kernel, cfg, rng)
        self.boot_flow = EncoderDecoder(self.params, "boot_flow", 6, 4, *low)
        self.boot_dm = EncoderDecoder(self.params, "boot_dm", 13, 4, *low,
                                      motion_head=True)
        self.iter_flow = EncoderDecoder(self.params, "iter_flow", 8, 4, *low)
        self.iter_dm = EncoderDecoder(self.params, "iter_dm", 14, 4, *low,
                                      motion_head=True)
        # full-res image + upsampled depth and normals -> refined depth
        self.refine = EncoderDecoder(self.params, "refine", 7, 1,
                                     cfg.refine_channels, cfg.kernel, cfg, rng)

    # --- input assembly -----------------------------------------------

    def _prep_images(self, img1, img2) -> tuple[np.ndarray, np.ndarray]:
        dt = self.cfg.np_dtype
        i1 = images_to_nchw(img1, dt) - np.asarray(0.5, dt)
        i2 = images_to_nchw(img2, dt) - np.asarray(0.5, dt)
        if self.cfg.single_image:
            i2 = np.zeros_like(i2)
        return i1, i2

    def _flow_stage(self, ed: EncoderDecoder, parts: list[np.ndarray]) -> dict:
        out, _ = ed.forward(Tensor(np.concatenate(parts, axis=1)))
        return {"flow": ad.slice_channels(out, 0, 2),
                "conf": ad.slice_channels(out, 2, 4)}

    def _dm_stage(self, ed: EncoderDecoder, i1, i2, flow_out: dict,
                  *extra: np.ndarray) -> dict:
        """``flow_out`` plus the outputs of the depth-motion net ``ed`` fed
        with that flow stage's outputs, the prepared images and ``extra``."""
        flow_np = flow_out["flow"].data
        parts = [flow_np, self._conf_input(flow_out["conf"].data), i1, i2,
                 warp_batch(i2, flow_np)[0], *extra]
        out, motion = ed.forward(Tensor(np.concatenate(parts, axis=1)))
        return {**flow_out, "xi": ad.slice_channels(out, 0, 1),
                "normals": ad.slice_channels(out, 1, 4),
                "r": motion[0], "t": motion[1], "s": motion[2]}

    def _conf_input(self, conf_np: np.ndarray) -> np.ndarray:
        if self.cfg.use_flow_confidence_input:
            return conf_np
        return np.zeros_like(conf_np)

    # --- forward passes -------------------------------------------------
    # The flow-stage methods run the flow net alone (its outputs do not
    # depend on the depth-motion net); the full stages prepare the images
    # once and extend the same flow-stage output.

    def bootstrap_flow_tensors(self, img1, img2) -> dict:
        """Graph outputs (flow, conf) of the bootstrap flow net alone."""
        return self._flow_stage(self.boot_flow,
                                list(self._prep_images(img1, img2)))

    def bootstrap_tensors(self, img1, img2):
        """Graph outputs of the bootstrap stage for a batch of samples."""
        i1, i2 = self._prep_images(img1, img2)
        return self._dm_stage(self.boot_dm, i1, i2,
                              self._flow_stage(self.boot_flow, [i1, i2]))

    def iterative_flow_tensors(self, img1, img2, prev: list[Prediction],
                               K: Intrinsics) -> dict:
        """Graph outputs (flow, conf) of the iterative flow net alone, and
        its flow proposal rendered from the previous depth and motion."""
        return self._iterative_flow(*self._prep_images(img1, img2), prev, K)

    def _iterative_flow(self, i1, i2, prev, K) -> dict:
        dt = self.cfg.np_dtype
        N, _, H, W = i1.shape
        flow_prop = np.zeros((N, 2, H, W), dtype=dt)
        for n, p in enumerate(prev):
            prop, valid = flow_from_depth_motion(
                p.inverse_depth(), p.motion(), K)
            w = np.where(valid[..., None], prop.w, 0.0)
            flow_prop[n] = w.transpose(2, 0, 1).astype(dt)
        out = self._flow_stage(self.iter_flow, [i1, i2, flow_prop])
        out["flow_proposal"] = flow_prop
        return out

    def iterative_tensors(self, img1, img2, prev: list[Prediction],
                          K: Intrinsics):
        """Graph outputs of one iterative refinement step.

        Previous predictions enter only as constants: an optical flow
        proposal rendered from the previous depth and motion, and a depth
        proposal triangulated from the fresh flow with the previous
        motion. A degenerate previous motion falls back to zero proposals.
        """
        i1, i2 = self._prep_images(img1, img2)
        flow_out = self._iterative_flow(i1, i2, prev, K)
        flow_np = flow_out["flow"].data
        N, _, H, W = flow_np.shape
        dt = self.cfg.np_dtype
        depth_prop = np.zeros((N, 1, H, W), dtype=dt)
        for n, p in enumerate(prev):
            try:
                w = flow_np[n].transpose(1, 2, 0).astype(np.float64)
                dep, valid = depth_from_flow_motion(
                    FlowField(w), p.motion().normalized(), K)
                depth_prop[n, 0] = np.where(valid, dep.xi, 0.0).astype(dt)
            except DegenerateMotionError:
                pass  # zero proposal
        out = self._dm_stage(self.iter_dm, i1, i2, flow_out, depth_prop)
        out["depth_proposal"] = depth_prop
        return out

    def refine_tensors(self, img1_full, predictions: list[Prediction]):
        """Graph output of the refinement stage (full-resolution depth)."""
        dt = self.cfg.np_dtype
        f = self.cfg.refine_factor
        i1 = images_to_nchw(img1_full, dt) - np.asarray(0.5, dt)
        N = i1.shape[0]
        H, W = self.cfg.height, self.cfg.width
        low = np.zeros((N, 4, H, W), dtype=dt)
        for n, p in enumerate(predictions):
            low[n, 0] = np.clip(p.xi * p.s, 0.0, None).astype(dt)
            low[n, 1:4] = p.normals.transpose(2, 0, 1).astype(dt)
        up = np.repeat(np.repeat(low, f, axis=2), f, axis=3)
        x = Tensor(np.concatenate([i1, up], axis=1))
        out, _ = self.refine.forward(x)
        return out

    @staticmethod
    def tensors_to_predictions(t: dict) -> list[Prediction]:
        """Detach batched graph outputs into per-sample predictions."""
        flow = t["flow"].data
        conf = t["conf"].data
        xi = t["xi"].data
        normals = t["normals"].data
        r = t["r"].data
        tt = t["t"].data
        s = t["s"].data
        preds = []
        for n in range(flow.shape[0]):
            preds.append(Prediction(
                flow=flow[n].transpose(1, 2, 0).astype(np.float64),
                flow_confidence=conf[n].transpose(1, 2, 0).astype(np.float64),
                xi=xi[n, 0].astype(np.float64),
                normals=normals[n].transpose(1, 2, 0).astype(np.float64),
                r=r[n].astype(np.float64),
                t=tt[n].astype(np.float64),
                s=float(s[n, 0]),
            ))
        return preds

    # --- inference API ----------------------------------------------------

    def bootstrap_forward(self, img1, img2) -> list[Prediction]:
        with ad.no_grad():
            return self.tensors_to_predictions(
                self.bootstrap_tensors(img1, img2))

    def iterative_forward(self, img1, img2, prev: list[Prediction],
                          K: Intrinsics) -> list[Prediction]:
        with ad.no_grad():
            return self.tensors_to_predictions(
                self.iterative_tensors(img1, img2, prev, K))

    def refine_forward(self, img1_full,
                       predictions: list[Prediction]) -> list[np.ndarray]:
        with ad.no_grad():
            out = self.refine_tensors(img1_full, predictions).data
        return [out[n, 0].astype(np.float64) for n in range(out.shape[0])]

    def predict(self, img1, img2, K: Intrinsics, n_iters: int | None = None,
                img1_full=None, keep_history: bool = False):
        """Bootstrap, iterate, optionally refine.

        Returns the final per-sample predictions; with ``keep_history``
        the per-iteration prediction lists are returned instead
        (history[0] is the bootstrap output).
        """
        if n_iters is None:
            n_iters = self.cfg.iterations
        preds = self.bootstrap_forward(img1, img2)
        history = [preds]
        for _ in range(n_iters):
            preds = self.iterative_forward(img1, img2, preds, K)
            history.append(preds)
        if img1_full is not None:
            refined = self.refine_forward(img1_full, preds)
            for p, rx in zip(preds, refined):
                p.refined_xi = rx
        return history if keep_history else preds

    # --- persistence ------------------------------------------------------

    def component_parameters(self, component: str) -> dict[str, Tensor]:
        ed = {"boot_flow": self.boot_flow, "boot_dm": self.boot_dm,
              "iter_flow": self.iter_flow, "iter_dm": self.iter_dm,
              "refine": self.refine}[component]
        return {name: self.params[name] for name in ed.parameter_names()}

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.params.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.params.load_state_dict(state)

