"""Output checks that do not reuse the code they check.

Each check compares the package's output with a computation written here
from the definitions (float64 direct-summation convolutions, a scalar
pinhole projection, quaternion rotations) or with a property the method
must have. None compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

LEAKY_SLOPE = 0.1  # the network's leaky ReLU slope, from the paper


# --- float64 reference forward of one encoder-decoder ----------------------

def _leaky(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def conv_ref(x, w, b, stride, pad):
    """Cross-correlation of (C, H, W) with (O, C, kh, kw), summed tap by tap."""
    O, C, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    Ho = (xp.shape[1] - kh) // sh + 1
    Wo = (xp.shape[2] - kw) // sw + 1
    out = np.zeros((O, Ho, Wo)) + b[:, None, None]
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i:i + sh * (Ho - 1) + 1:sh, j:j + sw * (Wo - 1) + 1:sw]
            out += np.einsum("oc,chw->ohw", w[:, :, i, j], patch)
    return out


def upconv_ref(x, w, b):
    """Stride-2, pad-1 transposed conv of (O, H, W) with (O, C, k, k).

    Every input pixel scatters its kernel-weighted copy into the output;
    the padding crops one row and column on each side.
    """
    O, C, kh, kw = w.shape
    _, H, W = x.shape
    full = np.zeros((C, 2 * (H - 1) + kh, 2 * (W - 1) + kw))
    for i in range(kh):
        for j in range(kw):
            full[:, i:i + 2 * H:2, j:j + 2 * W:2] += np.einsum(
                "oc,ohw->chw", w[:, :, i, j], x)
    return full[:, 1:1 + 2 * H, 1:1 + 2 * W] + b[:, None, None]


def encoder_decoder_ref(x, params, prefix, channels, first_kernel, kernel):
    """The encoder-decoder of the paper: 1-D conv pairs with stride 2,
    transposed-conv decoder with skip connections, two 3x3 head convs."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()
         if k.startswith(prefix + ".")}

    def P(name):
        return p[f"{prefix}.{name}"]

    h = np.asarray(x, dtype=np.float64)
    skips = []
    for i in range(len(channels)):
        k = first_kernel if i == 0 else kernel
        h = _leaky(conv_ref(h, P(f"enc{i}.x.w"), P(f"enc{i}.x.b"),
                            (1, 2), (0, k // 2)))
        h = _leaky(conv_ref(h, P(f"enc{i}.y.w"), P(f"enc{i}.y.b"),
                            (2, 1), (k // 2, 0)))
        skips.append(h)
    for i in range(len(channels) - 1, 0, -1):
        h = _leaky(upconv_ref(h, P(f"up{i}.w"), P(f"up{i}.b")))
        h = np.concatenate([h, skips[i - 1]], axis=0)
        h = _leaky(conv_ref(h, P(f"merge{i}.w"), P(f"merge{i}.b"),
                            (1, 1), (1, 1)))
    h = _leaky(upconv_ref(h, P("up0.w"), P("up0.b")))
    h = _leaky(conv_ref(h, P("head0.w"), P("head0.b"), (1, 1), (1, 1)))
    return conv_ref(h, P("head1.w"), P("head1.b"), (1, 1), (1, 1))


def boot_flow_ref(img1, img2, params, cfg):
    """Float64 bootstrap flow-net output (4, H, W) for one (H, W, 3) pair."""
    x = np.concatenate([np.asarray(img1, np.float64).transpose(2, 0, 1),
                        np.asarray(img2, np.float64).transpose(2, 0, 1)]) - 0.5
    return encoder_decoder_ref(x, params, "boot_flow", cfg.channels,
                               cfg.first_kernel, cfg.kernel)


def max_rel_diff(a, ref):
    """Largest |a - ref| relative to the largest |ref|."""
    a = np.asarray(a, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1e-30))


# --- camera geometry from the definitions -----------------------------------

def quat_rotation(r):
    """Rotation matrix of an angle-axis vector through its unit quaternion."""
    r = np.asarray(r, dtype=np.float64)
    theta = math.sqrt(float(r @ r))
    if theta == 0.0:
        return np.eye(3)
    a = r / theta
    w = math.cos(theta / 2)
    x, y, z = math.sin(theta / 2) * a
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def flow_at_pixel(row, col, xi, r, t, K):
    """Flow of one pixel: unproject at depth 1/xi, move, reproject."""
    u1 = (col + 0.5) / K.width
    v1 = (row + 0.5) / K.height
    z = 1.0 / xi
    p1 = np.array([(u1 - K.cx) / K.fx * z, (v1 - K.cy) / K.fy * z, z])
    p2 = quat_rotation(r) @ p1 + np.asarray(t, dtype=np.float64)
    return np.array([K.fx * p2[0] / p2[2] + K.cx - u1,
                     K.fy * p2[1] / p2[2] + K.cy - v1])


def rotation_angle_deg(r_a, r_b):
    """Angle of the relative rotation between two angle-axis vectors."""
    R = quat_rotation(r_a) @ quat_rotation(r_b).T
    c = (np.trace(R) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def direction_angle_deg(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def quantize_image(img):
    """The TVK1 record encoding of an image in [0, 1]: uint8 after rounding."""
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
