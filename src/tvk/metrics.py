"""Evaluation measures for depth, camera motion and optical flow.

Depth metrics consume metric depth z; for network outputs the evaluator
converts via z = 1/(s*xi) on valid pixels first. All reductions are
means over the intersection of the supplied validity masks.

``depth_error_report`` is the one depth-error kernel: it masks a pair
once, checks once that both depths are positive there and computes
L1-inv, sc-inv (Eigen et al., NIPS 2014) and L1-rel from the same masked
pixels. ``l1_inv``, ``sc_inv`` and ``l1_rel`` each return one field of it.

A report row is a dict from error names to floats: the schema's names
(``CSV_FIELDS`` after ``dataset`` and ``method``) are read and any other
key is ignored, so an ``evaluate_iterations`` row and
``{**asdict(depth), **asdict(motion), "epe": e}`` both fit.
``csv_row(dataset, method, errors)`` formats one to 9 significant digits,
leaving an error the dict lacks empty. ``write_csv`` is the package's one
CSV writer: rows under a header of ``fields``, returned as text and
written to ``path`` when one is given.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .geometry import CameraMotion, last_axis_norm, rotation_from_angle_axis

CSV_FIELDS = ["dataset", "method", "l1_inv", "sc_inv", "l1_rel",
              "rot_deg", "trans_deg", "epe"]


@dataclass
class DepthErrorReport:
    l1_inv: float
    sc_inv: float
    l1_rel: float
    n_valid: int


@dataclass
class MotionErrorReport:
    rot_deg: float
    trans_deg: float


def _masked(z, z_gt, mask):
    """z and z_gt at the pixels ``mask`` (over the first two axes) keeps."""
    z = np.asarray(z, dtype=np.float64)
    z_gt = np.asarray(z_gt, dtype=np.float64)
    if z.shape != z_gt.shape:
        raise ValueError("shapes differ")
    if mask is None:
        mask = np.ones(z.shape[:2], dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != z.shape[:2]:
            raise ValueError("mask shape differs")
    if not mask.any():
        raise ValueError("no valid pixels")
    return z[mask], z_gt[mask]


def depth_error_report(z, z_gt, mask=None) -> DepthErrorReport:
    """All depth errors of one pair, from one masking (module docstring)."""
    zv, gv = _masked(z, z_gt, mask)
    if np.any(zv <= 0) or np.any(gv <= 0):
        raise ValueError("depths must be positive on valid pixels")
    d = np.log(zv) - np.log(gv)
    n = d.size
    var = float(np.sum(d * d) / n - (np.sum(d) / n) ** 2)
    return DepthErrorReport(
        l1_inv=float(np.mean(np.abs(1.0 / zv - 1.0 / gv))),
        sc_inv=float(np.sqrt(max(var, 0.0))),
        l1_rel=float(np.mean(np.abs(zv - gv) / gv)),
        n_valid=int(n),
    )


def sc_inv(z, z_gt, mask=None) -> float:
    """Scale-invariant log-depth error: std of log z - log z_gt."""
    return depth_error_report(z, z_gt, mask).sc_inv


def l1_rel(z, z_gt, mask=None) -> float:
    """Mean absolute depth error relative to the ground truth depth."""
    return depth_error_report(z, z_gt, mask).l1_rel


def l1_inv(z, z_gt, mask=None) -> float:
    """Mean absolute inverse-depth error."""
    return depth_error_report(z, z_gt, mask).l1_inv


def endpoint_error(flow, flow_gt, mask=None) -> float:
    """Mean Euclidean flow difference in normalized image units."""
    wv, gv = _masked(flow, flow_gt, mask)
    return float(np.mean(last_axis_norm(wv - gv)))


def motion_angular_errors(pred: CameraMotion, gt: CameraMotion) -> MotionErrorReport:
    """Angles in degrees between predicted and true translation / rotation."""
    for t in (pred.t, gt.t):
        if abs(np.linalg.norm(t) - 1.0) > 1e-6:
            raise ValueError("translations must be unit norm")
    cos_t = float(np.clip(np.dot(pred.t, gt.t), -1.0, 1.0))
    trans_deg = float(np.degrees(np.arccos(cos_t)))
    R_rel = rotation_from_angle_axis(pred.r) @ rotation_from_angle_axis(gt.r).T
    cos_r = float(np.clip((np.trace(R_rel) - 1.0) / 2.0, -1.0, 1.0))
    rot_deg = float(np.degrees(np.arccos(cos_r)))
    return MotionErrorReport(rot_deg=rot_deg, trans_deg=trans_deg)


def csv_row(dataset: str, method: str, errors: dict) -> dict:
    """One row of the shared report schema (module docstring)."""
    row = {"dataset": dataset, "method": method}
    for k in CSV_FIELDS[2:]:
        row[k] = f"{errors[k]:.9g}" if k in errors else ""
    return row


def write_csv(rows: list[dict], path: str | None = None,
              fields: list[str] = CSV_FIELDS) -> str:
    """Serialize rows; returns the CSV text (and writes it when given a path)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as f:
            f.write(text)
    return text
