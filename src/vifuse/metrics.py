"""Position, acceleration, and jitter error metrics for pose sequences.

All three compare a predicted (T, J, 3) sequence against ground truth in the
global frame, without any alignment step, through the error pred - gt.
Acceleration and jitter errors are norms of its second and third finite
differences over frames (the differences of the two sequences' own finite
differences), with boundary frames dropped; by default they are scaled by
fps^2 / fps^3 so the units are mm/s^2 and mm/s^3 instead of per-frame powers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .energy import is_finite_positive
from .rotmath import _norm3


# The jitter error is a third difference, so a full report needs 4 frames.
REPORT_MIN_FRAMES = 4


class LengthMismatchError(ValueError):
    pass


class TooShortError(ValueError):
    pass


def _as_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.ndim != 3 or pred.shape[2] != 3:
        raise ValueError(f"expected (T, J, 3) sequences, got {pred.shape}")
    if pred.shape != gt.shape:
        raise LengthMismatchError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(gt))):
        raise ValueError("sequences contain non-finite values")
    return pred, gt


def _mean_norm(diff: np.ndarray) -> np.ndarray:
    """Per-joint mean over frames of the norms of (T, J, 3) differences."""
    return _norm3(diff).mean(axis=0)


def _rate_error(err: np.ndarray, order: int, fps: float, per_second: bool) -> np.ndarray:
    """Per-joint mean norm of err's order-th difference over frames, x fps^order if per_second."""
    if not is_finite_positive(fps):
        raise ValueError(f"fps must be a finite positive number, got {fps!r}")
    return _mean_norm(np.diff(err, order, axis=0) * (fps ** order if per_second else 1.0))


def per_joint_mpjpe(pred, gt) -> np.ndarray:
    pred, gt = _as_pair(pred, gt)
    return _mean_norm(pred - gt)


def mpjpe(pred, gt) -> float:
    """Mean Euclidean joint distance in mm."""
    pred, gt = _as_pair(pred, gt)
    return float(_norm3(pred - gt).mean())


def per_joint_mpjae(pred, gt, fps: float, per_second: bool = True) -> np.ndarray:
    pred, gt = _as_pair(pred, gt)
    if pred.shape[0] < 3:
        raise TooShortError("acceleration error needs at least 3 frames")
    return _rate_error(pred - gt, 2, fps, per_second)


def mpjae(pred, gt, fps: float, per_second: bool = True) -> float:
    """Mean norm of the second-finite-difference error, mm/s^2 by default."""
    return float(per_joint_mpjae(pred, gt, fps, per_second).mean())


def per_joint_mpjje(pred, gt, fps: float, per_second: bool = True) -> np.ndarray:
    pred, gt = _as_pair(pred, gt)
    if pred.shape[0] < 4:
        raise TooShortError("jitter error needs at least 4 frames")
    return _rate_error(pred - gt, 3, fps, per_second)


def mpjje(pred, gt, fps: float, per_second: bool = True) -> float:
    """Mean norm of the third-finite-difference error, mm/s^3 by default."""
    return float(per_joint_mpjje(pred, gt, fps, per_second).mean())


@dataclass(frozen=True)
class MetricReport:
    """Bundle of the three metrics plus per-joint breakdowns."""

    mpjpe: float
    mpjae: float
    mpjje: float
    joint_mpjpe: np.ndarray
    joint_mpjae: np.ndarray
    joint_mpjje: np.ndarray
    frame_count: int
    fps: float
    per_second: bool = True

    def __post_init__(self):
        values = [self.mpjpe, self.mpjae, self.mpjje]
        if not all(np.isfinite(v) and v >= 0.0 for v in values):
            raise ValueError("metrics must be finite and non-negative")

    def to_record(self) -> dict:
        """Machine-readable form for regression tracking."""
        return {
            "frame_count": self.frame_count,
            "fps": self.fps,
            "per_second": self.per_second,
            "mpjpe_mm": self.mpjpe,
            "mpjae": self.mpjae,
            "mpjje": self.mpjje,
            "joint_mpjpe_mm": [float(v) for v in self.joint_mpjpe],
            "joint_mpjae": [float(v) for v in self.joint_mpjae],
            "joint_mpjje": [float(v) for v in self.joint_mpjje],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), indent=2, sort_keys=True)

    def format_text(self, joint_names=None) -> str:
        au = "mm/s^2" if self.per_second else "mm/frame^2"
        ju = "mm/s^3" if self.per_second else "mm/frame^3"
        lines = [
            f"frames    {self.frame_count}  (fps {self.fps:g})",
            f"MPJPE     {self.mpjpe:10.3f} mm",
            f"MPJAE     {self.mpjae:10.3f} {au}",
            f"MPJJE     {self.mpjje:10.3f} {ju}",
        ]
        names = joint_names or [f"joint{i}" for i in range(len(self.joint_mpjpe))]
        lines.append(f"{'joint':<12}{'mpjpe':>12}{'mpjae':>14}{'mpjje':>16}")
        for name, p, a, j in zip(names, self.joint_mpjpe, self.joint_mpjae, self.joint_mpjje):
            lines.append(f"{name:<12}{p:12.3f}{a:14.3f}{j:16.3f}")
        return "\n".join(lines)


def evaluate(pred, gt, fps: float, per_second: bool = True) -> MetricReport:
    """Compute all three metrics and their per-joint breakdowns at once."""
    pred, gt = _as_pair(pred, gt)
    if pred.shape[0] < REPORT_MIN_FRAMES:
        raise TooShortError(f"full metric report needs at least {REPORT_MIN_FRAMES} frames")
    err = pred - gt
    jp = _mean_norm(err)
    ja = _rate_error(err, 2, fps, per_second)
    jj = _rate_error(err, 3, fps, per_second)
    return MetricReport(
        mpjpe=float(jp.mean()),
        mpjae=float(ja.mean()),
        mpjje=float(jj.mean()),
        joint_mpjpe=jp,
        joint_mpjae=ja,
        joint_mpjje=jj,
        frame_count=int(pred.shape[0]),
        fps=fps,
        per_second=per_second,
    )
