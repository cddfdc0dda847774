"""Calibration of raw inertial samples into the global skeleton frame.

Each sensor k comes with two fixed rotations: R_kg aligning the sensor's
reference frame with the global frame, and R_kj the mounting offset between
the sensor and the bone of the joint it is strapped to. A raw sample holds the
sensor's orientation R_k in its own reference frame and the accelerometer
reading A_rec in the sensor frame (reaction convention: a stationary sensor
reads +|g| pointing up once rotated into the global frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rotmath import check_unit_quat, quat_apply, quat_inverse, quat_mul, quat_normalize
from .skeleton import SkeletonDefinition, UnboundJointError

DEFAULT_GRAVITY = (0.0, -9810.0, 0.0)  # mm/s^2, global frame, pointing down


@dataclass(frozen=True)
class SensorCalibration:
    """Fixed per-sensor rotations and the name of the joint whose bone it tracks."""

    sensor_id: str
    joint: str
    r_global: np.ndarray  # R_kg (4,): sensor reference frame -> global frame
    r_joint: np.ndarray  # R_kj (4,): mounting offset, sensor -> joint bone frame

    def __post_init__(self):
        for name in ("r_global", "r_joint"):
            q = check_unit_quat(getattr(self, name), f"sensor {self.sensor_id!r} {name}")
            object.__setattr__(self, name, q)


@dataclass(frozen=True)
class CalibrationSet:
    """All sensor calibrations plus the global gravity field vector (mm/s^2)."""

    sensors: tuple[SensorCalibration, ...]
    gravity: np.ndarray = field(default=DEFAULT_GRAVITY)

    def __post_init__(self):
        g = np.asarray(self.gravity, dtype=float)
        if g.shape != (3,):
            raise ValueError(f"gravity must be a 3-vector, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError(f"gravity must be finite, got {g.tolist()}")
        g.setflags(write=False)
        object.__setattr__(self, "gravity", g)
        ids = [s.sensor_id for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ValueError("sensor ids are not unique")
        joints = [s.joint for s in self.sensors]
        if len(set(joints)) != len(joints):
            raise ValueError("a joint is bound to more than one sensor")

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        return tuple(s.sensor_id for s in self.sensors)

    def sensor(self, sensor_id: str) -> SensorCalibration:
        for s in self.sensors:
            if s.sensor_id == sensor_id:
                return s
        raise KeyError(f"no calibration for sensor {sensor_id!r}")

    def joint_indices(
        self, skel: SkeletonDefinition, sensor_ids: tuple[str, ...] | None = None
    ) -> np.ndarray:
        """Bound joint index per sensor id, in calibration order by default.

        Raises UnboundJointError naming the sensor when it has no calibration
        entry, names a joint the skeleton lacks, or is bound to the root.
        """
        out = []
        for sid in self.sensor_ids if sensor_ids is None else sensor_ids:
            try:
                j = skel.index_of(self.sensor(sid).joint)
            except KeyError as e:
                raise UnboundJointError(f"cannot bind sensor {sid!r}: {e.args[0]}") from None
            if j == 0:
                raise UnboundJointError(f"sensor {sid!r} is bound to the root joint, which has no bone")
            out.append(j)
        return np.array(out, dtype=int)


@dataclass(frozen=True)
class ImuStream:
    """Per-frame, per-sensor raw samples stored as arrays.

    orientations: (T, K, 4) quaternions (w, x, y, z); accels: (T, K, 3) mm/s^2.
    Sensor order matches `sensor_ids`, which must be unique.
    """

    sensor_ids: tuple[str, ...]
    orientations: np.ndarray
    accels: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.orientations, dtype=float)
        a = np.asarray(self.accels, dtype=float)
        k = len(self.sensor_ids)
        if len(set(self.sensor_ids)) != k:
            raise ValueError(f"duplicate sensor ids in {self.sensor_ids}")
        if q.ndim != 3 or q.shape[1:] != (k, 4):
            raise ValueError(f"orientations must have shape (T, {k}, 4), got {q.shape}")
        if a.shape != (q.shape[0], k, 3):
            raise ValueError(f"accels must have shape ({q.shape[0]}, {k}, 3), got {a.shape}")
        object.__setattr__(self, "orientations", q)
        object.__setattr__(self, "accels", a)

    @property
    def frame_count(self) -> int:
        return int(self.orientations.shape[0])


def calibrate_stream(
    calib: CalibrationSet, stream: ImuStream, skel: SkeletonDefinition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Calibrate a whole stream against a skeleton in one array pass.

    Returns (rotations, accels, bones), each batched (T, K) over frames and
    stream sensors: the joint rotations (R_kj)^-1 * R_kg * R_k as (T, K, 4)
    quaternions; the gravity-free global accelerations (T, K, 3) mm/s^2; and
    the sensor-predicted bone vectors (T, K, 3), which keep the T-pose bone
    lengths. The raw reading follows the reaction convention, so rotating it
    into the global frame leaves -gravity in it at rest and adding the field
    removes that: a stationary sample calibrates to zero and a free-fall
    reading of zero to the field itself. Sensor order follows the stream;
    every stream sensor must bind as CalibrationSet.joint_indices requires.
    """
    joints = calib.joint_indices(skel, stream.sensor_ids)
    cals = [calib.sensor(sid) for sid in stream.sensor_ids]
    r_global = np.stack([c.r_global for c in cals])
    r_joint = np.stack([c.r_joint for c in cals])
    raw = quat_normalize(stream.orientations)
    rotations = quat_mul(quat_mul(quat_inverse(r_joint), r_global), raw)
    accels = quat_apply(r_global, quat_apply(raw, stream.accels)) + np.asarray(calib.gravity, dtype=float)
    return rotations, accels, quat_apply(rotations, skel.bones[joints])
