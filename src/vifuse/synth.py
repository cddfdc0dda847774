"""Synthetic mocap generator.

Produces ground-truth skeleton motion from analytic sinusoidal scripts, then
derives the observations a real capture would give: 2D projections, lifted 3D
poses, and IMU orientation/accelerometer streams, each with configurable
noise. Because joint angle tracks are sums of sinusoids about fixed axes,
positions are twice differentiable in closed form, which gives the test suite
exact acceleration oracles.

Noise is applied by a single seeded generator in a fixed stage order
(3D poses, then pixels, then IMU), so a given (spec, seed) pair always yields
identical streams, and stages with zero sigma are skipped entirely, which
keeps a zero spec a bitwise passthrough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .camera import Camera, look_at
from .energy import is_finite_positive
from .imu import CalibrationSet, ImuStream, SensorCalibration
from .rotmath import IDENTITY, quat_apply, quat_from_axis_angle, quat_inverse, quat_mul, quat_normalize
from .skeleton import MotionParams, SkeletonDefinition, global_rotations, positions_from_globals

TWO_PI = 2.0 * math.pi

# A dataset takes about 5 kB of memory and 2.7 kB of files per frame.
MAX_SYNTH_FRAMES = 1_000_000


def check_length(duration, fps) -> None:
    """Raise ValueError unless `duration` (s) and `fps` are finite positive
    numbers whose product is at most MAX_SYNTH_FRAMES frames."""
    for name, value in (("duration", duration), ("fps", fps)):
        if not is_finite_positive(value):
            raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    if not duration * fps <= MAX_SYNTH_FRAMES:  # an infinite product too
        raise ValueError(f"duration {duration} s at fps {fps} gives {duration * fps:.6g} frames; "
                         f"at most {MAX_SYNTH_FRAMES} can be built")


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("zero direction")
    return v / n


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(2*pi*frequency*t + phase); t may be a scalar or an array of times."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def value(self, t):
        return self.amplitude * np.sin(TWO_PI * self.frequency * t + self.phase)

    def rate(self, t):
        w = TWO_PI * self.frequency
        return self.amplitude * w * np.cos(w * t + self.phase)

    def accel(self, t):
        w = TWO_PI * self.frequency
        return -self.amplitude * w * w * np.sin(w * t + self.phase)


@dataclass(frozen=True)
class JointTrack:
    """Joint-local rotation about one fixed axis, angle a sum of sinusoids."""

    axis: tuple[float, float, float]
    waves: tuple[Sinusoid, ...]

    def angle(self, t):
        return sum(w.value(t) for w in self.waves)

    def rotation(self, t) -> np.ndarray:
        """The local rotation (4,) at time t, or (..., 4) for an array of times."""
        return quat_from_axis_angle(np.asarray(self.axis), self.angle(t))


@dataclass(frozen=True)
class TranslationWave:
    direction: tuple[float, float, float]
    amplitude: float
    frequency: float
    phase: float = 0.0

    def _wave(self) -> Sinusoid:
        return Sinusoid(self.amplitude, self.frequency, self.phase)

    def offset(self, t) -> np.ndarray:
        return np.asarray(self.direction) * np.asarray(self._wave().value(t))[..., None]

    def acceleration(self, t) -> np.ndarray:
        return np.asarray(self.direction) * np.asarray(self._wave().accel(t))[..., None]


@dataclass(frozen=True)
class MotionScript:
    """Analytic motion: per-joint angle tracks plus root translation waves.

    Methods taking a time t accept a scalar or an array of times and return
    results batched over its shape.
    """

    duration: float
    fps: float
    tracks: Mapping[int, JointTrack] = field(default_factory=dict)
    root_waves: tuple[TranslationWave, ...] = ()

    def __post_init__(self):
        check_length(self.duration, self.fps)

    @property
    def frame_count(self) -> int:
        return int(round(self.duration * self.fps))

    def times(self) -> np.ndarray:
        return np.arange(self.frame_count) / self.fps

    def root_offset(self, t) -> np.ndarray:
        out = np.zeros(np.shape(t) + (3,))
        for w in self.root_waves:
            out += w.offset(t)
        return out

    def root_acceleration(self, t) -> np.ndarray:
        out = np.zeros(np.shape(t) + (3,))
        for w in self.root_waves:
            out += w.acceleration(t)
        return out

    def params_at(self, skel: SkeletonDefinition, t) -> MotionParams:
        """Motion params at time t, batched over the axes of an array of times."""
        quats = np.empty(np.shape(t) + (skel.joint_count, 4))
        quats[...] = IDENTITY
        for j, track in self.tracks.items():
            quats[..., j, :] = track.rotation(t)
        return MotionParams(skel.tpose[0] + self.root_offset(t), quats)


def _rollout(script: MotionScript, skel: SkeletonDefinition
             ) -> tuple[np.ndarray, MotionParams, np.ndarray]:
    """generate_truth's positions and params, and the global rotations
    (T, J, 4) that the positions are built from."""
    for j in script.tracks:
        if not 0 < j < skel.joint_count:
            raise ValueError(f"track for invalid joint {j}")
    params = script.params_at(skel, script.times())
    rotations = global_rotations(skel, params)
    return positions_from_globals(skel, rotations, params.root_translation), params, rotations


def generate_truth(
    script: MotionScript, skel: SkeletonDefinition
) -> tuple[np.ndarray, MotionParams]:
    """Forward-kinematics rollout: (T, J, 3) positions and the params, batched
    over frames (params[i] is frame i's)."""
    return _rollout(script, skel)[:2]


def project_sequence(poses: np.ndarray, camera: Camera) -> np.ndarray:
    """(T, J, 3) world positions to (T, J, 2) pixels."""
    return camera.project(np.asarray(poses, dtype=float))


def finite_acceleration(positions: np.ndarray, fps: float) -> np.ndarray:
    """Central second difference scaled to mm/s^2, boundary rows replicated."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape[0] < 3:
        raise ValueError("need at least 3 frames for acceleration")
    acc = np.empty_like(positions)
    acc[1:-1] = (positions[2:] - 2.0 * positions[1:-1] + positions[:-2]) * fps * fps
    acc[0] = acc[1]
    acc[-1] = acc[-2]
    return acc


def derive_imu(
    params: MotionParams,
    skel: SkeletonDefinition,
    calib: CalibrationSet,
    fps: float,
) -> ImuStream:
    """Exact algebraic inverse of the calibration step.

    Sensor orientation is chosen so calibrating it returns the truth global
    joint rotation; the recorded acceleration is the sensor-frame reaction
    reading whose calibration returns the gravity-free joint acceleration
    (second finite difference of the truth trajectory). `params` are batched
    over frames, as generate_truth returns them.
    """
    rotations = global_rotations(skel, params)
    positions = positions_from_globals(skel, rotations, params.root_translation)
    return _imu_readings(rotations, positions, skel, calib, fps)


def _imu_readings(rotations: np.ndarray, positions: np.ndarray, skel: SkeletonDefinition,
                  calib: CalibrationSet, fps: float) -> ImuStream:
    """derive_imu from the truth's global rotations (T, J, 4) and positions (T, J, 3)."""
    joints = calib.joint_indices(skel)
    acc = finite_acceleration(positions, fps)
    r_global = np.stack([c.r_global for c in calib.sensors])
    r_joint = np.stack([c.r_joint for c in calib.sensors])
    sample_rot = quat_mul(quat_mul(quat_inverse(r_global), r_joint), rotations[:, joints])
    world_to_sensor = quat_inverse(quat_mul(r_global, sample_rot))
    accels = quat_apply(world_to_sensor, acc[:, joints] - np.asarray(calib.gravity, dtype=float))
    return ImuStream(calib.sensor_ids, sample_rot, accels)


@dataclass(frozen=True)
class NoiseSpec:
    """Observation corruption levels; everything defaults to off.

    sigma_depth and occlusion accept either a scalar or a length-J array for
    per-joint control. sigma_depth displaces 3D joints along the camera ray
    (invisible to the 2D projection); sigma_transverse displaces them
    perpendicular to the ray (fully visible to it); sigma_xyz is isotropic.
    """

    sigma_depth: float | np.ndarray = 0.0
    sigma_xyz: float = 0.0
    sigma_transverse: float = 0.0
    sigma_px: float = 0.0
    sigma_rot: float = 0.0
    sigma_acc: float = 0.0
    occlusion: float | np.ndarray = 0.0

    def __post_init__(self):
        for name in ("sigma_depth", "sigma_xyz", "sigma_transverse", "sigma_px", "sigma_rot", "sigma_acc", "occlusion"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all((0.0 <= value) & (value < math.inf)):  # refuses NaN too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if np.any(np.asarray(self.occlusion, dtype=float) > 1.0):
            raise ValueError("occlusion is a probability")


def _per_joint(value, joint_count: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(joint_count, float(arr))
    if arr.shape != (joint_count,):
        raise ValueError(f"{name} must be scalar or length {joint_count}")
    return arr


def corrupt_poses(
    poses: np.ndarray, camera: Camera, noise: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Ray-aligned depth noise, ray-perpendicular noise, then isotropic noise.

    Ray directions are taken from the clean input positions, so the depth
    stage moves each joint along the exact line of sight through it and its
    projection is unchanged to machine precision.
    """
    poses = np.asarray(poses, dtype=float)
    t_n, j_n = poses.shape[0], poses.shape[1]
    out = poses.copy()
    sigma_z = _per_joint(noise.sigma_depth, j_n, "sigma_depth")
    need_rays = np.any(sigma_z > 0.0) or noise.sigma_transverse > 0.0
    if need_rays:
        rays = poses - np.asarray(camera.center)
        d = rays / np.linalg.norm(rays, axis=2, keepdims=True)
    if np.any(sigma_z > 0.0):
        eps = rng.standard_normal((t_n, j_n)) * sigma_z
        out += d * eps[:, :, None]
    if noise.sigma_transverse > 0.0:
        n = rng.standard_normal((t_n, j_n, 3)) * noise.sigma_transverse
        n -= d * np.sum(d * n, axis=2, keepdims=True)
        out += n
    if noise.sigma_xyz > 0.0:
        out += rng.standard_normal((t_n, j_n, 3)) * noise.sigma_xyz
    return out


def corrupt_pixels(
    pixels: np.ndarray, noise: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Pixel noise, then occlusion dropout (occluded joints become NaN rows)."""
    pixels = np.asarray(pixels, dtype=float)
    t_n, j_n = pixels.shape[0], pixels.shape[1]
    out = pixels.copy()
    if noise.sigma_px > 0.0:
        out += rng.standard_normal((t_n, j_n, 2)) * noise.sigma_px
    p_occ = _per_joint(noise.occlusion, j_n, "occlusion")
    if np.any(p_occ > 0.0):
        hidden = rng.random((t_n, j_n)) < p_occ
        out[hidden] = np.nan
    return out


def corrupt_imu(stream: ImuStream, noise: NoiseSpec, rng: np.random.Generator) -> ImuStream:
    """Left-multiplied small random rotations, then accelerometer noise."""
    quats = stream.orientations.copy()
    if noise.sigma_rot > 0.0:
        w = rng.standard_normal(quats.shape[:-1] + (3,)) * noise.sigma_rot
        angle = np.linalg.norm(w, axis=-1)
        moved = angle != 0.0
        wobble = quat_from_axis_angle(w[moved] / angle[moved, None], angle[moved])
        quats[moved] = quat_mul(wobble, quat_normalize(quats[moved]))
    accels = stream.accels.copy()
    if noise.sigma_acc > 0.0:
        accels += rng.standard_normal(accels.shape) * noise.sigma_acc
    return ImuStream(stream.sensor_ids, quats, accels)


# ---------------------------------------------------------------------------
# Default rig: 21 joints, 8 limb-mounted IMUs, one camera 4 m out, 25 fps.

DEFAULT_JOINT_NAMES = (
    "pelvis", "spine", "chest", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist", "l_hand",
    "r_shoulder", "r_elbow", "r_wrist", "r_hand",
    "l_hip", "l_knee", "l_ankle", "l_foot",
    "r_hip", "r_knee", "r_ankle", "r_foot",
)

DEFAULT_PARENTS = (-1, 0, 1, 2, 3, 2, 5, 6, 7, 2, 9, 10, 11, 0, 13, 14, 15, 0, 17, 18, 19)

DEFAULT_TPOSE = (
    (0.0, 1000.0, 0.0),
    (0.0, 1120.0, 0.0),
    (0.0, 1280.0, 0.0),
    (0.0, 1430.0, 0.0),
    (0.0, 1560.0, 0.0),
    (180.0, 1400.0, 0.0),
    (460.0, 1400.0, 0.0),
    (710.0, 1400.0, 0.0),
    (790.0, 1400.0, 0.0),
    (-180.0, 1400.0, 0.0),
    (-460.0, 1400.0, 0.0),
    (-710.0, 1400.0, 0.0),
    (-790.0, 1400.0, 0.0),
    (90.0, 960.0, 0.0),
    (90.0, 520.0, 0.0),
    (90.0, 90.0, 0.0),
    (90.0, 20.0, 140.0),
    (-90.0, 960.0, 0.0),
    (-90.0, 520.0, 0.0),
    (-90.0, 90.0, 0.0),
    (-90.0, 20.0, 140.0),
)

# sensor id -> joint owning the instrumented bone (bone runs parent -> joint)
DEFAULT_SENSOR_SITES = (
    ("l_upper_arm", "l_elbow"),
    ("l_forearm", "l_wrist"),
    ("r_upper_arm", "r_elbow"),
    ("r_forearm", "r_wrist"),
    ("l_thigh", "l_knee"),
    ("l_shank", "l_ankle"),
    ("r_thigh", "r_knee"),
    ("r_shank", "r_ankle"),
)

_LIMB_JOINTS = frozenset(
    ("l_elbow", "l_wrist", "l_hand", "r_elbow", "r_wrist", "r_hand",
     "l_knee", "l_ankle", "l_foot", "r_knee", "r_ankle", "r_foot")
)


def default_skeleton() -> SkeletonDefinition:
    return SkeletonDefinition(DEFAULT_JOINT_NAMES, DEFAULT_PARENTS, DEFAULT_TPOSE)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    return quat_normalize(rng.standard_normal(4))


def default_calibration(skel: SkeletonDefinition | None = None, seed: int = 11) -> CalibrationSet:
    """Eight limb sensors with fixed, seeded (non-trivial) mounting rotations."""
    skel = skel or default_skeleton()
    rng = np.random.default_rng(seed)
    sensors = []
    for sensor_id, joint_name in DEFAULT_SENSOR_SITES:
        skel.index_of(joint_name)
        sensors.append(
            SensorCalibration(
                sensor_id=sensor_id,
                joint=joint_name,
                r_global=_random_rotation(rng),
                r_joint=_random_rotation(rng),
            )
        )
    return CalibrationSet(tuple(sensors))


def default_camera() -> Camera:
    return look_at(
        center=(0.0, 1200.0, 4000.0),
        target=(0.0, 1000.0, 0.0),
        fx=1150.0,
        fy=1150.0,
        cx=640.0,
        cy=360.0,
    )


def default_script(duration: float = 60.0, fps: float = 25.0, seed: int = 7) -> MotionScript:
    """Gentle whole-body motion: every non-root joint swings about a fixed
    random axis with two incommensurate sinusoids; the root sways slowly."""
    rng = np.random.default_rng(seed)
    tracks = {}
    for j, name in enumerate(DEFAULT_JOINT_NAMES):
        if j == 0:
            continue
        axis = _unit(rng.standard_normal(3))
        scale = 0.35 if name in _LIMB_JOINTS else 0.10
        waves = tuple(
            Sinusoid(
                amplitude=scale * rng.uniform(0.4, 1.0),
                frequency=rng.uniform(0.15, 0.85),
                phase=rng.uniform(0.0, TWO_PI),
            )
            for _ in range(2)
        )
        tracks[j] = JointTrack(axis=tuple(axis), waves=waves)
    root_waves = (
        TranslationWave((1.0, 0.0, 0.0), 60.0, 0.21),
        TranslationWave((0.0, 0.0, 1.0), 40.0, 0.13, 1.0),
        TranslationWave((0.0, 1.0, 0.0), 20.0, 0.42, 2.0),
    )
    return MotionScript(duration=duration, fps=fps, tracks=tracks, root_waves=root_waves)


@dataclass(frozen=True)
class SyntheticDataset:
    """One generated capture: truth, corrupted observations, and the rig."""

    skeleton: SkeletonDefinition
    calibration: CalibrationSet
    camera: Camera
    fps: float
    truth: np.ndarray
    inputs: np.ndarray
    pixels: np.ndarray
    imu: ImuStream
    noise: NoiseSpec
    seed: int

    @property
    def frame_count(self) -> int:
        return int(self.truth.shape[0])


def make_dataset(
    noise: NoiseSpec,
    seed: int = 0,
    script: MotionScript | None = None,
    skel: SkeletonDefinition | None = None,
    calib: CalibrationSet | None = None,
    camera: Camera | None = None,
) -> SyntheticDataset:
    """Generate truth and corrupt it. Noise stages draw from one generator in
    a fixed order (poses, pixels, IMU), so outputs are seed-deterministic."""
    skel = skel or default_skeleton()
    calib = calib or default_calibration(skel)
    camera = camera or default_camera()
    script = script or default_script()
    truth, params, rotations = _rollout(script, skel)
    pixels_clean = project_sequence(truth, camera)
    imu_clean = _imu_readings(rotations, truth, skel, calib, script.fps)
    del params, rotations  # the corruption stages below set the peak memory
    rng = np.random.default_rng(seed)
    inputs = corrupt_poses(truth, camera, noise, rng)
    pixels = corrupt_pixels(pixels_clean, noise, rng)
    imu = corrupt_imu(imu_clean, noise, rng)
    return SyntheticDataset(
        skeleton=skel,
        calibration=calib,
        camera=camera,
        fps=script.fps,
        truth=truth,
        inputs=inputs,
        pixels=pixels,
        imu=imu,
        noise=noise,
        seed=seed,
    )
