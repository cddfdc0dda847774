"""End-to-end runs: configuration, the four pipeline modes, dataset output.

Modes:
  baseline  pass the input 3D pose stream through untouched
  sf2       per-frame IMU-gated inverse kinematics only
  rto       the visual term's exact minimum (k_inertial = 0): each joint
            projected onto its pixel's camera ray, with no fragments
  rtof      fragment optimization of the full energy from the input poses,
            or rto's projection when no inertial term is active; theta_t
            serves sf2 alone

Runs are deterministic: identical inputs and config produce byte-identical
output files (no timing or environment data is written to results).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .camera import Camera
from .energy import EnergyConfig, is_finite_positive, is_integer, visual_minimum
from .fileio import (
    read_calibration,
    read_camera,
    read_imu,
    read_pose2d,
    read_pose3d,
    read_skeleton,
    write_calibration,
    write_camera,
    write_imu,
    write_pose2d,
    write_pose3d,
    write_skeleton,
)
from .imu import CalibrationSet, ImuStream, calibrate_stream
from .metrics import REPORT_MIN_FRAMES, MetricReport, evaluate
from .optimizer import RefineStats, SequenceObservations, SolverSettings, refine_batch
from .skeleton import SkeletonDefinition, refine_sequence
from .synth import (DEFAULT_JOINT_NAMES, NoiseSpec, SyntheticDataset, check_length, default_script,
                    make_dataset)
from .synth import MAX_SYNTH_FRAMES  # noqa: F401 - read as pipeline.MAX_SYNTH_FRAMES

# The optional streams each mode reads; skeleton, pose3d and truth (when
# given) are read in every mode. A run opens no other configured stream.
_VISUAL = ("pose2d", "camera")
_INERTIAL = ("calibration", "imu")
MODE_STREAMS = {
    "baseline": (),
    "rto": _VISUAL,
    "sf2": _INERTIAL,
    "rtof": _VISUAL + _INERTIAL,
}
MODES = tuple(MODE_STREAMS)

# CLI-default corruption: mixed per-frame noise on every stream.
DEFAULT_NOISE = NoiseSpec(
    sigma_depth=25.0,
    sigma_xyz=6.0,
    sigma_transverse=18.0,
    sigma_px=1.0,
    sigma_rot=0.008,
    sigma_acc=40.0,
    occlusion=0.02,
)


class ConfigError(ValueError):
    pass


class MissingInputError(ConfigError):
    pass


class DataError(ValueError):
    """Input streams that parse but cannot be used together, such as streams
    whose frame counts differ, a stream whose joint count differs from the
    skeleton's, or poses or pixels without three or two coordinates."""


def _mode_requirements(mode: str, given: set[str], energy: EnergyConfig) -> None:
    """Check that every optional stream `mode` reads is among `given`, and
    that `energy` is a setting the mode refines sanely with."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}' (choose from {', '.join(MODES)})")
    for name in MODE_STREAMS[mode]:
        if name not in given:
            needs = ("2D observations and a camera" if name in _VISUAL
                     else "an IMU stream and calibration")
            raise MissingInputError(f"mode {mode} requires {needs}")
    # Without bone rows nothing but the damping pins a chain joint's depth
    # along its camera ray, and the solve moves the chains by metres.
    if mode == "rtof" and energy.inertial_active and energy.k_bone == 0.0:
        raise ConfigError(
            f"mode rtof needs k_bone > 0 while an inertial term is active (k_inertial "
            f"{energy.k_inertial:g}, k_accel {energy.k_accel:g}, k_smooth {energy.k_smooth:g}); "
            "set k_bone, or k_inertial to 0")


def apply_mode(
    mode: str,
    skel: SkeletonDefinition,
    poses: np.ndarray,
    fps: float,
    pixels: np.ndarray | None = None,
    camera: Camera | None = None,
    calib: CalibrationSet | None = None,
    imu: ImuStream | None = None,
    energy: EnergyConfig | None = None,
    solver: SolverSettings | None = None,
) -> tuple[np.ndarray, RefineStats | None]:
    """In-memory form of the run command; returns (refined poses, solver stats).

    sf2 and rtof read one SequenceObservations of the calibrated IMU stream:
    sf2 gates on its sensor-predicted bones, and rtof's bone term reads the
    same bones. With no active inertial term (always in rto), each joint is
    independent and the input poses go through visual_minimum, or come back
    unchanged if k_visual is 0 too. rtof's solve starts from the input poses
    too. Stats are None whenever the optimizer does not run.

    The raw IMU stream and the calibrated rotations, which nothing after the
    calibration reads, are released before sf2 or the solve starts, as far
    as this function holds them; run_pipeline holds no other reference.
    """
    energy = energy if energy is not None else EnergyConfig()
    solver = solver if solver is not None else SolverSettings()
    poses = np.asarray(poses, dtype=float)
    seq_obs = _observations(mode, skel, poses, fps, pixels, camera, calib, imu, energy)
    del imu
    return _refine(mode, skel, poses, pixels, camera, seq_obs, energy, solver)


def _observations(mode: str, skel: SkeletonDefinition, poses: np.ndarray, fps: float,
                  pixels: np.ndarray | None, camera: Camera | None, calib: CalibrationSet | None,
                  imu: ImuStream | None, energy: EnergyConfig) -> SequenceObservations | None:
    """Check the streams `mode` reads against the poses, then calibrate the
    IMU stream into the observations sf2 and rtof read (None in the other
    modes), keeping none of the raw stream and none of the rotations."""
    given = {"pose2d": pixels, "camera": camera, "calibration": calib, "imu": imu}
    _mode_requirements(mode, {name for name, value in given.items() if value is not None},
                       energy)
    if poses.ndim != 3 or poses.shape[1:] != (skel.joint_count, 3):
        raise DataError(f"pose stream shape {poses.shape} does not match "
                        f"(T, {skel.joint_count}, 3) of the {skel.joint_count}-joint skeleton")
    if mode in ("rto", "rtof"):
        if pixels.ndim != 3 or pixels.shape[2] != 2:
            raise DataError(f"2D stream shape {pixels.shape} is not (T, J, 2)")
        if pixels.shape[0] != poses.shape[0]:
            raise DataError(
                f"2D stream has {pixels.shape[0]} frames, pose stream {poses.shape[0]}")
        if pixels.shape[1] != skel.joint_count:
            raise DataError(
                f"2D stream has {pixels.shape[1]} joints, skeleton {skel.joint_count}")
    if mode not in ("sf2", "rtof"):
        return None
    if mode == "sf2":  # the observations carry no stream sf2 does not read
        pixels = camera = None
    if imu.frame_count != poses.shape[0]:
        raise DataError(
            f"IMU stream has {imu.frame_count} frames, pose stream {poses.shape[0]}")
    accel, bones = calibrate_stream(calib, imu, skel)[1:]
    sensor_joints = calib.joint_indices(skel, imu.sensor_ids)
    return SequenceObservations(
        fps=fps, pixels=pixels, camera=camera, accel=accel, bones=bones,
        sensor_joints=sensor_joints, sensor_parents=np.array(skel.parents)[sensor_joints])


def _refine(mode: str, skel: SkeletonDefinition, poses: np.ndarray, pixels: np.ndarray | None,
            camera: Camera | None, seq_obs: SequenceObservations | None, energy: EnergyConfig,
            solver: SolverSettings) -> tuple[np.ndarray, RefineStats | None]:
    """apply_mode's work once _observations has checked the streams and
    built `seq_obs`."""
    if mode == "baseline":
        return poses.copy(), None
    if mode == "sf2":
        return refine_sequence(skel, poses, seq_obs, energy.theta_t), None
    if mode == "rto" or not energy.inertial_active:  # rto is the visual-only ablation
        if energy.k_visual == 0.0:
            return poses.copy(), None
        return visual_minimum(poses, pixels, camera), None
    return refine_batch(poses, seq_obs, energy, solver)


# The JSON values each option annotation takes, and how a message names them.
_OPTION_KINDS = {
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a finite number"),
    "float | np.ndarray": ((int, float, np.ndarray), "a finite number or a list of them"),
    "bool": ((bool,), "true or false"),
}


def _is_kind(value, types: tuple[type, ...]) -> bool:
    if isinstance(value, bool):  # an int to Python, but not a JSON number
        return bool in types
    if float in types and isinstance(value, (int, float)):
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(value, types)


def _build_from_dict(cls, data, what: str, internal: tuple[str, ...] = ()):
    """Build `cls` from a JSON object; fields named in `internal` are not options.

    An option whose annotation is in _OPTION_KINDS must hold a value of that
    kind; the others are sections, built by the caller.
    """
    if not isinstance(data, dict):
        raise ConfigError(
            f"{what} options must be a JSON object, got {json.dumps(data, default=str)}")
    allowed = {f.name for f in dataclasses.fields(cls)} - set(internal)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} option(s): {', '.join(sorted(unknown))}")
    for f in dataclasses.fields(cls):
        types, kind = _OPTION_KINDS.get(f.type, ((object,), ""))
        if f.name in data and not _is_kind(data[f.name], types):
            value = json.dumps(data[f.name], default=str)
            raise ConfigError(f"{what} option {f.name} must be {kind}, got {value}")
    try:
        return cls(**data)
    except ConfigError:  # RunConfig's own checks; keep their category
        raise
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: duration * fps overflows
        raise ConfigError(f"bad {what} options: {e}") from None


def _read_json_object(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(str(e)) from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


@dataclass(frozen=True)
class RunConfig:
    """One run of the pipeline; paths are absolute after from_file.

    JSON layout mirrors the fields: {"mode": "rtof", "fps": 25,
    "skeleton": "...", "pose3d": "...", "pose2d": "...", "camera": "...",
    "calibration": "...", "imu": "...", "truth": "...",
    "energy": {...}, "solver": {...}, "per_second_metrics": true}.
    Relative paths resolve against the config file's directory.
    """

    mode: str
    skeleton: str
    pose3d: str
    fps: float = 25.0
    pose2d: str | None = None
    camera: str | None = None
    calibration: str | None = None
    imu: str | None = None
    truth: str | None = None
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    solver: SolverSettings = field(default_factory=SolverSettings)
    per_second_metrics: bool = True

    def __post_init__(self):
        if not is_finite_positive(self.fps):
            raise ConfigError(f"fps must be a finite positive number, got {self.fps!r}")
        _mode_requirements(
            self.mode, {name for name in _VISUAL + _INERTIAL if getattr(self, name) is not None},
            self.energy)

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | str = ".") -> "RunConfig":
        base = Path(base_dir)
        data = dict(data)
        for key in ("skeleton", "pose3d") + _VISUAL + _INERTIAL + ("truth",):
            if isinstance(data.get(key), str):  # other values are refused below
                data[key] = str(base / data[key])
        if "energy" in data:
            # scales replaces the stream variances of every evaluation, the
            # solver's included; it is set through the API, not the file
            data["energy"] = _build_from_dict(EnergyConfig, data["energy"], "energy", ("scales",))
        if "solver" in data:
            data["solver"] = _build_from_dict(SolverSettings, data["solver"], "solver")
        return _build_from_dict(cls, data, "config")

    @classmethod
    def from_file(cls, path, **overrides) -> "RunConfig":
        """The file's config with `overrides` in place of its fields, checked as one."""
        path = Path(path)
        return cls.from_dict({**_read_json_object(path), **overrides}, path.parent)


@dataclass(frozen=True)
class RunResult:
    mode: str
    output: np.ndarray
    report: MetricReport | None
    stats: RefineStats | None
    joint_names: tuple[str, ...]


def run_pipeline(config: RunConfig) -> RunResult:
    """Load the streams the mode reads, apply it, evaluate against truth if given.

    A configured stream the mode does not read (MODE_STREAMS) is not opened.
    """
    used = MODE_STREAMS[config.mode]

    def load(name, reader):
        return reader(getattr(config, name)) if name in used else None

    skel = read_skeleton(config.skeleton)
    poses = read_pose3d(config.pose3d)
    pixels = load("pose2d", read_pose2d)
    camera = load("camera", read_camera)
    calib = load("calibration", read_calibration)
    imu = load("imu", read_imu)
    truth = read_pose3d(config.truth) if config.truth else None
    if truth is not None:  # check before solving: every mode outputs this shape
        out_shape = (poses.shape[0], skel.joint_count, 3)
        if truth.shape != out_shape:
            raise DataError(f"truth shape {truth.shape} does not match output {out_shape}")
        if truth.shape[0] < REPORT_MIN_FRAMES:
            raise DataError(
                f"truth stream has {truth.shape[0]} frame(s); the metric report needs "
                f"at least {REPORT_MIN_FRAMES}")

    # apply_mode's two steps, so that this frame's reference to the raw IMU
    # stream goes before the solve starts.
    seq_obs = _observations(config.mode, skel, poses, config.fps, pixels, camera, calib, imu,
                            config.energy)
    del imu
    output, stats = _refine(config.mode, skel, poses, pixels, camera, seq_obs, config.energy,
                            config.solver)

    report = None
    if truth is not None:
        report = evaluate(output, truth, config.fps, config.per_second_metrics)

    return RunResult(config.mode, output, report, stats, skel.names)


def write_results(result: RunResult, out_dir) -> list[str]:
    """Write refined stream and, when available, metric reports. Returns names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = ["refined_pose3d.txt"]
    write_pose3d(out / "refined_pose3d.txt", result.output)
    if result.report is not None:
        (out / "metrics.txt").write_text(
            result.report.format_text(list(result.joint_names)) + "\n", encoding="utf-8")
        (out / "metrics.json").write_text(result.report.to_json() + "\n", encoding="utf-8")
        written += ["metrics.txt", "metrics.json"]
    return written


# -- synthetic dataset generation ---------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synth command; noise accepts the NoiseSpec field names."""

    seed: int = 0
    duration: float = 60.0
    fps: float = 25.0
    script_seed: int = 7
    noise: NoiseSpec = field(default_factory=lambda: DEFAULT_NOISE)

    def __post_init__(self):
        for name in ("seed", "script_seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ConfigError(f"synth option {name} must be non-negative, got {value}")
        try:
            check_length(self.duration, self.fps)  # MotionScript's check
        except ValueError as err:
            raise ConfigError(str(err)) from None
        joints = len(DEFAULT_JOINT_NAMES)
        for name in ("sigma_depth", "occlusion"):
            shape = np.shape(getattr(self.noise, name))
            if shape not in ((), (joints,)):
                raise ConfigError(f"noise option {name} must be a number or a list of {joints} "
                                  f"numbers, one per joint, got a list of {shape[0]}")
        # The written run_config.json names the truth, so its run needs enough
        # frames for the metric report.
        frames = int(round(self.duration * self.fps))
        if frames < REPORT_MIN_FRAMES:
            raise ConfigError(
                f"{self.duration} s at {self.fps} fps gives {frames} frame(s); "
                f"need at least {REPORT_MIN_FRAMES}")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthConfig":
        data = dict(data)
        if "noise" in data:
            noise = data["noise"]
            if isinstance(noise, dict):
                noise = dict(noise)
                for key in ("sigma_depth", "occlusion"):
                    value = noise.get(key)
                    if isinstance(value, list) and all(_is_kind(v, (int, float)) for v in value):
                        noise[key] = np.asarray(value, dtype=float)
            data["noise"] = _build_from_dict(NoiseSpec, noise, "noise")
        return _build_from_dict(cls, data, "synth")

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        return cls.from_dict(_read_json_object(Path(path)))


def generate_dataset(config: SynthConfig) -> SyntheticDataset:
    script = default_script(config.duration, config.fps, config.script_seed)
    return make_dataset(config.noise, seed=config.seed, script=script)


def _noise_record(noise: NoiseSpec) -> dict:
    rec = {}
    for f in dataclasses.fields(noise):
        v = getattr(noise, f.name)
        rec[f.name] = v.tolist() if isinstance(v, np.ndarray) else float(v)
    return rec


DATASET_FILES = {
    "skeleton": "skeleton.txt",
    "calibration": "calibration.txt",
    "camera": "camera.txt",
    "truth": "truth_pose3d.txt",
    "pose3d": "input_pose3d.txt",
    "pose2d": "pose2d.txt",
    "imu": "imu.txt",
}


def write_dataset(ds: SyntheticDataset, out_dir) -> dict:
    """Write every stream plus manifest.json and a ready-to-run rtof config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_skeleton(out / DATASET_FILES["skeleton"], ds.skeleton)
    write_calibration(out / DATASET_FILES["calibration"], ds.calibration)
    write_camera(out / DATASET_FILES["camera"], ds.camera)
    write_pose3d(out / DATASET_FILES["truth"], ds.truth)
    write_pose3d(out / DATASET_FILES["pose3d"], ds.inputs)
    write_pose2d(out / DATASET_FILES["pose2d"], ds.pixels)
    write_imu(out / DATASET_FILES["imu"], ds.imu)
    manifest = {
        "frames": ds.frame_count,
        "fps": ds.fps,
        "joints": ds.skeleton.joint_count,
        "sensors": len(ds.calibration.sensors),
        "seed": ds.seed,
        "noise": _noise_record(ds.noise),
        "files": dict(DATASET_FILES),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    run_config = {
        "mode": "rtof",
        "fps": ds.fps,
        "skeleton": DATASET_FILES["skeleton"],
        "calibration": DATASET_FILES["calibration"],
        "camera": DATASET_FILES["camera"],
        "pose3d": DATASET_FILES["pose3d"],
        "pose2d": DATASET_FILES["pose2d"],
        "imu": DATASET_FILES["imu"],
        "truth": DATASET_FILES["truth"],
    }
    (out / "run_config.json").write_text(json.dumps(run_config, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return manifest
