"""vifuse: visual-inertial refinement of lifted 3D human pose sequences.

Lifted per-frame 3D poses are fused with sparse IMU readings in two stages:
a per-frame IMU-gated inverse kinematics pass, then overlapping-window
optimization of a hybrid reprojection/inertial/smoothness energy.
"""

from .camera import W_MIN, BehindCameraError, Camera, look_at
from .energy import (
    DEFAULT_ACCEL_WEIGHT,
    DEFAULT_BONE_WEIGHT,
    DEFAULT_FRAGMENT_LEN,
    DEFAULT_INERTIAL_WEIGHT,
    DEFAULT_SMOOTH_WEIGHT,
    DEFAULT_THETA_T,
    DEFAULT_VISUAL_WEIGHT,
    SCALE_FLOOR,
    EnergyConfig,
    Fragment,
    MissingObservationError,
    Observations,
    TermScales,
    TermValue,
    accel_energy,
    bone_energy,
    smooth_energy,
    term_scales,
    total_energy,
    visual_energy,
    visual_minimum,
)
from .fileio import (
    FormatError,
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
from .imu import (
    DEFAULT_GRAVITY,
    CalibrationSet,
    ImuStream,
    SensorCalibration,
    calibrate_stream,
)
from .metrics import (
    LengthMismatchError,
    MetricReport,
    TooShortError,
    evaluate,
    mpjae,
    mpjje,
    mpjpe,
    per_joint_mpjae,
    per_joint_mpjje,
    per_joint_mpjpe,
)
from .optimizer import (
    FragmentResult,
    FragmentSchedule,
    RefineStats,
    SequenceObservations,
    SolverSettings,
    StreamingRefiner,
    merge_fragments,
    minimize_fragment,
    refine_batch,
    run_stream,
)
from .pipeline import (
    DEFAULT_NOISE,
    MODES,
    ConfigError,
    DataError,
    MissingInputError,
    RunConfig,
    RunResult,
    SynthConfig,
    apply_mode,
    generate_dataset,
    run_pipeline,
    write_dataset,
    write_results,
)
from .rotmath import ZeroVectorError, angle_between, solve_rotation
from .skeleton import (
    DegenerateBoneError,
    MotionParams,
    SkeletonDefinition,
    TopologyError,
    UnboundJointError,
    forward_kinematics,
    global_rotations,
    igik,
    inverse_kinematics,
    refine_sequence,
)
from .synth import (
    DEFAULT_JOINT_NAMES,
    DEFAULT_PARENTS,
    DEFAULT_SENSOR_SITES,
    DEFAULT_TPOSE,
    JointTrack,
    MotionScript,
    NoiseSpec,
    Sinusoid,
    SyntheticDataset,
    TranslationWave,
    corrupt_imu,
    corrupt_pixels,
    corrupt_poses,
    default_calibration,
    default_camera,
    default_script,
    default_skeleton,
    derive_imu,
    finite_acceleration,
    generate_truth,
    make_dataset,
    project_sequence,
)

__version__ = "0.1.0"
