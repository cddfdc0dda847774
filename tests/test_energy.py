from dataclasses import replace

import numpy as np
import pytest

from vifuse import (
    DEFAULT_NOISE,
    Camera,
    EnergyConfig,
    Fragment,
    MissingObservationError,
    Observations,
    SCALE_FLOOR,
    TermScales,
    W_MIN,
    accel_energy,
    bone_energy,
    calibrate_stream,
    default_script,
    make_dataset,
    smooth_energy,
    term_scales,
    total_energy,
    look_at,
    visual_energy,
    visual_minimum,
)
from vifuse import energy
from vifuse.rotmath import IDENTITY

from conftest import fd_gradient, max_rel_err
from test_camera import identity_camera


def test_rig_maps_are_shared_and_read_only(rng):
    _, obs = random_setup(rng)  # sensors on joints 2 and 3, parents 1 and 0
    a = energy.WindowStack(obs, np.arange(6)[None], (6, 4, 3), 5.0)
    b = energy.WindowStack(obs, np.arange(6).reshape(2, 3), (6, 4, 3), 5.0)
    assert a.rig.gather is b.rig.gather and a.rig.scatter is b.rig.scatter
    assert not a.rig.gather.flags.writeable and not a.rig.scatter.flags.writeable
    np.testing.assert_array_equal(a.rig.gather, [6, 7, 8, 9, 10, 11, 3, 4, 5, 0, 1, 2])
    np.testing.assert_array_equal(a.rig.scatter, np.eye(12)[a.rig.gather])
    _, other = random_setup(rng, sensor_joints=(1,), sensor_parents=(0,))
    c = energy.WindowStack(other, np.arange(6)[None], (6, 4, 3), 5.0)
    np.testing.assert_array_equal(c.rig.gather, [3, 4, 5, 0, 1, 2])
    assert c.rig.scatter.shape == (6, 12)


@pytest.mark.parametrize("joints, parents", [((3, 1), (4, 0)), ((2, 3), (1, 1)), ((1, 2, 4), (0, 1, 2))])
def test_chain_laplacians_are_the_sum_of_each_sensors_bone(joints, parents):
    # L = sum of e e^T with e = e_joint - e_parent over a chain's sensors.
    for ch in energy._rig_layout(joints, parents, 5).chains:
        for sensor, parent_only, joint_bones, cross, parent_bones in zip(
                ch.joints, ch.parents, ch.joint_bones, ch.cross_bones, ch.parent_bones):
            order = [*sensor.tolist(), *parent_only.tolist()]
            want = np.zeros((len(order), len(order)))
            for j, p in zip(joints, parents):
                if j in order:
                    e = np.array([(o == j) - (o == p) for o in order], dtype=float)
                    want += np.outer(e, e)
            m = len(sensor)
            np.testing.assert_array_equal(joint_bones, np.kron(want[:m, :m], np.eye(3)))
            np.testing.assert_array_equal(cross, want[:m, m:])
            np.testing.assert_array_equal(parent_bones, np.diagonal(want[m:, m:]))


def x_fragment(coords, fps=1.0):
    """Two-joint fragment: joint 0 at the origin, joint 1 with x coordinates `coords`."""
    pos = np.zeros((len(coords), 2, 3))
    pos[:, 1, 0] = coords
    return Fragment(pos, fps)


def single_sensor_obs(**kw):
    """Observations of one sensor, on joint 1 of an x_fragment with parent 0."""
    kw.setdefault("sensor_joints", np.array([1]))
    kw.setdefault("sensor_parents", np.array([0]))
    return Observations(**kw)


def random_setup(rng, n=6, j=4, fps=5.0, sensor_joints=(2, 3), sensor_parents=(1, 0)):
    frag = Fragment(rng.uniform(-50.0, 50.0, (n, j, 3)), fps)
    cam = Camera(30.0, 32.0, 5.0, -3.0, IDENTITY, [0.0, 0.0, -400.0])
    k = len(sensor_joints)
    obs = Observations(
        pixels=rng.uniform(-10.0, 10.0, (n, j, 2)),
        camera=cam,
        accel=rng.uniform(-100.0, 100.0, (n, k, 3)),
        bones=rng.uniform(-30.0, 30.0, (n, k, 3)),
        sensor_joints=np.array(sensor_joints),
        sensor_parents=np.array(sensor_parents),
    )
    return frag, obs


def reshape_fun(term, frag, obs):
    shape = frag.positions.shape

    def fun(x):
        return term(Fragment(x.reshape(shape), frag.fps, frag.start), obs).value

    return fun


def test_fragment_validation():
    with pytest.raises(ValueError):
        Fragment(np.zeros((2, 1, 3)), 25.0)
    with pytest.raises(ValueError):
        Fragment(np.zeros((4, 1, 2)), 25.0)
    with pytest.raises(ValueError):
        Fragment(np.zeros((4, 1, 3)), 0.0)


def test_visual_frozen_value_and_grad():
    pos = np.zeros((3, 1, 3))
    pos[:, 0] = [1.0, 0.0, 1.0]
    frag = Fragment(pos, 1.0)
    obs = Observations(pixels=np.zeros((3, 1, 2)), camera=identity_camera())
    tv = visual_energy(frag, obs)
    assert tv.value == pytest.approx(3.0, abs=1e-12)
    assert tv.behind_camera == 0
    np.testing.assert_allclose(tv.grad[:, 0], [[2.0, 0.0, -2.0]] * 3, atol=1e-12)


def test_visual_nan_rows_contribute_nothing():
    pos = np.zeros((3, 1, 3))
    pos[:, 0] = [1.0, 0.0, 1.0]
    frag = Fragment(pos, 1.0)
    px = np.zeros((3, 1, 2))
    px[1] = np.nan
    tv = visual_energy(frag, Observations(pixels=px, camera=identity_camera()))
    assert tv.value == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_array_equal(tv.grad[1], 0.0)


def test_visual_behind_camera_skipped_and_counted():
    pos = np.zeros((3, 1, 3))
    pos[:, 0] = [1.0, 0.0, 1.0]
    pos[2, 0, 2] = -1.0
    frag = Fragment(pos, 1.0)
    tv = visual_energy(frag, Observations(pixels=np.zeros((3, 1, 2)), camera=identity_camera()))
    assert tv.value == pytest.approx(2.0, abs=1e-12)
    assert tv.behind_camera == 1
    np.testing.assert_array_equal(tv.grad[2], 0.0)


def ray_setup(rng, n=5, j=6):
    """A rotated camera, noisy detections of random points and starts off them."""
    cam = look_at([300.0, -200.0, -2500.0], [0.0, 0.0, 0.0], 1100.0, 1050.0, 640.0, 360.0)
    truth = rng.uniform(-400.0, 400.0, (n, j, 3))
    pixels = cam.project(truth) + rng.normal(0.0, 3.0, (n, j, 2))
    start = truth + rng.normal(0.0, 40.0, (n, j, 3))
    return cam, start, pixels


def test_visual_minimum_reprojects_onto_detections(rng):
    cam, start, pixels = ray_setup(rng)
    out = visual_minimum(start, pixels, cam)
    np.testing.assert_allclose(cam.project(out), pixels, rtol=0.0, atol=1e-6)


def test_visual_minimum_is_orthogonal_projection(rng):
    cam, start, pixels = ray_setup(rng)
    out = visual_minimum(start, pixels, cam)
    # Ray directions from the 3x4 projection, independent of the camera's quaternion.
    m = cam.matrix[:, :3]
    homogeneous = np.concatenate([pixels, np.ones(pixels.shape[:-1] + (1,))], axis=-1)
    ray = np.linalg.solve(m, homogeneous.reshape(-1, 3).T).T.reshape(start.shape)
    step = out - start
    cos = np.einsum("...i,...i->...", step, ray) / (
        np.linalg.norm(step, axis=-1) * np.linalg.norm(ray, axis=-1))
    assert np.abs(cos).max() <= 1e-9
    on_ray = np.cross(out - cam.center, ray)
    assert (np.linalg.norm(on_ray, axis=-1)
            <= 1e-9 * np.linalg.norm(out - cam.center, axis=-1) * np.linalg.norm(ray, axis=-1)).all()


def test_visual_minimum_zeroes_the_visual_term(rng):
    cam, start, pixels = ray_setup(rng)
    obs = Observations(pixels=pixels, camera=cam)
    assert visual_energy(Fragment(start, 5.0), obs).value > 1.0
    tv = visual_energy(Fragment(visual_minimum(start, pixels, cam), 5.0), obs)
    assert tv.value <= 1e-18
    assert np.abs(tv.grad).max() <= 1e-9


def test_visual_minimum_keeps_unprojectable_joints():
    cam = identity_camera()
    start = np.array([[
        [0.3, 0.2, 5.0],     # missing pixel
        [0.3, 0.2, -5.0],    # start behind the camera
        [0.3, 0.2, W_MIN],   # start on the guard plane
        [1000.0, 0.0, 10.0],  # in front, but its ray points the other way
        [0.3, 0.2, 5.0],     # projects normally
    ]])
    pixels = np.array([[[np.nan, np.nan], [0.1, 0.1], [0.1, 0.1], [-1.0, 0.0], [0.1, 0.1]]])
    out = visual_minimum(start, pixels, cam)
    assert out[0, :4].tobytes() == start[0, :4].tobytes()
    np.testing.assert_allclose(out[0, 4, :2] / out[0, 4, 2], [0.1, 0.1], rtol=1e-12)
    assert not np.array_equal(out[0, 4], start[0, 4])


def test_visual_requires_obs():
    frag = x_fragment([0.0, 1.0, 2.0])
    with pytest.raises(MissingObservationError):
        visual_energy(frag, Observations())
    with pytest.raises(ValueError):
        visual_energy(
            frag, Observations(pixels=np.zeros((2, 2, 2)), camera=identity_camera())
        )


def test_check_with_a_camera_refuses_pixels_of_another_joint_count():
    obs = Observations(pixels=np.zeros((4, 2, 2)), camera=identity_camera())
    obs.check((4, 2, 3))
    for joints in (1, 3):
        with pytest.raises(ValueError, match="^2D observations disagree with fragment joint count$"):
            obs.check((4, joints, 3))


def test_accel_frozen_value_and_grad():
    frag = x_fragment([0.0, 0.0, 6.0])
    accel = np.zeros((3, 1, 3))
    accel[1, 0, 0] = 2.0
    ta = accel_energy(frag, single_sensor_obs(accel=accel))
    assert ta.value == pytest.approx(16.0, abs=1e-12)
    np.testing.assert_allclose(ta.grad[:, 1, 0], [8.0, -16.0, 8.0], atol=1e-12)
    np.testing.assert_array_equal(ta.grad[:, 1, 1:], 0.0)
    np.testing.assert_array_equal(ta.grad[:, 0], 0.0)  # the parent has no accelerometer


def test_accel_scales_with_fps():
    frag1 = x_fragment([0.0, 0.0, 6.0], fps=1.0)
    frag2 = x_fragment([0.0, 0.0, 6.0], fps=2.0)
    zero = np.zeros((3, 1, 3))
    v1 = accel_energy(frag1, single_sensor_obs(accel=zero)).value
    v2 = accel_energy(frag2, single_sensor_obs(accel=zero)).value
    assert v2 == pytest.approx(16.0 * v1, rel=1e-12)


def test_bone_frozen_value_and_grad():
    pos = np.zeros((3, 2, 3))
    pos[:, 1, 1] = 100.0
    frag = Fragment(pos, 25.0)
    bones = np.zeros((3, 1, 3))
    bones[:, 0, 1] = 90.0
    tb = bone_energy(
        frag,
        Observations(bones=bones, sensor_joints=np.array([1]), sensor_parents=np.array([0])),
    )
    assert tb.value == pytest.approx(300.0, abs=1e-9)
    np.testing.assert_allclose(tb.grad[:, 1], [[0.0, 20.0, 0.0]] * 3, atol=1e-12)
    np.testing.assert_allclose(tb.grad[:, 0], [[0.0, -20.0, 0.0]] * 3, atol=1e-12)


def test_smooth_frozen_value_and_grad():
    frag = x_fragment([0.0, 0.0, 0.0, 6.0])
    ts = smooth_energy(frag, single_sensor_obs(accel=np.zeros((4, 1, 3))))
    assert ts.value == pytest.approx(36.0, abs=1e-12)
    np.testing.assert_allclose(ts.grad[:, 1, 0], [-12.0, 36.0, -36.0, 12.0], atol=1e-12)
    np.testing.assert_array_equal(ts.grad[:, 0], 0.0)


def test_smooth_needs_four_frames():
    frag = x_fragment([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^smoothness term needs at least 4 frames, got 3$"):
        smooth_energy(frag, single_sensor_obs(accel=np.zeros((3, 1, 3))))


def test_inertial_terms_require_accel():
    frag = x_fragment([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(MissingObservationError):
        accel_energy(frag, Observations())
    with pytest.raises(MissingObservationError):
        smooth_energy(frag, Observations())
    with pytest.raises(MissingObservationError):
        bone_energy(frag, Observations())


@pytest.mark.parametrize("term", [visual_energy, accel_energy, bone_energy, smooth_energy])
def test_term_gradients_match_finite_differences(rng, term):
    frag, obs = random_setup(rng)
    analytic = term(frag, obs).grad
    numeric = fd_gradient(reshape_fun(term, frag, obs), frag.positions.ravel())
    assert max_rel_err(analytic, numeric.reshape(analytic.shape)) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        EnergyConfig(k_visual=-0.1)
    with pytest.raises(ValueError):
        EnergyConfig(k_visual=0.0, k_inertial=0.0)
    with pytest.raises(ValueError):
        EnergyConfig(theta_t=4.0)
    with pytest.raises(ValueError):
        EnergyConfig(fragment_len=7)
    with pytest.raises(ValueError):
        EnergyConfig(fragment_len=2)
    EnergyConfig(k_visual=0.0, k_inertial=1.0)  # inertial-only is fine


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("field, message", [
    ("k_visual", "k_visual must be finite and non-negative"),
    ("k_inertial", "k_inertial must be finite and non-negative"),
    ("k_accel", "k_accel must be finite and non-negative"),
    ("k_bone", "k_bone must be finite and non-negative"),
    ("k_smooth", "k_smooth must be finite and non-negative"),
    ("theta_t", r"theta_t must lie in \[0, pi\]"),
])
def test_config_refuses_a_bool_for_a_number(field, message, value):
    # A bool is an int to Python, so True read as a weight of 1.
    with pytest.raises(ValueError, match=rf"^{message}, got {value}$"):
        EnergyConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("term", TermScales._fields)
def test_config_refuses_a_scale_that_is_not_a_finite_positive_number(term, value):
    # Such a scale made total_energy NaN, negative or infinite.
    with pytest.raises(ValueError, match=rf"^scales\.{term} must be a finite positive number"):
        EnergyConfig(scales=TermScales(**{term: value}))
    assert EnergyConfig(scales=TermScales(**{term: SCALE_FLOOR})).scales == TermScales(
        **{term: SCALE_FLOOR})


def test_term_scales_active_and_floor(rng):
    frag, obs = random_setup(rng)
    scales = term_scales(frag, obs, EnergyConfig())
    assert scales.visual == pytest.approx(visual_energy(frag, obs).value)
    assert scales.accel == pytest.approx(accel_energy(frag, obs).value)
    # visual-only config leaves inertial scales at 1
    sv = term_scales(frag, obs, EnergyConfig(k_inertial=0.0))
    assert (sv.accel, sv.bone, sv.smooth) == (1.0, 1.0, 1.0)
    # a term that is exactly zero at the initial point clamps to the floor
    still = Fragment(np.zeros((4, 2, 3)) + 7.0, 2.0)
    quiet = single_sensor_obs(accel=np.zeros((4, 1, 3)), bones=np.zeros((4, 1, 3)))
    sz = term_scales(still, quiet, EnergyConfig(k_visual=0.0))
    assert sz.accel == SCALE_FLOOR
    assert sz.bone == SCALE_FLOOR
    assert sz.smooth == SCALE_FLOOR


def stream_variances(fps):
    """The default denominators as the energy module states them: 1 px^2,
    (1000 mm/s^2)^2, (2.8 mm)^2 and 2 (fps 40 mm/s^2)^2."""
    return TermScales(1.0, 1000.0 ** 2, 2.8 ** 2, 2.0 * (fps * 40.0) ** 2)


@pytest.mark.parametrize("fps", [5.0, 25.0])
def test_total_divides_each_term_by_its_stream_variance(rng, fps):
    frag, obs = random_setup(rng, fps=fps)
    tv = total_energy(frag, obs, EnergyConfig())
    variances = stream_variances(fps)
    want = sum(v / s for v, s in zip(reference_values(frag, obs), variances))
    assert tv.value == pytest.approx(want, rel=1e-12)
    assert tv.scales == pytest.approx(variances, rel=1e-15)


def test_total_matches_weighted_sum(rng):
    frag, obs = random_setup(rng)
    cfg = EnergyConfig(k_visual=0.7, k_inertial=0.3, k_accel=0.4, k_bone=0.25, k_smooth=0.35)
    frozen = cfg.with_scales(frag, obs)
    moved = Fragment(frag.positions + rng.uniform(-5, 5, frag.positions.shape), frag.fps)
    tv = total_energy(moved, obs, frozen)
    s = frozen.scales
    want = (
        0.7 * visual_energy(moved, obs).value / s.visual
        + 0.3 * 0.4 * accel_energy(moved, obs).value / s.accel
        + 0.3 * 0.25 * bone_energy(moved, obs).value / s.bone
        + 0.3 * 0.35 * smooth_energy(moved, obs).value / s.smooth
    )
    assert tv.value == pytest.approx(want, rel=1e-12)


def reference_values(frag, obs):
    """Each term's value by plain loops over the residual definitions of the
    energy module's docstring; a term without its observations reads 0."""
    x, fps = frag.positions, frag.fps
    n, j, _ = x.shape
    res = {"visual": [], "accel": [], "bone": [], "smooth": []}
    if obs.pixels is not None:
        p = obs.camera.matrix
        for t in range(n):
            for i in range(j):
                q = obs.pixels[t, i]
                u, v, w = p @ np.append(x[t, i], 1.0)
                if np.all(np.isfinite(q)) and w > W_MIN:
                    res["visual"].append([u / w - q[0], v / w - q[1]])
    sensors = list(zip(obs.sensor_joints, obs.sensor_parents))
    if obs.accel is not None:
        def acc(t, s):
            return fps * fps * (x[t + 1, s] - 2.0 * x[t, s] + x[t - 1, s])

        for k, (s, _) in enumerate(sensors):
            for t in range(1, n - 1):
                res["accel"].append(acc(t, s) - obs.accel[t, k])
            for t in range(1, n - 2):
                res["smooth"].append(fps * (acc(t + 1, s) - acc(t, s))
                                     - fps * (obs.accel[t + 1, k] - obs.accel[t, k]))
    if obs.bones is not None:
        for k, (s, par) in enumerate(sensors):
            for t in range(n):
                res["bone"].append(x[t, s] - x[t, par] - obs.bones[t, k])
    return TermScales(*(float(np.sum(np.square(res[name]))) for name in TermScales._fields))


def reference_case(rng, case):
    kw = {"shared_parent": {"sensor_joints": (2, 3), "sensor_parents": (1, 1)}}.get(case, {})
    frag, obs = random_setup(rng, **kw)
    cfg = EnergyConfig(k_visual=0.7, k_inertial=0.3, k_accel=0.4, k_bone=0.25, k_smooth=0.35)
    if case == "nan_pixel_rows":
        px = obs.pixels.copy()
        px[1] = np.nan
        px[4, 2] = np.nan
        obs = replace(obs, pixels=px)
    elif case == "behind_camera":
        pos = frag.positions.copy()
        pos[2, 1, 2] = -1000.0  # behind the test camera at z=-400
        frag = Fragment(pos, frag.fps)
    elif case == "visual_only":
        obs = Observations(pixels=obs.pixels, camera=obs.camera)
        cfg = replace(cfg, k_inertial=0.0)
    elif case == "inertial_only":
        obs = replace(obs, pixels=None, camera=None)
        cfg = replace(cfg, k_visual=0.0)
    return frag, obs, cfg


@pytest.mark.parametrize("case", ["full", "nan_pixel_rows", "behind_camera", "shared_parent",
                                  "visual_only", "inertial_only"])
def test_total_matches_reference(rng, case):
    frag, obs, cfg = reference_case(rng, case)
    weights = (cfg.k_visual, cfg.k_inertial * cfg.k_accel, cfg.k_inertial * cfg.k_bone,
               cfg.k_inertial * cfg.k_smooth)
    scales = TermScales(*(max(v, SCALE_FLOOR) for v in reference_values(frag, obs)))
    frozen = replace(cfg, scales=scales)
    moved = Fragment(frag.positions + rng.uniform(-3, 3, frag.positions.shape), frag.fps)
    want = sum(k * v / s for k, v, s in zip(weights, reference_values(moved, obs), scales) if k > 0.0)
    tv = total_energy(moved, obs, frozen)
    assert tv.value == pytest.approx(want, rel=1e-12)
    assert tv.behind_camera == (1 if case == "behind_camera" else 0)

    def fun(x):
        return total_energy(Fragment(x.reshape(moved.positions.shape), frag.fps), obs, frozen).value

    numeric = fd_gradient(fun, moved.positions.ravel())
    assert max_rel_err(tv.grad, numeric.reshape(tv.grad.shape)) < 1e-6


def test_total_without_scales_keeps_the_stream_variances_at_every_point(rng):
    # Without cfg.scales every point is divided by the same variances, so the
    # total is one objective; with_scales divides by the values at a point,
    # where each of the four unit-weight terms then reads 1.
    frag, obs = random_setup(rng)
    cfg = EnergyConfig()
    moved = Fragment(frag.positions + rng.uniform(-3, 3, frag.positions.shape), frag.fps)
    want = sum(v / s for v, s in zip(reference_values(moved, obs), stream_variances(frag.fps)))
    assert total_energy(moved, obs, cfg).value == pytest.approx(want, rel=1e-12)
    frozen = cfg.with_scales(frag, obs)
    assert total_energy(frag, obs, frozen).value == pytest.approx(4.0, rel=1e-12)
    assert total_energy(moved, obs, frozen).value != pytest.approx(4.0, rel=1e-6)


@pytest.mark.parametrize("name", ["pixels", "accel", "bones"])
def test_each_evaluation_reads_the_callers_streams(rng, name):
    # The observations keep the caller's arrays: no copy, and no window
    # constants kept from an earlier evaluation.
    frag, given = random_setup(rng)
    streams = {n: getattr(given, n).copy() for n in ("pixels", "accel", "bones")}
    rig = dict(camera=given.camera, sensor_joints=given.sensor_joints,
               sensor_parents=given.sensor_parents)
    obs = Observations(**streams, **rig)
    first = total_energy(frag, obs, EnergyConfig())
    streams[name][2] += 7.0
    second = total_energy(frag, obs, EnergyConfig())
    fresh = total_energy(frag, Observations(**{n: a.copy() for n, a in streams.items()}, **rig),
                         EnergyConfig())
    assert second.value != first.value
    assert second.grad.tobytes() != first.grad.tobytes()
    assert second.value == fresh.value and second.grad.tobytes() == fresh.grad.tobytes()


def test_stream_shapes_are_checked_where_the_observations_are_built():
    rig = dict(sensor_joints=[1, 2], sensor_parents=[0, 1])
    for name, bad in (("accel", np.zeros((4, 1, 3))), ("bones", np.zeros((4, 2, 2))),
                      ("accel", np.zeros((4, 6))), ("pixels", np.zeros((4, 3)))):
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            Observations(**{name: bad}, **rig)
    with pytest.raises(ValueError, match=r"accel must have shape \(T, 0, 3\)"):
        Observations(accel=np.zeros((4, 1, 3)))


@pytest.mark.parametrize("joints, parents, sensor", [
    ([1.7], [0.2], 0), ([1, 2.5], [0, 1], 1), ([1, 2], [0, 0.5], 1), ([np.nan], [0], 0),
    ([1e300], [0], 0), ([True], [False], 0), ([2, True], [1, 0], 1),
    (np.array([1.0, 2.0]), [0, 1], 0), ([2 ** 63], [0], 0)])
def test_non_integer_sensor_indices_are_refused(joints, parents, sensor):
    with pytest.raises(ValueError, match=f"sensor {sensor} is bound to joint .*must be integers"):
        Observations(sensor_joints=joints, sensor_parents=parents)


def test_visual_only_config_ignores_missing_imu(rng):
    frag, obs = random_setup(rng)
    bare = Observations(pixels=obs.pixels, camera=obs.camera)
    tv = total_energy(frag, bare, EnergyConfig(k_inertial=0.0, k_visual=1.0))
    want = reference_values(frag, bare).visual / stream_variances(frag.fps).visual
    assert tv.value == pytest.approx(want, rel=1e-12)


def test_total_propagates_behind_camera(rng):
    frag, obs = random_setup(rng)
    pos = frag.positions.copy()
    pos[0, 0, 2] = -1000.0  # behind the test camera at z=-400
    tv = total_energy(Fragment(pos, frag.fps), obs, EnergyConfig())
    assert tv.behind_camera >= 1


@pytest.mark.parametrize("t", [0.8, 1.25])
def test_total_is_flat_along_the_ray_of_a_visual_only_joint(t):
    # head has no sensor and no sensor child, so it enters only the visual
    # term, whose residual is unchanged along the line through the camera
    # center. A solver free to move it can slide it along that line.
    ds = make_dataset(DEFAULT_NOISE, seed=0, script=default_script(duration=2.0, fps=25.0))
    _, accel, bones = calibrate_stream(ds.calibration, ds.imu, ds.skeleton)
    sensors = ds.calibration.joint_indices(ds.skeleton, ds.imu.sensor_ids)
    parents = np.array(ds.skeleton.parents)[sensors]
    head = ds.skeleton.index_of("head")
    assert head not in sensors and head not in parents
    assert ds.inputs.shape[0] == EnergyConfig().fragment_len  # the capture is one window
    obs = Observations(ds.pixels, ds.camera, accel, bones, sensors, parents)
    frag = Fragment(ds.inputs, ds.fps)
    cfg = EnergyConfig().with_scales(frag, obs)  # scales frozen at the start
    before = total_energy(frag, obs, cfg)

    c = ds.camera.center
    moved = frag.positions.copy()
    moved[:, head] = c + t * (moved[:, head] - c)
    after = total_energy(Fragment(moved, ds.fps), obs, cfg)
    assert after.value == pytest.approx(before.value, rel=1e-12)
    for tv, x in ((before, frag.positions), (after, moved)):
        g, ray = tv.grad[:, head], x[:, head] - c
        assert np.abs(np.sum(g * ray, axis=1)).max() <= 1e-9 * np.abs(g).max() * np.abs(ray).max()
        assert np.abs(g).max() > 0.0  # the joint is seen: the check is not vacuous


def test_stack_energy_matches_each_window_alone(rng):
    # Three windows sharing a camera and a rig, one with a joint behind the camera.
    frags, observations = [], []
    for i in range(3):
        frag, obs = random_setup(rng)
        if observations:
            obs = replace(obs, camera=observations[0].camera)
        if i == 1:
            pos = frag.positions.copy()
            pos[2, 1, 2] = -500.0
            frag = Fragment(pos, frag.fps)
        frags.append(frag)
        observations.append(obs)
    cfg = EnergyConfig()
    # The windows' rows laid end to end in one source, gathered back as a stack.
    source = replace(observations[0], **{
        name: np.concatenate([getattr(o, name) for o in observations])
        for name in ("pixels", "accel", "bones")})
    rows = np.arange(18).reshape(3, 6)
    stack = energy.WindowStack(source, rows, (18, 4, 3), 5.0)
    x = np.stack([f.positions for f in frags])
    got = energy.stack_energy(x, stack, cfg)
    weight, temporal, bone = energy.normal_parts(cfg, 5.0, 6)
    assert list(got.behind_camera) == [0, 1, 0]
    # Every window shares the solve's term weights, temporal matrix and bone weight.
    assert got.weights.shape == (4,) and temporal.shape == (6, 6)
    assert (weight, bone) == (2.0 * got.weights[0], 2.0 * got.weights[2])
    assert not temporal.flags.writeable
    for i, (frag, obs) in enumerate(zip(frags, observations)):
        alone = total_energy(frag, obs, cfg)
        assert (got.value[i], got.behind_camera[i]) == (alone.value, alone.behind_camera)
        assert got.weights.tolist() == [1.0 / s for s in alone.scales]
        assert got.grad[i].tobytes() == alone.grad.tobytes()
        win = energy.WindowStack.of_window(frag, obs, cfg.active_terms)
        tv = energy.stack_energy(frag.positions[None], win, cfg)
        assert tv.weights is got.weights
        assert energy.normal_parts(cfg, frag.fps, frag.frame_count)[1] is temporal



def visual_blocks_of_every_joint(stack, x, weight):
    """Reference: the visual block 2 w J^T J (W, N, J, 3, 3) of every frame
    and joint, with 2 w the visual term's `weight`."""
    w, (n, j, _) = len(x), stack.key
    h = stack.proj @ x.reshape(w, -1, 3).swapaxes(1, 2) + stack.offset
    valid = stack.observed & (h[:, 2] > W_MIN)
    inv_depth = np.where(valid, 1.0 / np.where(valid, h[:, 2], 1.0), 0.0)
    pixel = h[:, :2] * inv_depth[:, None]
    jac = (stack.proj[:2, None, :] - pixel[..., None] * stack.proj[2]) * (
        np.sqrt(weight) * inv_depth)[:, None, :, None]
    return np.einsum("wapi,wapj->wpij", jac, jac).reshape(w, n, j, 3, 3)


def test_visual_blocks_are_each_frames_own():
    ds = make_dataset(DEFAULT_NOISE, seed=4, script=default_script(6.0))
    _, accel, bones = calibrate_stream(ds.calibration, ds.imu, ds.skeleton)
    joints = ds.calibration.joint_indices(ds.skeleton, ds.imu.sensor_ids)
    parents = np.array(ds.skeleton.parents)[joints]
    obs = Observations(pixels=ds.pixels, camera=ds.camera, accel=accel, bones=bones,
                       sensor_joints=joints, sensor_parents=parents)
    rows = np.arange(150).reshape(3, 50)
    stack = energy.WindowStack(obs, rows, ds.inputs.shape, ds.fps)
    chain = stack.rig.chain_joints
    in_front = ds.inputs[rows]
    behind = in_front.copy()
    behind[1, 7, joints[2]] = ds.camera.center  # a chain joint at the camera: the term skips it
    assert not np.isfinite(ds.pixels[:150][:, chain]).all()  # and some are unseen
    np.testing.assert_array_equal(chain, np.union1d(joints, parents))
    weight = energy.normal_parts(EnergyConfig(), ds.fps, 50)[0]
    pixels = ds.pixels[:150, chain]
    # Every joint in front takes the projection's fast path; one behind, its narrowed mask.
    for full, skipped in ((in_front, [0, 0, 0]), (behind, [0, 1, 0])):
        assert list(energy.stack_energy(full, stack, EnergyConfig()).behind_camera) == skipped
        x = full.reshape(150, -1, 3)[:, chain]
        got = energy.visual_blocks(x, pixels, ds.camera, weight)
        assert got.shape == (150, 12, 3, 3)
        want = visual_blocks_of_every_joint(stack, full, weight)[:, :, chain].reshape(got.shape)
        assert got.tobytes() == want.tobytes()
        # A frame's blocks are bitwise the same whatever frames are built with it.
        for lo, hi in ((0, 1), (7, 10), (100, 150)):
            alone = energy.visual_blocks(x[lo:hi], pixels[lo:hi], ds.camera, weight)
            assert alone.tobytes() == got[lo:hi].tobytes()
    assert not got[57, np.searchsorted(chain, joints[2])].any()
    assert not got[~np.isfinite(pixels).all(axis=2)].any()


def test_normal_parts_are_shared_by_every_window():
    # With k_visual = 0 the visual weight is 0, and the temporal matrix and
    # bone weight are those of the same weights with the visual term.
    got = energy.normal_parts(EnergyConfig(k_visual=0.0), 25.0, 50)
    seen = energy.normal_parts(EnergyConfig(), 25.0, 50)
    assert got[0] == 0.0 < seen[0]
    assert got[1] is seen[1] and not got[1].flags.writeable and got[1].shape == (50, 50)
    assert got[2] == seen[2] > 0.0
