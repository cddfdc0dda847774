import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifuse import (
    LengthMismatchError,
    TooShortError,
    evaluate,
    mpjae,
    mpjje,
    mpjpe,
    per_joint_mpjae,
    per_joint_mpjje,
    per_joint_mpjpe,
)
from vifuse.rotmath import _norm3


def impulse(t_n=10, j_n=1, frame=5, value=1.0):
    x = np.zeros((t_n, j_n, 3))
    x[frame, 0, 0] = value
    return x


def test_mpjpe_frozen():
    gt = np.zeros((2, 1, 3))
    pred = np.zeros((2, 1, 3))
    pred[0, 0] = [3.0, 4.0, 0.0]
    assert mpjpe(pred, gt) == pytest.approx(2.5)
    np.testing.assert_allclose(per_joint_mpjpe(pred, gt), [2.5])


def test_norms_per_component_equal_numpy_norms_bitwise(rng):
    for shape in ((1500, 21, 3), (7, 1, 3), (5, 3)):
        d = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape[:-1] + (1,))
        assert _norm3(d).tobytes() == np.linalg.norm(d, axis=-1).tobytes()
    pred, gt = rng.normal(0.0, 50.0, (2, 40, 21, 3))
    assert mpjpe(pred, gt) == float(np.linalg.norm(pred - gt, axis=2).mean())
    assert per_joint_mpjpe(pred, gt).tobytes() == np.linalg.norm(pred - gt, axis=2).mean(axis=0).tobytes()


def test_mpjae_impulse_frozen():
    pred = impulse()
    gt = np.zeros_like(pred)
    # the unit impulse leaves |1|, |-2|, |1| in three of the 8 interior rows
    assert mpjae(pred, gt, fps=1.0) == pytest.approx(0.5)


def test_mpjje_impulse_frozen():
    pred = impulse()
    gt = np.zeros_like(pred)
    # third-difference magnitudes 1, 3, 3, 1 over 7 rows
    assert mpjje(pred, gt, fps=1.0) == pytest.approx(8.0 / 7.0)


def test_fps_scaling():
    pred = impulse()
    gt = np.zeros_like(pred)
    base_a = mpjae(pred, gt, fps=1.0)
    base_j = mpjje(pred, gt, fps=1.0)
    assert mpjae(pred, gt, fps=25.0) == pytest.approx(625.0 * base_a)
    assert mpjje(pred, gt, fps=25.0) == pytest.approx(25.0 ** 3 * base_j)
    assert mpjae(pred, gt, fps=25.0, per_second=False) == pytest.approx(base_a)
    assert mpjje(pred, gt, fps=25.0, per_second=False) == pytest.approx(base_j)


def test_length_and_shape_errors(rng):
    a = rng.standard_normal((5, 2, 3))
    with pytest.raises(LengthMismatchError):
        mpjpe(a, rng.standard_normal((6, 2, 3)))
    with pytest.raises(LengthMismatchError):
        mpjpe(a, rng.standard_normal((5, 3, 3)))
    with pytest.raises(ValueError):
        mpjpe(rng.standard_normal((5, 2, 2)), rng.standard_normal((5, 2, 2)))
    bad = a.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        mpjpe(bad, a)


def test_too_short_errors(rng):
    a = rng.standard_normal((2, 1, 3))
    with pytest.raises(TooShortError):
        mpjae(a, a, 25.0)
    b = rng.standard_normal((3, 1, 3))
    with pytest.raises(TooShortError):
        mpjje(b, b, 25.0)
    with pytest.raises(TooShortError):
        evaluate(b, b, 25.0)


@pytest.mark.parametrize("fps", [0.0, -25.0, float("nan"), float("inf"), True])
@pytest.mark.parametrize("metric", [mpjae, mpjje, per_joint_mpjae, per_joint_mpjje, evaluate])
def test_rate_metrics_refuse_an_fps_that_is_not_a_finite_positive_number(rng, metric, fps):
    a, b = rng.standard_normal((2, 6, 3, 3))
    with pytest.raises(ValueError, match=f"^fps must be a finite positive number, got {fps!r}$"):
        metric(a, b, fps)
    with pytest.raises(ValueError, match="^fps must be a finite positive number"):
        metric(a, b, fps, per_second=False)


def test_metrics_are_symmetric(rng):
    pred = rng.standard_normal((12, 3, 3))
    gt = rng.standard_normal((12, 3, 3))
    assert mpjpe(pred, gt) == pytest.approx(mpjpe(gt, pred), rel=1e-15)
    assert mpjae(pred, gt, 25.0) == pytest.approx(mpjae(gt, pred, 25.0), rel=1e-15)
    assert mpjje(pred, gt, 25.0) == pytest.approx(mpjje(gt, pred, 25.0), rel=1e-15)


def test_mpjae_ignores_linear_in_time_offsets(rng):
    pred = rng.standard_normal((15, 2, 3))
    gt = rng.standard_normal((15, 2, 3))
    t = np.arange(15.0)[:, None, None]
    drifted = pred + 3.0 + 0.7 * t
    assert mpjae(drifted, gt, 25.0) == pytest.approx(mpjae(pred, gt, 25.0), rel=1e-9)
    assert mpjpe(drifted, gt) != pytest.approx(mpjpe(pred, gt), rel=1e-3)


def test_mpjje_ignores_quadratic_in_time_offsets(rng):
    pred = rng.standard_normal((15, 2, 3))
    gt = rng.standard_normal((15, 2, 3))
    t = np.arange(15.0)[:, None, None]
    drifted = pred + 1.0 + 0.5 * t + 0.25 * t * t
    assert mpjje(drifted, gt, 25.0) == pytest.approx(mpjje(pred, gt, 25.0), rel=1e-9)
    assert mpjae(drifted, gt, 25.0) != pytest.approx(mpjae(pred, gt, 25.0), rel=1e-3)


@pytest.mark.parametrize("per_second", [True, False])
def test_rate_metrics_depend_only_on_the_error(rng, per_second):
    # MPJAE and MPJJE are differences of the error pred - gt, bit for bit.
    for shape in ((4, 1, 3), (37, 21, 3)):
        pred, gt = rng.normal(0.0, 100.0, (2,) + shape)
        pairs = [(pred, gt), (pred - gt, np.zeros(shape))]
        for f in (mpjae, mpjje, per_joint_mpjae, per_joint_mpjje):
            a, b = (np.asarray(f(p, g, 29.97, per_second)) for p, g in pairs)
            assert a.tobytes() == b.tobytes()
        a, b = (evaluate(p, g, 29.97, per_second).to_record() for p, g in pairs)
        assert [a[k] for k in ("mpjae", "mpjje", "joint_mpjae", "joint_mpjje")] == [
            b[k] for k in ("mpjae", "mpjje", "joint_mpjae", "joint_mpjje")]


def test_identical_sequences_score_zero(rng):
    a = rng.standard_normal((8, 4, 3)) * 100.0
    r = evaluate(a, a.copy(), 25.0)
    assert r.mpjpe == 0.0 and r.mpjae == 0.0 and r.mpjje == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 20), st.integers(1, 4), st.floats(1.0, 120.0))
def test_evaluate_consistent_with_parts(t_n, j_n, fps):
    r = np.random.default_rng(t_n * 100 + j_n)
    pred = r.standard_normal((t_n, j_n, 3))
    gt = r.standard_normal((t_n, j_n, 3))
    rep = evaluate(pred, gt, fps)
    assert rep.mpjpe == pytest.approx(mpjpe(pred, gt), rel=1e-12)
    assert rep.mpjae == pytest.approx(mpjae(pred, gt, fps), rel=1e-12)
    assert rep.mpjje == pytest.approx(mpjje(pred, gt, fps), rel=1e-12)
    assert rep.frame_count == t_n
    np.testing.assert_allclose(rep.joint_mpjpe, per_joint_mpjpe(pred, gt), rtol=1e-12)
    np.testing.assert_allclose(rep.joint_mpjae, per_joint_mpjae(pred, gt, fps), rtol=1e-12)
    np.testing.assert_allclose(rep.joint_mpjje, per_joint_mpjje(pred, gt, fps), rtol=1e-12)


def test_report_serialization(rng):
    pred = rng.standard_normal((6, 2, 3))
    gt = rng.standard_normal((6, 2, 3))
    rep = evaluate(pred, gt, 30.0)
    rec = rep.to_record()
    assert rec["fps"] == 30.0
    assert rec["frame_count"] == 6
    assert rec["mpjpe_mm"] == rep.mpjpe
    assert len(rec["joint_mpjpe_mm"]) == 2
    parsed = json.loads(rep.to_json())
    assert parsed == json.loads(json.dumps(rec))
    text = rep.format_text(["hip", "knee"])
    assert "MPJPE" in text and "hip" in text and "mm/s^2" in text
    raw = evaluate(pred, gt, 30.0, per_second=False).format_text()
    assert "mm/frame^2" in raw and "joint0" in raw


def test_report_rejects_bad_values(rng):
    pred = rng.standard_normal((6, 2, 3))
    rep = evaluate(pred, pred, 30.0)
    with pytest.raises(ValueError):
        type(rep)(
            mpjpe=-1.0,
            mpjae=0.0,
            mpjje=0.0,
            joint_mpjpe=rep.joint_mpjpe,
            joint_mpjae=rep.joint_mpjae,
            joint_mpjje=rep.joint_mpjje,
            frame_count=6,
            fps=30.0,
        )
