import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvmforge import (
    HighPrecisionTime,
    NonLinearityInput,
    StepResponse,
    channel_series,
    detect_steady_state,
    estimate_time_constant,
    gen_lvm,
    nonlinearity_error,
    parse_lvm,
    serialize_lvm,
    step_response_from_series,
    synth_first_order,
)
from lvmforge.errors import (
    DegenerateStep,
    DenominatorZero,
    GridMismatch,
    InsufficientData,
    InvalidParameters,
    InvariantViolation,
    LengthMismatch,
    NoCrossing,
)


def brute_force_steady(samples, window, epsilon):
    for i in range(len(samples) - window + 1):
        chunk = samples[i:i + window]
        if max(chunk) - min(chunk) < epsilon:
            return i
    return None


# --- non-linearity ----------------------------------------------------------

def test_nonlinearity_hand_example():
    # |52-50| / (300-50) * 100 = 0.8
    assert nonlinearity_error(NonLinearityInput((52.0,), (50.0,), 300.0)) == [0.8]


def test_nonlinearity_zero_numerator():
    assert nonlinearity_error(NonLinearityInput((50.0,), (50.0,), 300.0)) == [0.0]


def test_nonlinearity_denominator_zero():
    with pytest.raises(DenominatorZero) as info:
        nonlinearity_error(NonLinearityInput((52.0, 40.0), (50.0, 300.0), 300.0))
    assert info.value.index == 1


def test_nonlinearity_signed_denominator():
    # printed equation takes the denominator signed, so it can go negative
    [eps] = nonlinearity_error(NonLinearityInput((310.0,), (320.0,), 300.0))
    assert eps == pytest.approx(-50.0)


def test_nonlinearity_length_mismatch():
    with pytest.raises(LengthMismatch):
        NonLinearityInput((1.0, 2.0), (1.0,), 300.0)
    with pytest.raises(LengthMismatch):
        NonLinearityInput((), (), 300.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-4.0, 4.0))
def test_nonlinearity_scale_law(seed, c):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    t_ref = [rng.uniform(0, 200) for _ in range(n)]
    t_ref30 = 300.0
    gaps = [rng.uniform(-5, 5) for _ in range(n)]
    base = nonlinearity_error(NonLinearityInput(
        tuple(r + g for r, g in zip(t_ref, gaps)), tuple(t_ref), t_ref30))
    scaled = nonlinearity_error(NonLinearityInput(
        tuple(r + c * g for r, g in zip(t_ref, gaps)), tuple(t_ref), t_ref30))
    for b, s in zip(base, scaled):
        assert s == pytest.approx(abs(c) * b, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nonlinearity_matches_direct_evaluation(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 20)
    t_ref = [rng.uniform(-200, 200) for _ in range(n)]
    t_real = [r + rng.uniform(-10, 10) for r in t_ref]
    t_ref30 = rng.uniform(250, 400)
    result = nonlinearity_error(NonLinearityInput(tuple(t_real), tuple(t_ref), t_ref30))
    for i in range(n):
        direct = abs(t_real[i] - t_ref[i]) / (t_ref30 - t_ref[i]) * 100.0
        assert math.isclose(result[i], direct, rel_tol=1e-12, abs_tol=1e-15)


# --- steady state -----------------------------------------------------------

def test_steady_constant_series():
    assert detect_steady_state([20.0, 20.0, 20.0, 20.0], window=3, epsilon=0.1) == 0


def test_steady_decay_frozen_oracle():
    # brute-force scan over y(t) = 20 + 80 e^(-t/10), dt=1, n=100 gives 49
    ys = [20 + 80 * math.exp(-t / 10) for t in range(100)]
    assert brute_force_steady(ys, 5, 0.2) == 49
    assert detect_steady_state(ys, window=5, epsilon=0.2) == 49


def test_steady_ramp_none():
    assert detect_steady_state([float(i) for i in range(20)], window=4, epsilon=0.5) is None


def test_steady_insufficient_data():
    with pytest.raises(InsufficientData):
        detect_steady_state([1.0, 2.0], window=5, epsilon=0.1)


def test_steady_invalid_parameters():
    with pytest.raises(InvalidParameters):
        detect_steady_state([1.0, 2.0, 3.0], window=1, epsilon=0.1)
    with pytest.raises(InvalidParameters):
        detect_steady_state([1.0, 2.0, 3.0], window=2, epsilon=0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_steady_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 120)
    style = rng.random()
    if style < 0.4:
        ys = [20 + 80 * math.exp(-k * rng.uniform(0.01, 0.3)) for k in range(n)]
    elif style < 0.7:
        ys = [rng.uniform(0, 5) for _ in range(n)]
    else:
        level = rng.uniform(15, 25)
        ys = [level + rng.gauss(0, 0.01 + 2 * math.exp(-k / 5)) for k in range(n)]
    window = rng.randint(2, min(10, n))
    epsilon = rng.choice([0.05, 0.2, 1.0])
    assert detect_steady_state(ys, window, epsilon) == brute_force_steady(ys, window, epsilon)


# --- time constant -----------------------------------------------------------

def test_time_constant_noiseless_recovery():
    response = synth_first_order(100.0, 20.0, tau=15.0, dt=0.5, n=240)
    assert abs(estimate_time_constant(response) - 15.0) <= 0.05


def test_time_constant_exact_sample_hit():
    level = 100.0 + (1 - math.exp(-1)) * (20.0 - 100.0)
    samples = ((0.0, 100.0), (7.5, 60.0), (15.0, level), (30.0, 25.0))
    assert estimate_time_constant(StepResponse(samples, 100.0, 20.0)) == 15.0


def test_time_constant_rising_step():
    response = synth_first_order(20.0, 100.0, tau=5.0, dt=0.1, n=400)
    assert abs(estimate_time_constant(response) - 5.0) <= 0.05


def test_time_constant_no_crossing():
    samples = ((0.0, 100.0), (1.0, 99.0), (2.0, 98.0))
    with pytest.raises(NoCrossing):
        estimate_time_constant(StepResponse(samples, 100.0, 20.0))


def test_time_constant_degenerate_step():
    samples = ((0.0, 50.0), (1.0, 50.0), (2.0, 50.0))
    with pytest.raises(DegenerateStep):
        estimate_time_constant(StepResponse(samples, 50.0, 50.0))


@pytest.mark.parametrize("tau", [1.0, 5.0, 15.0, 60.0])
def test_time_constant_consistency(tau):
    dt = tau / 10
    response = synth_first_order(100.0, 20.0, tau=tau, dt=dt, n=120)
    assert abs(estimate_time_constant(response) - tau) <= dt / 2


def test_time_constant_noisy_robustness():
    errors = []
    for seed in range(100):
        response = synth_first_order(100.0, 20.0, tau=15.0, dt=1.0, n=120,
                                     noise_sigma=0.05, seed=seed)
        errors.append(abs(estimate_time_constant(response) - 15.0) / 15.0)
    assert max(errors) <= 0.05


def test_step_response_invariants():
    with pytest.raises(InvariantViolation):
        StepResponse(((0.0, 1.0), (1.0, 2.0)), 1.0, 2.0)
    with pytest.raises(InvariantViolation):
        StepResponse(((0.0, 1.0), (0.0, 2.0), (1.0, 3.0)), 1.0, 3.0)


# --- synthetic generator -------------------------------------------------------

def test_synth_exact_curve():
    response = synth_first_order(100.0, 20.0, tau=10.0, dt=1.0, n=5, noise_sigma=0.0)
    ts = [t for t, _ in response.samples]
    ys = [y for _, y in response.samples]
    assert ts == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert ys[0] == 100.0
    # computed with math.exp: 20 + 80 e^-0.1 = 92.38699344287676
    assert ys[1] == pytest.approx(20 + 80 * math.exp(-0.1), rel=1e-15)
    assert round(ys[1], 4) == 92.387


def test_synth_determinism():
    a = synth_first_order(100.0, 20.0, 10.0, 1.0, 50, noise_sigma=0.3, seed=42)
    b = synth_first_order(100.0, 20.0, 10.0, 1.0, 50, noise_sigma=0.3, seed=42)
    c = synth_first_order(100.0, 20.0, 10.0, 1.0, 50, noise_sigma=0.3, seed=43)
    assert a == b
    assert a != c


@pytest.mark.parametrize("kwargs", [
    {"tau": 0.0}, {"tau": -1.0}, {"dt": 0.0}, {"n": 2}, {"noise_sigma": -0.1},
])
def test_synth_invalid_parameters(kwargs):
    base = {"y0": 100.0, "y_inf": 20.0, "tau": 10.0, "dt": 1.0, "n": 5}
    base.update(kwargs)
    with pytest.raises(InvalidParameters):
        synth_first_order(**base)


# --- step response from measured series ----------------------------------------

def test_step_response_from_series_defaults():
    response = synth_first_order(100.0, 20.0, tau=15.0, dt=1.0, n=120)
    rebuilt = step_response_from_series(response.samples)
    assert rebuilt.y0 == 100.0
    assert abs(rebuilt.y_inf - 20.0) < 0.5
    assert abs(estimate_time_constant(rebuilt) - 15.0) <= 0.5


@pytest.mark.parametrize("n", [3, 4])
def test_step_response_from_series_takes_the_last_sample_below_a_window(n):
    """Fewer samples than the steady-state window: y_inf is the last one."""
    points = tuple((float(k), 10.0 - k) for k in range(n))
    response = step_response_from_series(points)
    assert (response.y0, response.y_inf) == (10.0, 11.0 - n)


def test_step_response_from_series_too_short():
    with pytest.raises(InsufficientData):
        step_response_from_series(((0.0, 1.0), (1.0, 2.0)))


# --- .lvm generation ------------------------------------------------------------

def constant_response(value, n=3):
    return StepResponse(tuple((float(k), value) for k in range(n)), value, value)


def test_gen_lvm_matches_annex_row():
    doc = gen_lvm([constant_response(23.4), constant_response(23.4),
                   constant_response(23.6)], operator="Profesor")
    text = serialize_lvm(doc).decode()
    lines = text.splitlines()
    column_row = lines.index("X_Value\tChannel 0\tChannel 1\tChannel 2\tComment")
    assert lines[column_row + 1] == "0,000000\t23,400000\t23,400000\t23,600000"


def test_gen_lvm_single_channel():
    doc = gen_lvm([constant_response(1.0)])
    assert doc.segments[0].channels == 1
    assert "Channels\t1" in serialize_lvm(doc).decode()


def test_gen_lvm_grid_mismatch():
    other = StepResponse(((0.0, 1.0), (2.0, 1.0), (4.0, 1.0)), 1.0, 1.0)
    with pytest.raises(GridMismatch):
        gen_lvm([constant_response(1.0), other])
    with pytest.raises(GridMismatch):
        gen_lvm([])


def test_gen_lvm_header_fields():
    from datetime import date
    doc = gen_lvm([constant_response(1.0)], operator="Profesor",
                  date=date(2013, 2, 6), time=HighPrecisionTime(17, 49, 40, "83"))
    assert doc.header.operator == "Profesor"
    assert doc.header.decimal_separator == ","
    assert doc.segments[0].delta_x == [1.0]
    assert parse_lvm(serialize_lvm(doc)) == doc


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gen_parse_path_reproduces_samples(seed):
    rng = random.Random(seed)
    responses = [
        synth_first_order(rng.uniform(50, 150), rng.uniform(0, 40),
                          tau=rng.uniform(1, 40), dt=0.5, n=12,
                          noise_sigma=0.1, seed=seed + k)
        for k in range(rng.randint(1, 3))
    ]
    doc = parse_lvm(serialize_lvm(gen_lvm(responses)))
    for k, response in enumerate(responses):
        xs, ys = channel_series(doc, 0, k)
        assert len(xs) == len(ys) == 12
        for x, y, (t, v) in zip(xs, ys, response.samples):
            assert abs(x - t) <= 5e-7
            assert abs(y - v) <= 5e-7
