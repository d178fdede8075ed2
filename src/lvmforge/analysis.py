"""Thermocouple characterization numerics.

Covers the off-line processing done on acquired temperature series:
per-point non-linearity error, steady-state detection, first-order time
constant estimation via the 63.2% level crossing, and a synthetic
first-order response generator used as a test oracle and by the CLI's
``gen`` command.

All functions are pure; randomness is confined to an explicitly seeded
generator, so every stochastic result is reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date as Date
from typing import Optional, Sequence

from .errors import (
    DegenerateStep,
    DenominatorZero,
    GridMismatch,
    InsufficientData,
    InvalidParameters,
    InvariantViolation,
    LengthMismatch,
    NoCrossing,
)
from .lvm import (
    HighPrecisionTime,
    LvmDocument,
    LvmFileHeader,
    LvmSegment,
    Separator,
)

# fraction of the total step change reached after one time constant
LEVEL_FRACTION = 1.0 - math.exp(-1.0)

# defaults matched to the 0.2 degC display resolution of the acquisition module
DEFAULT_STEADY_WINDOW = 5
DEFAULT_STEADY_EPSILON = 0.2


@dataclass(frozen=True)
class NonLinearityInput:
    """Measured vs reference temperatures for the non-linearity check.

    ``t_ref30`` is the reference temperature at ambient; each error term is
    normalized by the gap between it and the point's reference temperature.
    """

    t_real: tuple[float, ...]
    t_ref: tuple[float, ...]
    t_ref30: float

    def __post_init__(self):
        object.__setattr__(self, "t_real", tuple(self.t_real))
        object.__setattr__(self, "t_ref", tuple(self.t_ref))
        if len(self.t_real) != len(self.t_ref):
            raise LengthMismatch(
                f"t_real has {len(self.t_real)} points, t_ref {len(self.t_ref)}")
        if not self.t_real:
            raise LengthMismatch("need at least one point")


def nonlinearity_error(data: NonLinearityInput) -> list[float]:
    """Per-point non-linearity error in percent.

    eps_i = |t_real_i - t_ref_i| / (t_ref30 - t_ref_i) * 100, with the
    denominator taken signed.  Raises DenominatorZero(i) when a reference
    point equals the ambient reference.
    """
    errors = []
    for i, (real, ref) in enumerate(zip(data.t_real, data.t_ref)):
        denominator = data.t_ref30 - ref
        if denominator == 0.0:
            raise DenominatorZero(i)
        errors.append(abs(real - ref) / denominator * 100.0)
    return errors


@dataclass(frozen=True)
class StepResponse:
    """A sampled step response with its asymptotes.

    Samples must be strictly increasing in time; at least 3 are required.
    """

    samples: tuple[tuple[float, float], ...]
    y0: float
    y_inf: float

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(tuple(s) for s in self.samples))
        if len(self.samples) < 3:
            raise InvariantViolation("a step response needs at least 3 samples")
        times = [t for t, _ in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvariantViolation("sample times must be strictly increasing")


def detect_steady_state(samples: Sequence[float], window: int = DEFAULT_STEADY_WINDOW,
                        epsilon: float = DEFAULT_STEADY_EPSILON) -> Optional[int]:
    """First index whose ``window`` samples span less than ``epsilon``.

    Returns None when no window qualifies.  Raises InsufficientData when
    fewer than ``window`` samples are given.
    """
    if window < 2:
        raise InvalidParameters(f"window must be >= 2, got {window}")
    if epsilon <= 0:
        raise InvalidParameters(f"epsilon must be > 0, got {epsilon}")
    if len(samples) < window:
        raise InsufficientData(f"{len(samples)} samples, window {window}")
    for i in range(len(samples) - window + 1):
        chunk = samples[i:i + window]
        if max(chunk) - min(chunk) < epsilon:
            return i
    return None


def estimate_time_constant(response: StepResponse) -> float:
    """Time constant of a first-order response: the 63.2% level crossing.

    Finds the first time the response reaches
    y0 + (1 - e^-1) * (y_inf - y0), interpolating linearly between the
    bracketing samples.  Raises DegenerateStep when y0 == y_inf and
    NoCrossing when the level is never reached.
    """
    if response.y0 == response.y_inf:
        raise DegenerateStep(f"y0 == y_inf == {response.y0}")
    level = response.y0 + LEVEL_FRACTION * (response.y_inf - response.y0)
    direction = 1.0 if response.y_inf > response.y0 else -1.0

    for k, (t1, y1) in enumerate(response.samples):
        if (y1 - level) * direction >= 0.0:
            if k == 0 or y1 == level:
                return float(t1)
            t0, y0 = response.samples[k - 1]
            return float(t0 + (level - y0) * (t1 - t0) / (y1 - y0))
    raise NoCrossing(f"response never reaches {level:.6f}")


def synth_first_order(y0: float, y_inf: float, tau: float, dt: float, n: int,
                      noise_sigma: float = 0.0, seed: int = 0) -> StepResponse:
    """Sampled first-order response y_k = y_inf + (y0-y_inf) e^(-k dt/tau).

    Gaussian noise of the given sigma is added from a generator seeded with
    ``seed``; sigma 0 yields the exact curve.
    """
    if tau <= 0 or dt <= 0 or n < 3 or noise_sigma < 0:
        raise InvalidParameters(
            f"need tau > 0, dt > 0, n >= 3, noise_sigma >= 0;"
            f" got tau={tau}, dt={dt}, n={n}, noise_sigma={noise_sigma}")
    t = [k * dt for k in range(n)]
    y = [y_inf + (y0 - y_inf) * math.exp(-tk / tau) for tk in t]
    if noise_sigma > 0:
        rng = random.Random(seed)
        y = [yk + rng.gauss(0.0, noise_sigma) for yk in y]
    return StepResponse(samples=tuple(zip(t, y)), y0=y0, y_inf=y_inf)


def step_response_from_series(points: Sequence[tuple[float, float]]) -> StepResponse:
    """Build a StepResponse from measured (t, y) points.

    y0 is the first sample and y_inf the mean over the steady-state tail
    found with the default window and epsilon (falling back to the last
    sample when no steady window exists).  A caller that knows the
    asymptotes builds ``StepResponse(samples, y0, y_inf)`` directly.
    """
    if len(points) < 3:
        raise InsufficientData(f"{len(points)} points, need at least 3")
    ys = [y for _, y in points]
    try:
        start = detect_steady_state(ys)
    except InsufficientData:
        start = None
    # math.fsum(x) / len(x) is statistics.fmean(x), without importing statistics
    y_inf = math.fsum(ys[start:]) / (len(ys) - start) if start is not None else ys[-1]
    return StepResponse(samples=points, y0=ys[0], y_inf=y_inf)


def gen_lvm(responses: Sequence[StepResponse], operator: str = "",
            date: Optional[Date] = None,
            time: Optional[HighPrecisionTime] = None) -> LvmDocument:
    """An Annex-shaped one-segment document with one channel per response.

    All responses must share the same time grid.  The document uses tab
    separation with "," decimals, matching the laboratory acquisition
    output.
    """
    if not responses:
        raise GridMismatch("need at least one response")
    grid = [t for t, _ in responses[0].samples]
    for i, response in enumerate(responses[1:], start=1):
        if [t for t, _ in response.samples] != grid:
            raise GridMismatch(f"response {i} is on a different time grid")

    n = len(responses)
    header = LvmFileHeader(
        separator=Separator.TAB,
        decimal_separator=",",
        operator=operator,
        date=date,
        time=time,
    )
    segment = LvmSegment(
        channels=n,
        samples_per_channel=[1] * n,
        channel_dates=[date] * n if date is not None else [],
        channel_times=[time] * n if time is not None else [],
        x_dimension=["Time"] * n,
        x0=[grid[0]] * n,
        delta_x=[grid[1] - grid[0]] * n,
        column_names=["X_Value"] + [f"Channel {k}" for k in range(n)] + ["Comment"],
        x=grid,
        columns=[[y for _, y in r.samples] for r in responses],
    )
    return LvmDocument(header=header, segments=[segment])
