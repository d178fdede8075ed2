"""Thermocouple characterization on acquired temperature series.

Covers the non-linearity error computation, steady-state detection on a
cooling curve, and recovering the first-order time constant from the
63.2% level crossing.
"""

import statistics

from lvmforge import (
    NonLinearityInput,
    detect_steady_state,
    estimate_time_constant,
    nonlinearity_error,
    step_response_from_series,
    synth_first_order,
)

# --- non-linearity error -------------------------------------------------
# Measured temperatures against the reference values from the lab sheet;
# each point is normalized by the gap to the ambient reference (300 degC).

measured = (52.0, 101.5, 148.9, 201.2)
reference = (50.0, 100.0, 150.0, 200.0)
errors = nonlinearity_error(NonLinearityInput(measured, reference, t_ref30=300.0))
for t, r, eps in zip(measured, reference, errors):
    print(f"T_real {t:7.2f}  T_ref {r:6.1f}  eps {eps:+.4f} %")

# --- the cooling experiment ------------------------------------------------
# Simulate cooling from 100 degC to ambient 20 degC with a 15 s time
# constant, sampled once per second with realistic acquisition noise.

response = synth_first_order(y0=100.0, y_inf=20.0, tau=15.0, dt=1.0, n=120,
                             noise_sigma=0.05, seed=7)
temperatures = [y for _, y in response.samples]

# The experiment runs "until steady state": the first window of 5 samples
# spanning less than the 0.2 degC display resolution.
steady = detect_steady_state(temperatures, window=5, epsilon=0.2)
print()
print("steady state from sample:", steady,
      f"(t = {response.samples[steady][0]:.0f} s)")

# Time constant estimate directly from the model response...
tau = estimate_time_constant(response)
print(f"time constant (known asymptotes): {tau:.3f} s")

# ...and the way the CLI does it for measured data, where y_inf is taken
# as the mean over the steady tail instead of being known in advance.
rebuilt = step_response_from_series(response.samples)
print(f"time constant (estimated asymptotes): {estimate_time_constant(rebuilt):.3f} s")

# Recovery quality across the laboratory's range of time constants:
print()
for true_tau in (1.0, 5.0, 15.0, 60.0):
    dt = true_tau / 20
    estimates = [
        estimate_time_constant(synth_first_order(100.0, 20.0, true_tau, dt, 120,
                                                 noise_sigma=0.05, seed=seed))
        for seed in range(25)
    ]
    spread = [abs(estimate - true_tau) / true_tau for estimate in estimates]
    print(f"tau {true_tau:5.1f} s  dt {dt:5.2f} s  "
          f"median error {statistics.median(spread):.4%}  worst {max(spread):.4%}")
