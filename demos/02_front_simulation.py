"""Cauchy run developing a pulsating front, with speed measurement.

Front-like initial data with the exact tail decay e^{-lambda_c x} Phi(x)
is integrated on a long window; the level-set position is tracked and its
least-squares slope compared against the requested wave speed.
"""

import numpy as np

from perifront import (Dispersion, StepperConfig, WindowGrid,
                       build_initial_front_like, front_position, make_model,
                       measure_speed, run)

model = make_model("constant2")
disp = Dispersion(model)
c = 2.5

window = WindowGrid(model.cell, 90)
cfg = StepperConfig(dt=0.01, snapshot_dt=0.25)
state = build_initial_front_like(model, window, c, k=1.0, eps0=0.1,
                                 disp=disp)
traj = run(model, state, window, cfg, 22.0)

c_est, stderr = measure_speed(traj, 0, 0.5, (8.0, 22.0))
print(f"requested c = {c},  measured c = {c_est:.5f} +- {stderr:.1e} "
      f"({abs(c_est - c) / c:.2%} off)")

with open("front_positions.csv", "w") as fh:
    fh.write("# t, position\n")
    for t, u in zip(traj.times, traj.snapshots):
        fh.write(f"{t:.17g}, {front_position(u[0], window.x, 0.5):.17g}\n")
print("wrote front_positions.csv")

# a compactly-decaying datum spreads at the critical speed instead
state2 = None
x = window.x
u0 = np.minimum(0.9, np.exp(-3.0 * (x - 2.0)))[None, :].repeat(2, axis=0)
from perifront import SimState
traj2 = run(model, SimState(0.0, u0), window, cfg, 22.0)
c_est2, _ = measure_speed(traj2, 0, 0.5, (8.0, 22.0))
c0, _ = disp.critical_speed()
print(f"compact datum: measured {c_est2:.4f}, critical speed {c0:.4f} "
      "(slow pulled-front relaxation accounts for the gap at short times)")
