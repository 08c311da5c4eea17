"""A medium that pulsates: periodic2 on a cell of length 4 with strong
diffusion and drift contrast, whose front profile U(x, s) depends on the
cell node x.  The acceptance criteria run on constant media, where U does
not, so binning per cell row goes unchecked there.

The run stores t in [65, 80] only: 750 snapshots of 2 x 8,449 nodes, about
100 MB, where t in [40, 80] would hold about 270 MB.  At t in [70, 80],
bins of some cell rows fall below extract_profile's occupancy threshold.
"""

import numpy as np
import pytest

from perifront import (Dispersion, StepperConfig, WindowGrid,
                       build_initial_front_like, extract_profile, fit_decay,
                       make_cell_grid, make_model, measure_speed, run)

T = 80.0
STORE_FROM = 65.0


@pytest.fixture(scope="module")
def pulsating():
    """k = 1 run at c = 1.25 c_+0 on periodic2 with L = 4, n = 128,
    amp 0.8 and qamp 0.5, and its raw profile over the stored window."""
    model = make_model("periodic2", make_cell_grid(4.0, 128),
                       amp=0.8, qamp=0.5)
    disp = Dispersion(model)
    c = 1.25 * disp.critical_speed()[0]
    win = WindowGrid(model.cell, 66)
    st = build_initial_front_like(model, win, c, k=1.0, eps0=0.1, disp=disp)
    traj = run(model, st, win, StepperConfig(dt=0.01, snapshot_dt=0.02), T,
               store_from=STORE_FROM)
    c_est, _ = measure_speed(traj, 0, 0.5, (STORE_FROM, T))
    prof = extract_profile(traj, c_est, t_window=(STORE_FROM, T),
                           anchor=False)
    del traj
    lam_c = disp.lambda_c(c)
    return dict(prof=prof, lam_c=lam_c,
                fits=fit_decay(prof, disp.cascade(lam_c), lam_c, 0))


def test_decay_rate(pulsating):
    # criterion 5a's tolerances
    fit, lam_c = pulsating["fits"][0], pulsating["lam_c"]
    assert abs(fit.lambda_est - lam_c) <= 0.05 * lam_c
    assert fit.goodness <= 0.1


def test_profile_depends_on_cell_node(pulsating):
    # the largest spread of U_1 over the cell nodes at one s: measured 0.060
    U1 = pulsating["prof"].U[0]
    assert np.nanmax(np.ptp(U1, axis=0)) >= 0.03
