"""Dispersion curves and spreading speeds.

Computes kappa_i(lambda) for the two-component benchmark and a periodic
medium, locates the critical speed c_+0 = min kappa_1(lambda)/lambda and
its minimizer lambda_+0, and evaluates the decay exponent lambda_c for a
few supercritical speeds.  Writes dispersion_curves.csv for plotting.
"""

import numpy as np

from perifront import Dispersion, make_model
from perifront.errors import PerifrontError

for name in ("constant2", "periodic2"):
    model = make_model(name)
    disp = Dispersion(model)
    c0, lam0 = disp.critical_speed()
    print(f"== {name}")
    print(f"   c_+0 = {c0:.6f}   lambda_+0 = {lam0:.6f}")
    for c in (c0, 1.1 * c0, 1.25 * c0, 2.0):
        try:
            disp.tau(c)
        except PerifrontError:
            continue             # below c_+0: no front, no lambda_c
        lam_c = disp.lambda_c(c)
        print(f"   c = {c:.4f}: lambda_c = {lam_c:.6f} "
              f"(root check {disp.kappa(0, lam_c) - c * lam_c:+.1e})")

    lams = np.linspace(0.05, 2.0 * lam0, 40)
    tab = disp.table(lams)
    with open(f"dispersion_curves_{name}.csv", "w") as fh:
        fh.write("# lambda, kappa_1, kappa_2, kappa1_over_lambda\n")
        for j, lam in enumerate(lams):
            fh.write(f"{lam:.17g}, {tab['kappa'][0, j]:.17g}, "
                     f"{tab['kappa'][1, j]:.17g}, "
                     f"{tab['kappa'][0, j] / lam:.17g}\n")
    print(f"   wrote dispersion_curves_{name}.csv")

    # the vector eigenfunction through the triangular cascade
    casc = disp.cascade(lam0)
    ratio = casc.components[1].values / casc.components[0].values
    print(f"   cascade ratio phi_2/phi_1 at lambda_+0: "
          f"[{ratio.min():.4f}, {ratio.max():.4f}]")
