#!/usr/bin/env python3
"""Evolution of the two-stage random field.

One realization is drawn at degree 200 through three epochs: the
initial isotropic field (t ~ 0), the purely diffusive stage (t = tau,
noise not yet switched on), and the noise-driven stage (t = 10 tau).  The
three maps are one draw from the exact joint law of the coefficients
across the times, so the large-scale pattern persists while small scales
relax and, after tau, noise power appears.

Writes map_t*.ppm / .json / .csv plus a manifest into evolution_out/: each
.json sidecar holds the map's colour scaling, the manifest the run's
parameters.
"""

from fracsphere import (AlgebraicSpectrum, FractionalModel, GridSpec,
                        evolution_snapshots)

model = FractionalModel(
    alpha=0.5,
    tau=1e-5,
    spec_c=AlgebraicSpectrum(head=1.0, coeff=1.0, kappa=2.3),
    spec_a=AlgebraicSpectrum(head=1e4, coeff=1e4, kappa=2.5),
)

grid = GridSpec(n_lat=181, n_lon=360)
times = [1e-12, model.tau, 10 * model.tau]

maps = evolution_snapshots(model, L=200, times=times, grid=grid, seed=7,
                           out_dir="evolution_out")

for t, fmap in zip(times, maps):
    v = fmap.values
    print(f"t = {t:8.1e}:  min {v.min():+.3f}  max {v.max():+.3f}  "
          f"rms {float((v ** 2).mean()) ** 0.5:.3f}")

print("\nmaps written to evolution_out/ (equirectangular, blue-white-red)")
