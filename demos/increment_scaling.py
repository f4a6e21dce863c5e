#!/usr/bin/env python3
"""Temporal increments follow a sqrt(h) law.

Just after the noise switches on (t = tau + delta), the mean-square
distance between the field at t and at t + h is governed by the fresh
Brownian input, so the root-mean-square increment grows like h^(1/2).
Each increment U(t+h) - U(t) is drawn directly from its exact law, one
independent Gaussian per coefficient whose variance adds the decay
difference of the initial field to the noise increment, which comes from
the two-time covariance of the noise integrals.
That exact law is what makes the small-h behavior measurable; an
independent redraw at t + h would inflate it.
"""

from fracsphere import (AlgebraicSpectrum, FractionalModel, fit_loglog_slope,
                        increment_curve)

model = FractionalModel(
    alpha=0.5,
    tau=1e-5,
    spec_c=AlgebraicSpectrum(1.0, 1.0, 2.3),
    spec_a=AlgebraicSpectrum(1e4, 1e4, 2.5),
)

delta = 1e-6
hs = [k * delta for k in range(1, 12)]
curve = increment_curve(model, L=128, t=model.tau + delta, h_grid=hs,
                        n_real=20, seed=5)
curve.write_csv("increment_curve.csv")

print("h            rms increment   q(t) sqrt(h)")
for h, emp, bound, _ in curve.rows:
    print(f"{h:10.2e}  {emp:14.5f}  {bound:12.5f}")

fit = fit_loglog_slope(curve)
print(f"\nfitted slope {fit.slope:.3f} (exact square-root law: 0.5)")
print(f"envelope constant (measured): {curve.meta['increment_c']:.4f}")
print("wrote increment_curve.csv")
