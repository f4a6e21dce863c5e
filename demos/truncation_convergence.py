#!/usr/bin/env python3
"""Truncation-error convergence with the theoretical overlay.

Draws one reference-degree realization as a field and the summed
per-degree power of the other Monte Carlo samples from its exact
chi-square law,
measures the root-mean-square tail power beyond each truncation degree L,
and compares the decay against the closed-form bound.  Desk-scale
parameters (reference degree 256, 30 realizations) take about half a
second.
"""

from fracsphere import (AlgebraicSpectrum, FractionalModel,
                        fit_loglog_slope, truncation_error_curve)

model = FractionalModel(
    alpha=0.75,
    tau=1e-5,
    spec_c=AlgebraicSpectrum(1.0, 1.0, 2.3),
    spec_a=AlgebraicSpectrum(1e4, 1e4, 2.5),
)

curve = truncation_error_curve(model, l_tilde=256, l_grid=[16, 24, 32, 48, 64, 96, 128],
                               t=10 * model.tau, n_real=30, seed=11)
curve.write_csv("truncation_curve.csv")

print("L      empirical      bound        flag")
for L, emp, bound, flag in curve.rows:
    print(f"{int(L):4d}  {emp:12.4e}  {bound:12.4e}  {flag}")

fit = fit_loglog_slope(curve)
print(f"\nfitted log-log slope {fit.slope:.3f} (r^2 = {fit.r2:.4f}) "
      f"over L in {fit.window}")
print("bound decay exponent for these spectra: "
      f"{-(min(2.3 + 2, 2.5 + 2 / model.alpha - 2)) / 2:.3f}")
print("wrote truncation_curve.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

xs = [r[0] for r in curve.rows]
fig, ax = plt.subplots(figsize=(6, 4))
ax.loglog(xs, [r[1] for r in curve.rows], "o", label="Monte Carlo estimate")
ax.loglog(xs, [r[2] for r in curve.rows], "r-", label="theoretical bound")
ax.set_xlabel("truncation degree L")
ax.set_ylabel("root mean square truncation error")
ax.legend()
fig.savefig("truncation_curve.png", dpi=120, bbox_inches="tight")
print("wrote truncation_curve.png")
