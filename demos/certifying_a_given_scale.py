"""
Certifying a noise scale you already have
=========================================

check_approx_dp bounds the privacy-loss tail from above: at d >= 3 by
four 1-D integrals in prolate spheroidal coordinates, each enclosed by
tangent and chord envelopes on a grid of cells (at d = 2 by two
Riemann sums).  The verdict is sound in one direction: a True is a
certificate, a False means "not provable at this grid".
"""

from l2mech.calibrate import PrivacyParams
from l2mech.lossbounds import check_approx_dp

params = PrivacyParams(epsilon=1.0, delta=1e-3)
d = 10

for sigma in (0.95, 0.80, 0.70, 0.60, 0.55):
    rep = check_approx_dp(d, sigma, params)
    verdict = "certified" if rep.satisfies_dp else "NOT provable"
    print(f"sigma={sigma:.2f}  lhs <= {rep.lhs_upper:.3e}  "
          f"branch={rep.branch:11s} {verdict}")

print(f"\ndelta target was {params.delta}; the flip happens where the")
print("certified tail bound crosses it")

# a finer grid tightens the bound and can rescue a borderline scale
sigma = 0.7057
print(f"\nborderline case sigma={sigma}:")
for n in (100, 1000, 10000):
    rep = check_approx_dp(d, sigma, params, n_r=n, n_R=n)
    print(f"n={n:5d}  lhs <= {rep.lhs_upper:.6e}  certified={rep.satisfies_dp}")
