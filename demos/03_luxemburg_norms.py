"""Luxemburg norms on the circle and the disk.

The norm of f is the smallest C with integral of Psi(|f|/C) at most 1.  The
demo computes closed-form cases, shows the circle-to-disk contraction, and
the monomial dichotomy: monomials collapse in the disk norm while their
circle-sup norm never moves.
"""

import math

import numpy as np

from orlicz_lab import (
    DiskDomain,
    PowerFunction,
    bergman_norm,
    build_counterexample,
    circle,
    disk,
    hardy_norm,
    luxemburg_norm,
    make_monomial,
    make_polynomial,
)

p2 = PowerFunction(2)
dk = disk(256, 96)

print("== closed-form sanity ==")
r = luxemburg_norm(make_polynomial([3.0]), p2, dk)
print(f"constant 3 on the disk:   {r.value:.10f}  (exactly 3: Psi^-1(1) = 1)")
r = luxemburg_norm(make_monomial(1), p2, dk)
print(f"z on the disk, Psi = x^2: {r.value:.10f}  (= 1/sqrt(2))")

psi_c = build_counterexample(4)
r = luxemburg_norm(make_polynomial([3.0]), psi_c, dk)
print(f"constant 3, counterexample: {r.value:.10f} (= 3/Psi^-1(1) = 12)")

print("\n== contraction: disk norm <= circle-sup norm ==")
rng = np.random.default_rng(1)
for i in range(3):
    f = make_polynomial(rng.normal(size=8) + 1j * rng.normal(size=8))
    b = bergman_norm(f, p2, dom=dk)
    h = hardy_norm(f, p2)
    print(f"random polynomial {i}: disk {b.value:.6f} <= circle-sup {h.value:.6f}"
          f"   (ratio {b.value / h.value:.3f})")

print("\n== monomial dichotomy ==")
print(" n    circle-sup norm    disk norm (x^2)    1/sqrt(n+1)")
dom = DiskDomain.polar(8, 320)
for n in (1, 4, 16, 64, 256):
    h = hardy_norm(make_monomial(n), p2, dom=circle(64))
    b = luxemburg_norm(make_monomial(n), p2, dom)
    print(f"{n:4d}   {h.value:.10f}     {b.value:.10f}     {1 / math.sqrt(n + 1):.10f}")
print("the disk norms vanish but the circle norms do not: no inverse bound")
print("can hold, so the embedding is not an isomorphism onto its range")

print("\n== norm results carry their evidence ==")
r = bergman_norm(make_monomial(5), p2, dom=dk)
print(f"value {r.value:.12f}")
print(f"bracket [{r.bracket[0]:.12f}, {r.bracket[1]:.12f}]")
print(f"modular at value {r.modular_at_value:.12f}")
print(f"root-finder steps {r.bisection_iters}, quadrature error "
      f"estimate {r.quad_error_est:.2e}, converged {r.converged}")
