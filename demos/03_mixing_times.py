"""Exact mixing times, the distance profile, and continuization.

Run:  python3 demos/03_mixing_times.py
"""

import numpy as np

from mixbounds import (
    continuous_mixing_time,
    d_profile,
    dhn,
    directed_cycle,
    discrete_mixing_time,
    matrix_exponential,
    two_state,
    uniform_walk,
)

# The uniform walk forgets its start in one step; the nearly periodic
# two-state chain needs ~0.35/delta steps.
print("uniform walk:", discrete_mixing_time(uniform_walk(4), 0, 0.25))
for delta in (0.25, 0.05, 0.005):
    res = discrete_mixing_time(two_state(delta), "a", 0.25)
    print(f"two-state delta={delta}: tau = {res.time} (tv {res.achieved_tv:.4f})")

# The worst-start distance profile is submultiplicative: d(s+t) <= 2 d(s) d(t).
prof = d_profile(dhn(4), 30)
print("\nDHN d(t), t=1..10:", [round(v, 3) for v in prof[:10]])
print("2 d(5)^2 >= d(10):", 2 * prof[4] ** 2 >= prof[9])

# Continuization replaces steps with exponential clocks: Q = P - I. Even the
# periodic cycle mixes in continuous time.
cycle = directed_cycle(3)
res = continuous_mixing_time(cycle, 0, 0.25)
print(f"\ncontinuized 3-cycle: tau = {res.time:.4f}")

# The transition kernel over a time interval is the matrix exponential,
# the uniformization series of the continuized chain, scaled and squared;
# rows stay stochastic.
Q = cycle.P - np.eye(3)
for t in (0.5, 2.0):
    E = matrix_exponential(Q, t)
    print(f"exp(Q t) at t={t}: row sums {E.sum(axis=1).round(12)}")
