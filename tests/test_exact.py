"""Ties of the float chains settled in exact rational arithmetic (``_exact``),
on S = D^-1 P built from the float P: where the truth is an equality, the
float result sits on it or within its rounding of it."""

from fractions import Fraction

import pytest

from mixbounds import conductance_bounds, discrete_mixing_time, two_state, uniform_walk

from _exact import cut_conductances, stationary, stochastic, tv


def test_criterion_01_is_a_tie_of_the_distance_and_eps():
    """two_state(1/4)'s float rows sum to 1 exactly, so S = P, and pi = (1/2,
    1/2).  So TV(S(a, .), pi) = 1/4 = eps at t = 1: the smallest t with a
    distance at most eps is 1, and the library returns it, at that distance."""
    chain = two_state(0.25)
    S = stochastic(chain)
    assert S == [[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]]
    pi = stationary(S)
    assert pi == [Fraction(1, 2)] * 2
    assert tv(S[0], pi) == Fraction(1, 4)
    result = discrete_mixing_time(chain, "a", 0.25)
    assert result.time == 1 and result.achieved_tv == 0.25


@pytest.mark.parametrize("N", [5, 6])
def test_o16_is_a_tie_on_the_uniform_walk(N):
    """Each row of ``uniform_walk(N)`` holds N copies of fl(1/N), so S = J/N
    exactly, with pi uniform.  S is symmetric, S^2 = S and its trace is 1: a
    projection of rank 1, with eigenvalues 1 and 0, so lambda_1 = 1.  Every
    cut has conductance 1, so O16 (lambda_1 <= Phi) is an equality.  The
    float entry holds, with |bound - exact| within 16 n u (it read 5.6e-16
    and 7.8e-16, the bound below the exact side, held by ``HOLD_TOL``)."""
    chain = uniform_walk(N)
    S = stochastic(chain)
    assert S == [[Fraction(1, N)] * N for _ in range(N)]
    pi = stationary(S)
    assert pi == [Fraction(1, N)] * N
    square = [[sum(S[i][k] * S[k][j] for k in range(N)) for j in range(N)] for i in range(N)]
    assert square == S and sum(S[i][i] for i in range(N)) == 1
    assert set(cut_conductances(S, pi)) == {1}
    o16 = next(e for e in conductance_bounds(chain, None, None) if e.theorem == "O16")
    assert o16.holds and abs(o16.bound - o16.exact) <= 16 * N * 2.0**-53, o16
