"""Accuracy contracts of float outputs, checked against exact references."""

from __future__ import annotations

from fractions import Fraction

from dfchaos.wright_fisher import TransitionModel, transition_density


def test_float_route_kernels_within_contract():
    # theta = (1, 1/2), M = 12 is the worst case of the documented contract;
    # the last two coordinates are a float point pair seen at that model
    model = TransitionModel((Fraction(1), Fraction(1, 2)), 12)
    grid = [i / 16 for i in range(1, 16)] + [0.770180694361256, 0.6980598902210845]
    worst = 0.0
    for x in grid:
        for y in grid:
            floats = transition_density(model, 0.5, (x,), (y,)).contributions
            exact = transition_density(model, 0.5, (Fraction(x),), (Fraction(y),)).contributions
            scale = max(abs(c[2]) for c in exact)
            worst = max(worst, max(abs(a[2] - b[2]) for a, b in zip(floats, exact)) / scale)
    assert worst <= 5e-8


def test_three_atom_float_route_kernels_within_contract():
    # the stick-breaking bands at K = 3: 2.3e-13 measured on this grid
    model = TransitionModel((Fraction(1), Fraction(1, 2), Fraction(1, 2)), 5)
    grid = [(i / 8, j / 8) for i in range(1, 8) for j in range(1, 8 - i)]
    worst = 0.0
    for x in grid:
        for y in grid:
            floats = transition_density(model, 0.5, x, y).contributions
            image_x, image_y = tuple(map(Fraction, x)), tuple(map(Fraction, y))
            exact = transition_density(model, 0.5, image_x, image_y).contributions
            scale = max(abs(c[2]) for c in exact)
            worst = max(worst, max(abs(a[2] - b[2]) for a, b in zip(floats, exact)) / scale)
    assert worst <= 1e-12
