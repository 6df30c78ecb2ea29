"""Brute-force oracles shared by the tests."""

import itertools


def projective_points(p: int, nvars: int):
    """All points of P^{nvars-1}(F_p), one representative each (first nonzero
    coordinate 1), ordered by the position of that coordinate, then the rest
    lexicographically."""
    for lead in range(nvars):
        tail = nvars - lead - 1
        for rest in itertools.product(range(p), repeat=tail):
            yield [0] * lead + [1] + list(rest)
