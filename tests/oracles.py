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


def grid_injective(L) -> bool:
    """Whether a matrix of linear forms has full column rank at some point.

    Every maximal minor has degree <= v = L.ncols in each variable, so it
    vanishes identically iff it vanishes on the grid {0..v}^nvars; the
    grid's coordinates must stay distinct in the field, so over F_p it
    needs p > v.
    """
    v = L.ncols
    if L.field.kind == "Fp" and L.field.p <= v:
        raise ValueError(f"the grid needs p > {v}")
    return any(L.at(list(pt)).rank() == v
               for pt in itertools.product(range(v + 1), repeat=L.nvars) if any(pt))


class ReferenceScan:
    """Splits every line the long way: restrict, line_status, splitting_type.

    A drop-in for monadlab.lines_scan._ScanContext with no per-scan
    certificate and no jump matrix, so a scan run with it in place is the
    reference that the scan's shortcuts must reproduce.
    """

    def __init__(self, M):
        self.M = M

    def split(self, line):
        from monadlab.pencil import line_status, restrict, splitting_type
        pc = restrict(self.M, line)
        if not line_status(pc).clean:
            return ("degenerate", None)
        return ("clean", splitting_type(pc).parts)
