#!/usr/bin/env python3
"""Stabilized polynomial symmetry algebras of the flat Monge models
n = 5..10, the flat free models of step 3 and 4, and the n = 5 Monge model
prolonged once, as a Markdown table.

Columns: the dimension n, the dimension of the algebra, the Doubrov-Zelenko
bound 2n-1 (14 at n = 5; only for cube 5), the largest degree of a basis
field, whether the weight-block certificate holds (otherwise the per-degree
loop answered), and the seconds of the solve.

    PYTHONPATH=src python3 scripts/run_symmetries.py
"""

import time

from rank2dist.distribution import cube_dim
from rank2dist.kernel import Q
from rank2dist.models import (flat_from_symbol, free_nilpotent_symbol,
                              monge_model, prolong)
from rank2dist.symmetry import stabilized_symmetry_basis

ROWS = [("monge n=%d" % n, lambda n=n: monge_model(n))
        for n in range(5, 11)] + [
    ("free-flat step=%d" % s,
     lambda s=s: flat_from_symbol(free_nilpotent_symbol(s)))
    for s in (3, 4)] + [
    ("monge n=5 prolonged once", lambda: prolong(monge_model(5)))]


def main():
    print("| input | n | dim | bound | degree | certified | seconds |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, make in ROWS:
        dist = make()
        n = dist.chart.dim
        start = time.perf_counter()
        out = stabilized_symmetry_basis(dist)
        seconds = time.perf_counter() - start
        cube = cube_dim(dist, [Q(0)] * n)
        bound = (14 if n == 5 else 2 * n - 1) if cube == 5 else "-"
        print("| %s | %d | %d | %s | %d | %s | %.2f |"
              % (name, n, out.dim, bound, out.degree,
                 "yes" if out.certified else "no", seconds), flush=True)


if __name__ == "__main__":
    main()
