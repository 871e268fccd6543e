"""Fixed reference work that measures the machine's speed at one moment.

    python3 perfbench/reference.py

A fresh interpreter, a few standard-library imports and about 0.1 s of
the kind of work the artifact CLI does: a breadth-first coset walk that
allocates many small 2x2 integer matrices, and an exact fraction-free
elimination.  None of it is the program's code, so no change to the
program moves it.  run.py times it next to every workload run and
reports the workload's wall time in units of it.  Prints a checksum,
which run.py checks.
"""

import argparse  # noqa: F401  the imports are part of the reference cost
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import json  # noqa: F401

LEVEL = 150
SIZE = 30


class Mat:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o):
        return Mat(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                   self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)


def coset_walk(n):
    """Number of bottom rows (c, d) mod n reached from I by S and T."""
    gens = (Mat(0, -1, 1, 0), Mat(1, 1, 0, 1))
    seen = {(0, 1)}
    queue = [Mat(1, 0, 0, 1)]
    while queue:
        g = queue.pop()
        for s in gens:
            h = g * s
            key = (h.c % n, h.d % n)
            if key not in seen:
                seen.add(key)
                queue.append(h)
    return len(seen)


def bareiss_determinant(a):
    """Exact determinant by fraction-free elimination; a is consumed."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def main():
    state = 12345
    rows = []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE):
            state = (state * 1103515245 + 12345) % 2 ** 31
            row.append(state % 7 - 3)
        rows.append(row)
    print(coset_walk(LEVEL), bareiss_determinant(rows) % 1000003)


if __name__ == "__main__":
    main()
