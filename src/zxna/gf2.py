"""Shared GF(2) linear algebra kernel.

A matrix is a list of rows and each row is a Python int: bit ``j`` is the
entry in column ``j``.  Only the columns below ``ncols`` take part in the
elimination.  Higher bits ride along with every row operation, so a caller
that sets one distinct bit per input row above ``ncols`` can read, from
each reduced row, which input rows were added to make it.  The gflow
search uses that to solve a whole layer with one elimination; circuit
extraction uses the recorded row operations as CX gates.
"""

from __future__ import annotations

__all__ = ["row_reduce"]


def row_reduce(rows: list[int], ncols: int) -> tuple[list[int], list[tuple[int, int]], list[int]]:
    """Reduced row-echelon form over GF(2) of the columns below ``ncols``.

    Returns ``(rref, ops, pivot_cols)`` where each op ``(src, dst)`` means
    "row dst ^= row src" and replaying the ops on the input reproduces the
    output.  Columns are pivoted in increasing order on the first row at or
    below the current one.  Row swaps are expressed as three xor ops so that
    every operation maps to a single CX gate during extraction.
    """
    a = list(rows)
    n = len(a)
    ops: list[tuple[int, int]] = []
    pivots: list[int] = []

    def xor(src: int, dst: int) -> None:
        a[dst] ^= a[src]
        ops.append((src, dst))

    r = 0
    for c in range(ncols):
        if r == n:
            break
        bit = 1 << c
        pivot = next((i for i in range(r, n) if a[i] & bit), None)
        if pivot is None:
            continue
        if pivot != r:
            xor(pivot, r)
            xor(r, pivot)
            xor(pivot, r)
        for i in range(n):
            if i != r and a[i] & bit:
                xor(r, i)
        pivots.append(c)
        r += 1
    return a, ops, pivots
