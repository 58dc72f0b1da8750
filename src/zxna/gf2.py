"""Shared GF(2) linear algebra kernel.

A matrix is a list of rows and each row is a Python int: bit ``j`` is the
entry in column ``j``.  Only the columns below ``ncols`` take part in the
elimination.  Higher bits are augmented columns: they ride along with every
row operation, so a caller that puts right-hand sides there reads each one's
reduced form off the result.  The gflow search solves a whole layer that way
with one elimination; circuit extraction uses the recorded row operations as
CX gates.
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
    mask = (1 << ncols) - 1

    def xor(src: int, dst: int) -> None:
        a[dst] ^= a[src]
        ops.append((src, dst))

    for r in range(n):
        # rows r.. are zero left of the next pivot column: their OR's lowest bit
        low = 0
        for row in a[r:]:
            low |= row
        low &= mask
        if not low:
            break
        bit = low & -low
        pivot = next(i for i in range(r, n) if a[i] & bit)
        if pivot != r:
            xor(pivot, r)
            xor(r, pivot)
            xor(pivot, r)
        for i in range(n):
            if i != r and a[i] & bit:
                xor(r, i)
        pivots.append(bit.bit_length() - 1)
    return a, ops, pivots
