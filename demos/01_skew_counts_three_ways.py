#!/usr/bin/env python3
"""Counting standard Young tableaux of skew shape, three independent ways.

A skew shape lam/alpha is what remains of the diagram of lam after the
diagram of alpha is removed from its upper-left corner.  A standard Young
tableau (SYT) of that shape fills the remaining cells with 1..n so that
rows increase rightward and columns increase downward.  This script counts
those fillings by brute-force placement, by the factorial determinant, and
by a character sum, and shows that the three always agree.
"""

from skewtab import (
    SkewShape,
    skew_syt_brute,
    skew_syt_char,
    skew_syt_det,
    syt_count,
)


def cells(shape):
    """Row-major (row, column) cells of the skew shape, 1-indexed."""
    padded = shape.inner + (0,) * (len(shape.outer) - len(shape.inner))
    return [
        (i + 1, j + 1)
        for i, (outer, inner) in enumerate(zip(shape.outer, padded))
        for j in range(inner, outer)
    ]


print(__doc__)

# A small shape, drawn out: (2,2,1)/(1) has cells at
#   . x
#   x x
#   x
shape = SkewShape((2, 2, 1), (1,))
print(f"shape {shape.outer}/{shape.inner}, cells: {cells(shape)}")
print(f"  brute-force placement : {skew_syt_brute(shape)}")
print(f"  factorial determinant : {skew_syt_det(shape)}")
print(f"  character sum         : {skew_syt_char(shape)}")
print()

# Straight shapes are the special case of an empty inner shape, and the
# determinant then reduces to the hook-length count.
for lam in [(3, 2), (4, 4), (5, 3, 1)]:
    straight = SkewShape(lam, ())
    assert skew_syt_det(straight) == syt_count(lam)
    print(f"f{lam} = {syt_count(lam)} (determinant agrees)")
print()

# Agreement across a sweep of shapes; the suite tests this exhaustively up
# to 10 cells, here is a taste.
print("shape                      brute    det   char")
for outer, inner in [
    ((4, 3, 1), (2,)),
    ((5, 4, 2), (3, 1)),
    ((4, 4, 4), (2, 2)),
    ((6, 3, 2, 1), (2, 1)),
]:
    shape = SkewShape(outer, inner)
    counts = (skew_syt_brute(shape), skew_syt_det(shape), skew_syt_char(shape))
    assert len(set(counts)) == 1
    print(f"{str(outer) + '/' + str(inner):25s}{counts[0]:6d} {counts[1]:6d} {counts[2]:6d}")

# The two-row family (m, m)/(2) has a tidy closed form; the exact ratio
# against the straight count reappears in the limit-shape demo.
print()
print("two-row family (m,m)/(2):")
for m in (2, 4, 8, 16):
    shape = SkewShape((m, m), (2,))
    print(f"  m={m:3d}: f = {skew_syt_det(shape)}")
