"""Irreducible symmetric-group characters and straight-shape SYT counts.

``character`` applies the border-strip (Murnaghan-Nakayama) rule layer by
layer, with no recursion.  A layer maps shapes to signed coefficients and
starts at {lam: 1}.  For each part r >= 2 of the class, every border strip
of size r is removed from every shape in the layer: on first-column hook
lengths (the beta set {lam_i + ell - i}) that means moving one beta value
down by r into a free slot, with sign (-1)**(number of occupied slots jumped
over).  Shapes reached twice merge and zero coefficients drop out.  The 1s
of the class are left for last: chi^shape(1^m) = f^shape, so the character
is the sum of coefficient times the hook-length count ``syt_count``.  A
shape longer than it is wide starts from its conjugate with the sign of the
class, chi^lam(mu) = sgn(mu) chi^lam'(mu), so the beta sets stay as short as
the shorter of the two.  Python recursion depth does not depend on the
weight or the class.

Memo policy: only ``syt_count`` is memoized, with an uncapped ``lru_cache``
(thread-safe; at worst two threads compute the same deterministic value).
``character`` keeps no table of its own: its layers are rebuilt on each
call, and its hook-length finish reads ``syt_count``'s.
``clear_character_cache()`` empties that table.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from .exact import exact_div
from .partitions import Partition, conjugate, validate_partition


@lru_cache(maxsize=None)
def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of straight shape lam (hook lengths)."""
    n = sum(lam)
    if n == 0:
        return 1
    cols = conjugate(lam)
    hooks = prod(
        lam[i] - j + cols[j] - i - 1
        for i in range(len(lam))
        for j in range(lam[i])
    )
    return exact_div(factorial(n), hooks, "hook lengths of %s", lam)


def _from_beta(beta: list[int]) -> Partition:
    m = len(beta)
    return tuple(p for i, b in enumerate(beta) if (p := b - (m - 1 - i)) > 0)


def _strip_layer(layer: dict[Partition, int], r: int) -> dict[Partition, int]:
    """Remove every border strip of size r from every shape in layer."""
    out: dict[Partition, int] = {}
    for lam, coeff in layer.items():
        ell = len(lam)
        beta = [lam[i] + ell - 1 - i for i in range(ell)]
        occupied = set(beta)
        for i, b in enumerate(beta):
            nb = b - r
            if nb < 0 or nb in occupied:
                continue
            height = sum(1 for x in range(nb + 1, b) if x in occupied)
            shape = _from_beta(sorted(beta[:i] + beta[i + 1 :] + [nb], reverse=True))
            out[shape] = out.get(shape, 0) + (-coeff if height % 2 else coeff)
    return {shape: c for shape, c in out.items() if c}


def character(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible indexed by lam on the class of type mu.

    Both must be partitions of the same weight; ValueError otherwise.
    """
    lam, mu = validate_partition(lam), validate_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"invalid character key: |{lam}| != |{mu}|")
    if lam and len(lam) > lam[0]:
        # chi^lam(mu) = sgn(mu) chi^lam'(mu): strip the shorter conjugate
        layer = {conjugate(lam): (-1) ** (sum(mu) - len(mu))}
    else:
        layer = {lam: 1}
    for r in mu:
        if r != 1:
            layer = _strip_layer(layer, r)
    return sum(c * syt_count(shape) for shape, c in layer.items())


def clear_character_cache() -> None:
    """Empty the ``syt_count`` table, the one table the char route fills."""
    syt_count.cache_clear()
