"""Two-dimensional multi-index algebra.

A multi-index is a pair ``(m1, m2)`` of nonnegative integers encoding the
power product ``p1**m1 * p2**m2``. The canonical representative of the pair
``{m, m_swapped}`` is the one with ``m1 >= m2``; coefficients at the swapped
index are complex conjugates of those at the canonical one, so only the
canonical half needs to be computed.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ArgumentError

MultiIndex = tuple[int, int]

E1: MultiIndex = (1, 0)
E2: MultiIndex = (0, 1)


def order(m: MultiIndex) -> int:
    return m[0] + m[1]


def symmetric(m: MultiIndex) -> MultiIndex:
    return (m[1], m[0])


def all_indices(order_: int) -> list[MultiIndex]:
    """All order_+1 multi-indices at the given order, m1 descending."""
    if order_ < 1:
        raise ArgumentError(f"order must be >= 1, got {order_}")
    return [(order_ - i, i) for i in range(order_ + 1)]


def canonical_indices(order_: int) -> list[MultiIndex]:
    """Canonical (m1 >= m2) multi-indices at the given order, m1 descending."""
    return [m for m in all_indices(order_) if m[0] >= m[1]]


def resonant_slot(m: MultiIndex) -> int | None:
    """Near-resonance classification for order >= 2.

    Returns 0 when the first reduced-dynamics coefficient is active
    (m1 - m2 = +1), 1 when the second is (m1 - m2 = -1), None otherwise.
    Even orders are never resonant.
    """
    if order(m) < 2:
        raise ArgumentError("leading-order indices are classified separately")
    d = m[0] - m[1]
    if d == 1:
        return 0
    if d == -1:
        return 1
    return None


def table_row(s: MultiIndex, lo: int) -> int:
    """Row of index s in a table of the indices of orders lo and up, in
    ascending order and each order's in `all_indices` order."""
    q = order(s)
    return (q * (q + 1) - lo * (lo + 1)) // 2 + s[1]


def r1_active_index(order_: int) -> MultiIndex:
    """The unique canonical index with an active first reduced coefficient."""
    if order_ < 3 or order_ % 2 == 0:
        raise ArgumentError(f"no active reduced coefficient at order {order_}")
    return ((order_ + 1) // 2, (order_ - 1) // 2)


@lru_cache(maxsize=None)
def decomps(m: MultiIndex, parts: int) -> tuple[tuple[MultiIndex, ...], ...]:
    """Ordered decompositions of m into `parts` indices, each of order >= 1.

    The first part varies slowest, each component ascending, so parts=2
    yields m = u + v and parts=3 yields m = u + v + t. The returned set is
    closed under permutation of the parts.
    """
    if parts == 1:
        return ((m,),) if order(m) >= 1 else ()
    out = []
    for u1 in range(m[0] + 1):
        for u2 in range(m[1] + 1):
            u = (u1, u2)
            if order(u) >= 1:
                out.extend((u, *rest) for rest in decomps((m[0] - u1, m[1] - u2), parts - 1))
    return tuple(out)
