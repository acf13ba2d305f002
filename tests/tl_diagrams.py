"""Test helpers on Temperley-Lieb diagrams: enumeration, planarity, words.

A diagram of TL_n is the tuple of partners of its 2n boundary points
(bottom 0..n-1, then top n..2n-1, each left to right), as in
``skeintails.tl_oracle``.  The package itself never enumerates diagrams:
the tests use these helpers to sample them and to name them by their
balanced-parenthesis word.
"""

from __future__ import annotations


def _cycle_pos(n: int, p: int) -> int:
    # Boundary cycle: bottom left-to-right, then top right-to-left.
    return p if p < n else 3 * n - 1 - p


def is_planar(d: tuple[int, ...]) -> bool:
    """Whether the involution d is drawn without crossings."""
    n2 = len(d)
    n = n2 // 2
    cyc = [0] * n2
    for p in range(n2):
        cyc[_cycle_pos(n, p)] = _cycle_pos(n, d[p])
    stack: list[int] = []
    for pos in range(n2):
        if stack and stack[-1] == pos:
            stack.pop()
        else:
            q = cyc[pos]
            if q < pos:
                return False
            stack.append(q)
    return not stack


def to_parens(d: tuple[int, ...]) -> str:
    """Balanced-parenthesis word over the boundary cycle (canonical)."""
    n = len(d) // 2
    out = []
    for pos in range(2 * n):
        p = _cycle_pos(n, pos)  # the cycle map is its own inverse
        out.append("(" if _cycle_pos(n, d[p]) > pos else ")")
    return "".join(out)


def enumerate_matchings(n: int) -> list[tuple[int, ...]]:
    """All crossingless diagrams of TL_n, ordered by parenthesis word."""
    n2 = 2 * n

    def rec(points: tuple[int, ...]):
        if not points:
            yield []
            return
        a = points[0]
        for idx in range(1, len(points), 2):
            b = points[idx]
            inside = points[1:idx]
            outside = points[idx + 1 :]
            for m1 in rec(inside):
                for m2 in rec(outside):
                    yield [(a, b)] + m1 + m2

    out = []
    for arcs in rec(tuple(range(n2))):
        d = [0] * n2
        for a, b in arcs:
            p, q = _cycle_pos(n, a), _cycle_pos(n, b)
            d[p], d[q] = q, p
        out.append(tuple(d))
    out.sort(key=to_parens)
    return out
