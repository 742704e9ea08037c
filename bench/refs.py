"""Reference mathematics for the benchmark checks, from the standard library only.

Nothing here imports cutpoly: every expected value is recomputed from its
definition or from a textbook recurrence, so a fault in the program cannot
also hide in the reference.  Polynomials are coefficient lists, constant
term first.
"""

from __future__ import annotations

import math
from functools import lru_cache


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


@lru_cache(maxsize=None)
def eulerian(n: int) -> tuple[int, ...]:
    """A_n(x) by A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1), A(1,0) = 1."""
    row = [1]
    for m in range(2, n + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0)
               + (m - k) * (row[k - 1] if k else 0) for k in range(m)]
    return tuple(row)


def closed_form(n: int) -> list[int]:
    """(x+1) A_{n-2}(x)^2, the h*-polynomial of Cut(K_{2,n-2})."""
    a = list(eulerian(n - 2))
    return poly_mul([1, 1], poly_mul(a, a))


def ehrhart_counts(h, d: int, top: int) -> list[int]:
    """i(P,m) = sum_i h*_i C(m+d-i, d) for m = 0..top."""
    return [sum(c * math.comb(m + d - i, d) for i, c in enumerate(h) if m + d - i >= 0)
            for m in range(top + 1)]


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """S(n,k) by S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n == k:
        return 1
    if n == 0 or k <= 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def chain_f_vector(n: int) -> list[int]:
    """(f_-1, ..., f_{2n-4}) of the initial complex: the convolution of the
    type-1 and type-2 chain counts, each a sum of j! S(n-2, j) terms."""
    def term(j):
        return math.factorial(j) * stirling2(n - 2, j) if j >= 0 else 0

    top = 2 * n - 3
    type1 = [term(k - 1) + 2 * term(k) + term(k + 1) for k in range(top + 1)]
    type2 = [2 * term(k) + term(k + 1) for k in range(top + 1)]
    return [sum(type1[a] * type2[k - a] for a in range(k + 1)) for k in range(top + 1)]


def f_to_h(f, d: int) -> list[int]:
    """sum_i f_{i-1} x^i (1-x)^(d+1-i), expanded."""
    total = [0] * (d + 2)
    for i, fi in enumerate(f):
        for j in range(d + 2 - i):
            total[i + j] += fi * math.comb(d + 1 - i, j) * (-1) ** j
    return trim(total)


def basis_family_sizes(n: int) -> tuple[int, int, int]:
    """Sizes of the three binomial families of the K_{2,n-2} cut-ideal basis.

    With k = n-2: 2^(k-1) unordered halves; C(2^k,2) - 3^k + 2^k incomparable
    pairs of subsets of {3..n}; family 2 drops the (2^k - 2)/2 complementary
    pairs already covered by family 1.
    """
    k = n - 2
    incomparable = math.comb(2 ** k, 2) - 3 ** k + 2 ** k
    return 2 ** (k - 1), incomparable - (2 ** k - 2) // 2, incomparable


def cut_columns(vertices: int, edges) -> list[tuple[int, ...]]:
    """Homogenized cut vectors (delta(S), 1) over all S not containing vertex 1."""
    cols = set()
    for mask in range(0, 1 << vertices, 2):
        cols.add(tuple((mask >> (u - 1) & 1) ^ (mask >> (v - 1) & 1) for u, v in edges) + (1,))
    return sorted(cols)


def sumset_counts(columns, top: int) -> list[int]:
    """|{sums of exactly m columns}| for m = 0..top, by plain set growth."""
    layer = {(0,) * len(columns[0])}
    sizes = [1]
    for _ in range(top):
        layer = {tuple(a + b for a, b in zip(s, c)) for s in layer for c in columns}
        sizes.append(len(layer))
    return sizes


def hstar_from_counts(counts, d: int) -> list[int]:
    """h*_i = sum_j (-1)^j C(d+1, j) i(P, i-j) for i = 0..d."""
    return trim(sum((-1) ** j * math.comb(d + 1, j) * counts[i - j]
                    for j in range(min(i, d + 1) + 1)) for i in range(d + 1))
