"""The quadratic Groebner basis of the cut ideal of K_{2,n-2} and its standard monomials.

The three binomial families are generated explicitly over partition variables
q_{A|B}, verified lead-over-trail under the reverse lexicographic order, and
checked to be a Groebner basis via Buchberger's criterion while its lead-sharing
S-pairs stay within a limit.  Counting
squarefree standard monomials (by formula and directly over the basis's
conflict graph) yields the f-vector of the initial-complex triangulation.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import CostGuardError, VerificationError, as_mask, int_digit_limit, shown
from .polynomial import IntPolynomial, stirling2
from .record import FrozenRecord


class VariableTable:
    """All 2^(n-1) partition variables of [n]: `masks[i]` is q_i's canonical
    side, the side not containing vertex 1, as an even bitmask (bit v-1 for
    vertex v), ascending in the monomial order.

    The order ascends by min side size, then puts split-pattern (vertex 2 in
    the mask) before 12-together, then compares the encoding of the mask.
    `names[i]` is q_i as text, "q(2,4)" for the side {2, 4}.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least 2 vertices")
        self.n = n
        encoding = {m: tuple(v for v in range(2, n + 1) if m >> (v - 1) & 1)
                    for m in range(0, 1 << n, 2)}

        def key(m):
            size = m.bit_count()
            return min(size, n - size), not m & 2, encoding[m]

        self.masks = tuple(sorted(encoding, key=key))
        self._index_by_mask = {m: i for i, m in enumerate(self.masks)}
        self._encodings = tuple(map(encoding.get, self.masks))
        self.names = tuple("q(" + ",".join(map(str, e)) + ")" for e in self._encodings)

    def __len__(self):
        return len(self.masks)

    def index_of(self, side) -> int:
        """Variable index of the partition separating `side`, vertices or a
        mask, from its complement."""
        mask = as_mask(side, self.n)
        return self._index_by_mask[mask ^ ((1 << self.n) - 1) if mask & 1 else mask]

    def encode(self, index: int) -> tuple[int, ...]:
        return self._encodings[index]


# Most binomials one basis may hold: 931,503 at n = 12, 3,842,059 at n = 13.
GB_BASIS_LIMIT = 1_000_000


@lru_cache(maxsize=None)
def variable_table(n: int) -> VariableTable:
    """Refused before it is built when the basis of [n] would hold more than
    GB_BASIS_LIMIT binomials: 2 C(2^k, 2) - 2 (3^k - 2^k) + 1 with k = n - 2,
    in [2^(2k-1), 2^(2k)) from k = 5 on.  Past the digits Python prints
    (2^10 > 10^3; `int_digit_limit` is at least 640) that size is not built."""
    k = max(n - 2, 0)
    unbuilt = k >= 5 and 3 * (2 * k - 1) >= 10 * int_digit_limit()
    size = None if unbuilt else 2 * math.comb(2 ** k, 2) - 2 * (3 ** k - 2 ** k) + 1
    if unbuilt or size > GB_BASIS_LIMIT:
        raise CostGuardError(f"Groebner basis refused for n = {n}: {shown(size, 2 * k)} "
                             f"binomials estimated, limit {GB_BASIS_LIMIT}")
    return VariableTable(n)


class PartitionMonomial(tuple):
    """Monomial of K[q]: the tuple of its variable indices, ascending and
    repeated per exponent, as an instance of one cached subclass per ground
    set that holds `n` (a tuple subclass can hold no per-instance slot).

    Hash and equality are the tuple's, except that monomials over different
    ground sets differ; assignment raises dataclasses.FrozenInstanceError.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__
    __setattr__ = FrozenRecord.__setattr__
    __delattr__ = FrozenRecord.__delattr__

    def __new__(cls, n: int, ids: tuple[int, ...]):
        return tuple.__new__(_monomial_type(n), sorted(ids))

    def __eq__(self, other):
        if isinstance(other, PartitionMonomial) and other.n != self.n:
            return False
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        return f"PartitionMonomial(n={self.n!r}, ids={tuple(self)!r})"

    def __reduce__(self):
        return PartitionMonomial, (self.n, tuple(self))

    @property
    def ids(self) -> "PartitionMonomial":
        return self

    @property
    def degree(self) -> int:
        return len(self)

    @property
    def squarefree(self) -> bool:
        return len(set(self)) == len(self)


@lru_cache(maxsize=None)
def _monomial_type(n: int) -> type:
    """The PartitionMonomial subclass of the ground set [n]."""
    return type(PartitionMonomial.__name__, (PartitionMonomial,), {"__slots__": (), "n": n})


def monomial(n: int, sides) -> PartitionMonomial:
    """Monomial from an iterable of partition sides (any side of each partition)."""
    table = variable_table(n)
    return PartitionMonomial(n, tuple(sorted(table.index_of(s) for s in sides)))


def monomial_order_cmp(a: PartitionMonomial, b: PartitionMonomial) -> int:
    """Reverse lexicographic comparison; returns -1, 0, or 1.

    The monomial holding the smallest differing variable with the larger
    exponent is the smaller one.  No degree comparison is imposed; on equal
    degrees this is the usual reverse lexicographic order.
    """
    if a.n != b.n:
        raise ValueError("mixed ground sets")
    for va, vb in zip(a, b):
        if va != vb:
            return -1 if va < vb else 1
    return (len(a) < len(b)) - (len(a) > len(b))


class CutBinomial(FrozenRecord):
    """Marked binomial lead - trail; lead strictly greater under the monomial order."""

    __slots__ = ("family", "lead", "trail")  # int, PartitionMonomial, PartitionMonomial


def _families(n: int):
    """Yield (family, lead, trail) for every basis binomial, each side an
    ascending pair of variable ids, read off the masks over {3..n}: a split
    variable q_{{1} u S | {2} u T} is the canonical side {2} u T, a
    12-together variable q_{S | {1,2} u T} the side S.  On ascending pairs,
    tuple order is `monomial_order_cmp`; a lead not above its trail raises."""
    if n < 4:
        raise ValueError("cut-ideal basis needs n >= 4")
    index = variable_table(n)._index_by_mask
    rest = ((1 << n) - 1) & ~0b11  # vertices 3..n

    def split(s):
        return index[0b10 | (rest & ~s)]

    def ordered(family, lead, trail):
        lead, trail = tuple(sorted(lead)), tuple(sorted(trail))
        if lead <= trail:
            raise VerificationError(f"family {family} lead {lead} not greater than trail {trail}")
        return family, lead, trail

    subsets = range(0, 1 << n, 4)  # masks of the subsets of {3..n}, ascending
    for s in subsets:
        if s < rest & ~s:  # unordered halves {S, T}
            yield ordered(1, (split(s), split(rest & ~s)), (index[0], index[rest]))
    for s, t in itertools.combinations(subsets, 2):
        meet, join = s & t, s | t
        if meet in (s, t):
            continue  # comparable sides give no relation
        if meet or join != rest:  # a complementary pair's lead is family 1's
            yield ordered(2, (split(s), split(t)), (split(meet), split(join)))
        yield ordered(3, (index[s], index[t]), (index[meet], index[join]))


@lru_cache(maxsize=None)
def _generate_gb_ids(n: int) -> tuple:
    table = variable_table(n)
    size = len(table)
    rank = [0] * size  # each variable's place among the encodings
    for r, i in enumerate(sorted(range(size), key=table.encode)):
        rank[i] = r

    def order(binomial):  # (family, sorted lead encodings), as one int
        lo, hi = sorted(rank[i] for i in binomial[1])
        return (binomial[0] * size + lo) * size + hi

    new, cls = tuple.__new__, _monomial_type(n)
    return tuple(CutBinomial(family=family, lead=new(cls, lead), trail=new(cls, trail))
                 for family, lead, trail in sorted(_families(n), key=order))


def generate_gb(n: int) -> list[CutBinomial]:
    """All basis binomials of the cut ideal of K_{2,n-2}, families 1..3, deduplicated."""
    return list(_generate_gb_ids(n))


@lru_cache(maxsize=None)
def _conflict_masks(n: int) -> tuple[int, ...]:
    """Per-variable bitmask of the variables it forms an initial monomial
    with, read off the families' lead pairs: route two's one table of leads."""
    bad = [0] * len(variable_table(n))
    for _, (i, j), _ in _families(n):
        bad[i] |= 1 << j
        bad[j] |= 1 << i
    return tuple(bad)


def is_standard(mono: PartitionMonomial) -> bool:
    """True iff no generated initial monomial divides `mono`: every lead is
    squarefree, so no two variables of its support may conflict."""
    bad = _conflict_masks(mono.n)
    support = sum(1 << i for i in set(mono))
    return not any(bad[i] & support for i in mono)


def _lead_dividing(ids, leads):
    """First lead pair (i, j), i < j, in ascending order, that divides the
    monomial with variable ids `ids`; None when the monomial is standard."""
    for pair in itertools.combinations(sorted(set(ids)), 2):
        if pair in leads:
            return pair
    return None


# ---------------------------------------------------------------------------
# normal forms and Buchberger verification
# ---------------------------------------------------------------------------

def _normal_form(ids: tuple, trails) -> tuple:
    """Normal form of the monomial with ascending variable ids `ids` against
    `trails`, each lead's id pair to its trail's: the first lead dividing it is
    rewritten to its trail, lowering it in the order, until none divides it."""
    while (pair := _lead_dividing(ids, trails)) is not None:
        rest = list(ids)
        rest.remove(pair[0])
        rest.remove(pair[1])
        ids = tuple(sorted(rest + list(trails[pair])))
    return ids


# S-pairs one Buchberger check may reduce: 117,600 at n = 8, 1,178,436 at n = 9.
BUCHBERGER_PAIR_LIMIT = 200_000


def buchberger_check(n: int) -> tuple[bool, dict]:
    """Verify the Groebner property: every S-polynomial reduces to zero.

    Coprime-lead pairs are skipped by Buchberger's first criterion but counted
    in the certificate.  Two distinct quadratic leads share at most one
    variable, so the pairs reduced are those through each variable, sum_v
    C(deg v, 2) over the conflict graph; that count is read before the basis
    is built and refused above BUCHBERGER_PAIR_LIMIT.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    estimate = sum(math.comb(bad.bit_count(), 2) for bad in _conflict_masks(n))
    if estimate > BUCHBERGER_PAIR_LIMIT:
        raise CostGuardError(f"Buchberger check refused for n = {n}: {estimate} lead-sharing "
                             f"S-pairs estimated, limit {BUCHBERGER_PAIR_LIMIT}")
    gb = generate_gb(n)
    trails = {tuple(b.lead): tuple(b.trail) for b in gb}
    through = [[] for _ in range(len(variable_table(n)))]
    for a, b in enumerate(gb):
        for v in b.lead:
            through[v].append(a)
    pairs = sorted(itertools.chain.from_iterable(
        itertools.combinations(ids, 2) for ids in through))
    failures = []
    for a, b in pairs:
        # the S-polynomial (lcm/lead_a) trail_a - (lcm/lead_b) trail_b reduces
        # to zero when its two monomials share a normal form
        support = set(gb[a].lead) | set(gb[b].lead)
        plus, minus = (_normal_form(tuple(sorted((*support.difference(g.lead), *g.trail))), trails)
                       for g in (gb[a], gb[b]))
        if plus != minus:
            failures.append({
                "pair": [a, b],
                "normal_form": {str(m): c for m, c in sorted([(plus, 1), (minus, -1)])},
            })
    total = math.comb(len(gb), 2)
    certificate = {
        "n": n,
        "basis_size": len(gb),
        "pairs_total": total,
        "pairs_skipped_coprime": total - len(pairs),
        "pairs_reduced": len(pairs),
        "failures": failures,
    }
    return (not failures, certificate)


# ---------------------------------------------------------------------------
# squarefree standard monomials, chains, and the f-vector
# ---------------------------------------------------------------------------

# Most supports one squarefree walk may visit.  The plain walk takes about
# 3 us a support (Python 3.11 on a 2-vCPU VM), so this is about 12 s; it admits
# every walk at n <= 7, up to degree 4 at n = 8, 3 at n = 9, 10 and 2 at n = 11, 12.
SQUAREFREE_WALK_LIMIT = 4_000_000


@lru_cache(maxsize=None)
def _independent_set_counts(n: int, pool: int) -> tuple[int, ...]:
    """Independent sets of the conflict graph within `pool`, by size, as chains along
    the variables sorted by (split, side size): P_v = x (1 + sum of P_u over the
    fitting u before v).  The first intransitive triple t < u < v is split on once,
    into the sets without v and v with its fits; a second raises VerificationError."""
    bad = _conflict_masks(n)
    masks = variable_table(n).masks
    order = sorted(range(len(bad)), key=lambda i: (masks[i] & 2, masks[i].bit_count()))

    def chains(pool, may_split):
        fits, ending, seen = {}, {}, 0
        for v in (v for v in order if pool >> v & 1):
            fits[v] = below = seen & ~bad[v]
            tail = IntPolynomial.one()
            while below:
                u = (below & -below).bit_length() - 1
                below &= below - 1
                clash = fits[u] & bad[v]  # each t here makes (t, u, v) intransitive
                if clash and not may_split:
                    raise VerificationError(f"second intransitive triple for n = {n}: "
                                            f"variables {clash.bit_length() - 1} < {u} < {v}")
                if clash:
                    rest = pool & ~(1 << v)
                    return chains(rest, False) + chains(rest & ~bad[v], False).shifted(1)
                tail += ending[u]
            ending[v] = tail.shifted(1)
            seen |= 1 << v
        return sum(ending.values(), IntPolynomial.one())

    return chains(pool, True).coeffs


def _chain_masks(n: int) -> tuple[tuple[int, int], ...]:
    """Per variable, (split, mask over {3..n}), split when vertex 2 is in its
    canonical side: for a split variable the set A' where its vertex-1 side is
    {1} u A', for a together variable its side not containing 1 or 2 (bit v-1
    for vertex v)."""
    rest = ((1 << n) - 1) & ~0b11
    return tuple((m & 2, rest & ~m if m & 2 else m) for m in variable_table(n).masks)


@lru_cache(maxsize=None)
def _chain_compatible(n: int) -> tuple[int, ...]:
    """Per variable i, the bitmask of the variables j for which {i, j} passes
    the nested-chain test: always across the two classes, and within one
    class when the two sets are distinct and nested and, in the split class,
    not {empty set, {3..n}}.  Both chain conditions are pairwise, so this
    table decides them.  Built from `_chain_masks` alone, not from the basis."""
    masks = _chain_masks(n)
    rest = ((1 << n) - 1) & ~0b11
    out = []
    for splits_i, a in masks:
        fits = 0
        for j, (splits_j, b) in enumerate(masks):
            if splits_i != splits_j or (
                    a != b and not (a & ~b and b & ~a)
                    and not (splits_i and {a, b} == {0, rest})):
                fits |= 1 << j
        out.append(fits)
    return tuple(out)


def enumerate_squarefree_standard(n: int, k: int) -> list[PartitionMonomial]:
    """All squarefree standard monomials of degree k, ascending-id order.

    A walk over the basis's conflict graph, refused before its first step
    when the supports of degree up to k, read from the counts of
    `squarefree_standard_counts`, pass SQUAREFREE_WALK_LIMIT.  From k = 2 on
    it first compares the chain description with the basis: the pairs that
    `_chain_compatible` passes must be exactly those that form no initial
    monomial, and the first pair (i, j) that differs raises
    VerificationError.  Both chain conditions are pairwise, so that settles
    every support the walk visits.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    everyone = (1 << len(variable_table(n))) - 1
    visits = sum(_independent_set_counts(n, everyone)[:k + 1])
    if visits > SQUAREFREE_WALK_LIMIT:
        raise CostGuardError(f"squarefree walk refused for n = {n}: {visits} supports "
                             f"estimated, limit {SQUAREFREE_WALK_LIMIT}")
    new, cls = tuple.__new__, _monomial_type(n)
    if k == 0:
        return [new(cls, ())]
    bad = _conflict_masks(n)
    if k >= 2:
        for i, fits in enumerate(_chain_compatible(n)):
            wrong = (fits ^ (everyone & ~bad[i])) & ~(1 << i)
            if wrong:
                j = (wrong & -wrong).bit_length() - 1
                raise VerificationError(f"chain characterization failed for {(i, j)}")
    out = []

    def walk(chosen, allowed):
        if len(chosen) + 1 == k:
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                out.append(new(cls, chosen + (low.bit_length() - 1,)))
            return
        while allowed:
            low = allowed & -allowed
            j = low.bit_length() - 1
            allowed ^= low
            walk(chosen + (j,), allowed & ~bad[j])

    walk((), everyone)
    return out


def squarefree_standard_counts(n: int) -> list[int]:
    """Counts of squarefree standard monomials by degree, taken directly over
    the basis's conflict graph as counts of its independent sets.  The chain
    formulas are never consulted."""
    return list(_independent_set_counts(n, (1 << len(variable_table(n))) - 1))


def count_type1(n: int, k: int) -> int:
    """Squarefree standard monomials of degree k over 12-together variables:
    (k-1)! S(n-2,k-1) + 2 k! S(n-2,k) + (k+1)! S(n-2,k+1)."""
    return _chain_term(n, k - 1) + 2 * _chain_term(n, k) + _chain_term(n, k + 1)


def count_type2(n: int, k: int) -> int:
    """Squarefree standard monomials of degree k over split variables:
    2 k! S(n-2,k) + (k+1)! S(n-2,k+1)."""
    return 2 * _chain_term(n, k) + _chain_term(n, k + 1)


def _chain_term(n: int, j: int) -> int:
    if n < 4:
        raise ValueError("need n >= 4")
    if j < 0:
        return 0
    return math.factorial(j) * stirling2(n - 2, j)


def f_vector(n: int) -> list[int]:
    """Face counts (f_{-1}, f_0, ..., f_{2n-4}) of the initial-complex triangulation.

    f_{k-1} is the convolution sum over splitting a degree-k squarefree
    standard monomial into its two class factors: the coefficients of the
    product of the two classes' count polynomials, whose degree is 2n - 3.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    type1 = IntPolynomial(count_type1(n, k) for k in range(n))
    type2 = IntPolynomial(count_type2(n, k) for k in range(n - 1))
    return list((type1 * type2).coeffs)


def count_standard_by_degree(n: int, m: int) -> int:
    """All (not necessarily squarefree) standard monomials of degree m.

    The initial ideal is generated by squarefree quadrics, so a monomial is
    standard exactly when its support is a squarefree standard one: a face of
    the initial complex.  A k-element support carries C(m-1, k-1) monomials
    of degree m >= 1, so the count is sum_k f_{k-1} C(m-1, k-1) over the
    independent-set counts of `squarefree_standard_counts` (Stanley,
    *Combinatorics and Commutative Algebra*, 1996, ch. II.1), under the basis
    guard of `variable_table`.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    faces = squarefree_standard_counts(n)
    if not m:
        return 1
    return sum(f * math.comb(m - 1, k - 1) for k, f in enumerate(faces) if k)


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

def format_binomial(b: CutBinomial) -> str:
    names = variable_table(b.lead.n).names
    return "*".join([names[i] for i in b.lead]) + " - " + "*".join([names[i] for i in b.trail])


def basis_payload(binomials) -> list[dict]:
    """One {family, lead, trail} dict per binomial, each variable encoded as the
    sorted side not containing vertex 1; the `gb N list` report's basis.  A
    call builds one list per variable and shares it across its binomials."""
    if not binomials:
        return []
    sides = list(map(list, variable_table(binomials[0].lead.n)._encodings))
    return [{"family": b.family, "lead": [sides[i] for i in b.lead],
             "trail": [sides[i] for i in b.trail]} for b in binomials]

