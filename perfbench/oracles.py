"""Independent answers for the query-mixed workload.

Every function here works on a plain Cayley table (a tuple of row
tuples, ``t[a][b]`` = a*b) straight from the definitions, by exhaustive
loops.  None imports sglab, so a shared bug cannot make a wrong library
answer look right.
"""

from __future__ import annotations

from itertools import permutations, product


def idealizer(t, members):
    """{x : x*a and a*x lie in A for every a in A}; all of S for empty A."""
    n = len(t)
    return frozenset(
        x for x in range(n) if all(t[x][a] in members and t[a][x] in members for a in members)
    )


def separator(t, members):
    """{x : x*a, a and a*x lie on the same side of A for every a}."""
    return frozenset(
        x
        for x in range(len(t))
        if all((t[x][a] in members) == (a in members) == (t[a][x] in members) for a in range(len(t)))
    )


def medial_witness(t, members):
    """First (x, a, b, y) in lexicographic order with xaby in A but xbay not."""
    n = len(t)
    for x, a, b, y in product(range(n), repeat=4):
        if t[t[t[x][a]][b]][y] in members and t[t[t[x][b]][a]][y] not in members:
            return (x, a, b, y)
    return None


def _partitions(n):
    """Restricted growth strings of length n, in lexicographic order."""

    def rec(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for v in range(max(prefix) + 2):
            yield from rec(prefix + (v,))

    yield from rec((0,))


def is_compatible(t, cls):
    """a ~ b forces a*c ~ b*c and c*a ~ c*b for every c."""
    n = len(t)
    for a in range(n):
        for b in range(a + 1, n):
            if cls[a] == cls[b]:
                for c in range(n):
                    if cls[t[a][c]] != cls[t[b][c]] or cls[t[c][a]] != cls[t[c][b]]:
                        return False
    return True


def congruences(t):
    """Class-id tuples of every congruence, partitions in lexicographic order."""
    return [p for p in _partitions(len(t)) if is_compatible(t, p)]


def canonical_class_ids(parts, n):
    """Class ids numbered by first appearance, from a list of classes."""
    assign = [0] * n
    for pid, part in enumerate(parts):
        for x in part:
            assign[x] = pid
    seen = {}
    return tuple(seen.setdefault(c, len(seen)) for c in assign)


def quotient_table(t, cls):
    """Quotient table over class ids, or None when a product depends on representatives."""
    k = max(cls) + 1
    q = [[None] * k for _ in range(k)]
    for a in range(len(t)):
        for b in range(len(t)):
            c = cls[t[a][b]]
            cell = q[cls[a]][cls[b]]
            if cell is None:
                q[cls[a]][cls[b]] = c
            elif cell != c:
                return None
    return tuple(tuple(row) for row in q)


def identity_of(t):
    ids = [e for e in range(len(t)) if all(t[e][x] == x and t[x][e] == x for x in range(len(t)))]
    return ids[0] if ids else None


def commutes(t):
    return all(t[a][b] == t[b][a] for a in range(len(t)) for b in range(len(t)))


def _fold(t, word):
    acc = word[0]
    for x in word[1:]:
        acc = t[acc][x]
    return acc


def first_permutation_identity(t, n_max):
    """(length, 1-based images) of the first identity x1..xn = x_p(1)..x_p(n)
    that S satisfies, n ascending then permutations in lex order."""
    n_el = len(t)
    for n in range(2, n_max + 1):
        words = list(product(range(n_el), repeat=n))
        folded = {w: _fold(t, w) for w in words}
        for perm in permutations(range(1, n + 1)):
            if perm == tuple(range(1, n + 1)):
                continue
            if all(folded[w] == folded[tuple(w[p - 1] for p in perm)] for w in words):
                return n, perm
    return None


def satisfies(t, perm):
    n = len(perm)
    return all(
        _fold(t, w) == _fold(t, tuple(w[p - 1] for p in perm))
        for w in product(range(len(t)), repeat=n)
    )


def lemma4(t):
    """(k, power chain as member sets, cycle start, counterexamples), as
    lemma4_minimal_k defines them."""
    n = len(t)
    cur = frozenset(range(n))
    chain = [cur]
    while True:
        nxt = frozenset(t[s][w] for s in range(n) for w in cur)
        if nxt in chain:
            cycle_start = chain.index(nxt)
            break
        chain.append(nxt)
        cur = nxt
    counterexamples = []
    for k, sk in enumerate(chain, start=1):
        bad = next(
            (
                (u, x, y, v)
                for u in sorted(sk)
                for x in range(n)
                for y in range(n)
                for v in sorted(sk)
                if t[t[t[u][x]][y]][v] != t[t[t[u][y]][x]][v]
            ),
            None,
        )
        if bad is None:
            return k, chain, cycle_start, counterexamples
        counterexamples.append((k, bad))
    return None, chain, cycle_start, counterexamples


def canonical_table(t):
    """Least relabeled table: element a is renamed p[a], filled forward."""
    n = len(t)
    best = None
    for p in permutations(range(n)):
        cand = [[0] * n for _ in range(n)]
        for a in range(n):
            row = cand[p[a]]
            ta = t[a]
            for b in range(n):
                row[p[b]] = p[ta[b]]
        cand = tuple(map(tuple, cand))
        if best is None or cand < best:
            best = cand
    return best
