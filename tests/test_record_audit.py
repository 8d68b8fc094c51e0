"""Sweep records audited against the paper's definitions.

The brute force here folds words and walks power sets by hand over the
Cayley table.  It imports none of sglab's predicates: only the catalog,
to list the tables, and the sweep, whose records it audits.
"""

import hashlib
from itertools import permutations, product

from sglab import SweepConfig, catalog_line, enumerate_semigroups, run_sweep


def _fold(t, word):
    value = word[0]
    for x in word[1:]:
        value = t[value][x]
    return value


def first_identity(t, longest):
    """(n, 1-based images) of the first identity x1..xn = x_p(1)..x_p(n)
    that holds in t, n ascending from 2 and permutations in lex order."""
    for n in range(2, longest + 1):
        words = list(product(range(len(t)), repeat=n))
        value = {w: _fold(t, w) for w in words}
        for perm in permutations(range(1, n + 1)):
            if perm == tuple(range(1, n + 1)):
                continue
            if all(value[w] == value[tuple(w[p - 1] for p in perm)] for w in words):
                return n, perm
    return None


def least_swap_exponent(t):
    """Least k with u*x*y*v = u*y*x*v for u, v in S^k and x, y in S,
    along the chain S, S^2, ... up to its first repeated set; None when
    no set of the chain qualifies."""
    n = len(t)
    powers = [set(range(n))]
    while True:
        nxt = {t[a][b] for a in powers[-1] for b in range(n)}
        if nxt in powers:
            break
        powers.append(nxt)
    for k, sk in enumerate(powers, start=1):
        if all(t[t[t[u][x]][y]][v] == t[t[t[u][y]][x]][v]
               for u in sk for v in sk for x in range(n) for y in range(n)):
            return k
    return None


def expected_records(t, longest):
    """(check, status, detail) of the instance checks, by definition."""
    found = first_identity(t, longest)
    if found is None:
        return [("permutation-identity", "precondition-unmet",
                 f"no identity found up to length {longest}")]
    n, perm = found
    out = [("permutation-identity", "pass", f"n={n} perm {' '.join(map(str, perm))}")]
    k = least_swap_exponent(t)
    if k is None:
        out.append(("lemma4", "fail", "no exponent works along the whole power chain"))
    else:
        out.append(("lemma4", "pass", f"k={k}"))
    return out


def test_identity_and_lemma4_records_match_the_definitions():
    # Every labeled table of orders 1-3: the sweep's permutation-identity
    # and lemma 4 records agree with the brute force in status and detail.
    tables = {}
    for n in range(1, 4):
        for S in enumerate_semigroups(n):
            tables[hashlib.sha256(catalog_line(S).encode()).hexdigest()[:12]] = S.table
    rep = run_sweep(SweepConfig(max_order=3, theorem="2", parallelism=1))
    seen = {}
    for line in rep.records:
        head, _, detail = line.partition(" detail=")
        fields = dict(f.split("=", 1) for f in head.split())
        if fields["check"] in ("permutation-identity", "lemma4"):
            seen.setdefault(fields["table"], []).append(
                (fields["check"], fields["status"], detail))
    assert len(tables) == 122 and seen.keys() == tables.keys()
    for key, t in tables.items():
        assert seen[key] == expected_records(t, 4), t
