"""Sweep records audited against the paper's definitions.

The brute force here folds words and walks power sets by hand over the
Cayley table.  It imports none of sglab's predicates: only the catalog,
to list the tables, and the sweep, whose records it audits.  The sweep
answers most records through a table's class representative, so this
audit is their check that does not go through the library.
"""

import hashlib
from itertools import permutations, product

import pytest

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


def labeled_tables():
    """Every labeled table of orders 1-3 by its record hash."""
    return {hashlib.sha256(catalog_line(S).encode()).hexdigest()[:12]: S.table
            for n in range(1, 4) for S in enumerate_semigroups(n)}


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
    tables = labeled_tables()
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


def literal(members):
    return "{" + ",".join(map(str, sorted(members))) + "}"


def witness_field(pairs):
    """A record's witness field from its (name, value) pairs."""
    return ",".join(f"{k}={v}" for k, v in pairs)


def separator(t, A):
    """Sep(A): the x whose products with every a, on either side, stay on
    a's side of A."""
    n = len(t)
    return {x for x in range(n)
            if all((t[x][a] in A) == (a in A) == (t[a][x] in A) for a in range(n))}


def not_closed(t, T):
    return next(((a, b) for a in sorted(T) for b in sorted(T) if t[a][b] not in T), None)


def not_unitary(t, U):
    """The first (a, b) with a in U, b outside it and a*b or b*a in U."""
    n = len(t)
    return next(((a, b) for a in range(n) for b in range(n)
                 if a in U and b not in U and (t[a][b] in U or t[b][a] in U)), None)


def not_medial(t, A):
    """The first (x, a, b, y) with x*a*b*y in A and x*b*a*y outside it."""
    n = len(t)
    return next((w for w in product(range(n), repeat=4)
                 if _fold(t, w) in A and _fold(t, (w[0], w[2], w[1], w[3])) not in A), None)


def lemma_records(t, A):
    """(check, status, witness, detail) of lemmas 1-3 and corollary 1 on
    the subset A, by definition."""
    T = separator(t, A)
    out = []
    if not T:
        out.append(("lemma1", "pass", "-", "separator empty"))
    elif (w := not_closed(t, T)) is not None:
        out.append(("lemma1", "fail", witness_field(zip("ab", w)), "separator not closed"))
    else:
        out.append(("lemma1", "pass", "-", f"separator {literal(T)}"))
    inside, outside = T & A, T - A
    if not T:
        out.append(("lemma2", "precondition-unmet", "-", "separator empty"))
    elif inside and outside:
        out.append(("lemma2", "fail", witness_field(zip("ab", (min(inside), min(outside)))),
                    "separator straddles the subset boundary"))
    else:
        side = "subset" if inside else "complement"
        out.append(("lemma2", "pass", "-", f"separator within {side}"))
    # The empty set is not a subsemigroup, so lemma 3 does not speak of
    # it: Sep(empty) is all of S and the empty set is vacuously unitary,
    # so counting it would fail the lemma on every table.
    if not A or not_closed(t, A) is not None:
        out.append(("lemma3", "precondition-unmet", "-", "not a subsemigroup"))
    else:
        w = not_unitary(t, A)
        if w is None and T != A:
            out.append(("lemma3", "fail", witness_field([("x", min(T ^ A))]),
                        f"unitary but separator is {literal(T)}"))
        elif w is not None and T == A:
            out.append(("lemma3", "fail", witness_field(zip("ab", w)),
                        "equals its separator but not unitary"))
        else:
            out.append(("lemma3", "pass", "-",
                        "unitary and fixed" if w is None else "neither side holds"))
    out.append(corollary1_record(t, A, T))
    return out


def separator_structure(check, t, T):
    """The corollaries' shared stages on the separator T, by definition:
    the pass record when T is empty, a fail record when it is not a
    reflexive unitary subsemigroup, else None."""
    if not T:
        return (check, "pass", "-", "separator empty")
    if (w := not_closed(t, T)) is not None:
        return (check, "fail", witness_field(zip("ab", w)), "separator not closed under product")
    n = len(t)
    w = next(((a, b) for a in range(n) for b in range(n) if t[a][b] in T and t[b][a] not in T),
             None)
    if w is not None:
        return (check, "fail", witness_field(zip("ab", w)), "separator not reflexive")
    if (w := not_unitary(t, T)) is not None:
        return (check, "fail", witness_field(zip("ab", w)), "separator not unitary")
    return None


def corollary1_record(t, A, T):
    """(check, status, witness, detail) of corollary 1 on the subset A,
    whose separator is T, by definition."""
    check = "corollary1"
    if (w := not_medial(t, A)) is not None:
        return (check, "precondition-unmet", witness_field(zip("xaby", w)), "subset not medial")
    if (rec := separator_structure(check, t, T)) is not None:
        return rec
    T2 = separator(t, T)
    if T2 != T:
        return (check, "fail", witness_field([("x", min(T2 ^ T))]),
                f"separator of {literal(T)} is {literal(T2)}, not itself")
    return (check, "pass", "-", f"separator {literal(T)}")


def corollary2_record(t, A):
    """(check, status, witness, detail) of corollary 2 on the subset A of
    a table with a permutation identity, by definition: no mediality
    stage, and no second separator."""
    T = separator(t, A)
    return (separator_structure("corollary2", t, T)
            or ("corollary2", "pass", "-", f"separator {literal(T)}"))


@pytest.mark.parametrize("theorem", ["lemmas", "cor1"])
def test_lemma_and_corollary1_records_match_the_definitions(theorem):
    # Every labeled table of orders 1-3 and every subset: the sweep's
    # lemma 1-3 and corollary 1 records agree with the brute force in
    # status, witness and detail.
    tables = labeled_tables()
    rep = run_sweep(SweepConfig(max_order=3, theorem=theorem, parallelism=1))
    seen = {}
    for line in rep.records:
        head, _, detail = line.partition(" detail=")
        fields = dict(f.split("=", 1) for f in head.split())
        seen.setdefault(fields["table"], {}).setdefault(fields["case"], []).append(
            (fields["check"], fields["status"], fields["witness"], detail))
    assert seen.keys() == tables.keys()
    records = 0
    for key, t in tables.items():
        n = len(t)
        cases = seen[key]
        assert len(cases) == 2**n
        for bits in range(2**n):
            A = {e for e in range(n) if bits >> e & 1}
            want = [r for r in lemma_records(t, A) if (r[0] == "corollary1") == (theorem == "cor1")]
            assert cases[literal(A)] == want, (t, A)
            records += len(want)
    assert records == len(rep.records) == {"lemmas": 3, "cor1": 1}[theorem] * (2 + 4 * 8 + 8 * 113)


def test_corollary2_records_match_the_definitions():
    # Every labeled table of orders 1-3 with a permutation identity, and
    # every subset: the sweep's corollary 2 records agree with the brute
    # force in status, witness and detail.  A table with no identity has
    # no corollary 2 record.
    tables = labeled_tables()
    rep = run_sweep(SweepConfig(max_order=3, theorem="cor2", parallelism=1))
    seen = {key: {} for key in tables}
    records = 0
    for line in rep.records:
        head, _, detail = line.partition(" detail=")
        fields = dict(f.split("=", 1) for f in head.split())
        if fields["check"] == "corollary2":
            seen[fields["table"]].setdefault(fields["case"], []).append(
                (fields["check"], fields["status"], fields["witness"], detail))
            records += 1
    audited = 0
    for key, t in tables.items():
        n = len(t)
        if first_identity(t, 4) is None:
            assert seen[key] == {}, t
            continue
        assert len(seen[key]) == 2**n
        for bits in range(2**n):
            A = {e for e in range(n) if bits >> e & 1}
            assert seen[key][literal(A)] == [corollary2_record(t, A)], (t, A)
            audited += 1
    assert audited == records == 890
