"""The query-mixed workload: a seeded stream of single library questions.

Each request carries a fresh ``.sg`` text and one CLI-style question
about it.  Answering parses the text and makes one library call, so no
answer reuses work done for an earlier one.  Answers are reduced to
plain data right away and checked against ``oracles`` afterwards,
outside the timed region.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import oracles
from sglab import catalog, congruences, core, permutative, subsets

OPS = ("sep", "idealizer", "medial", "pcong", "quotient", "congruences", "permid", "lemma4", "canon")
PERMID_MAX_N = 4
# Labeled semigroups per order; a catalog that disagrees is wrong.
CATALOG_SIZES = {1: 1, 2: 8, 3: 113, 4: 3492}


class Request(NamedTuple):
    op: str
    table: tuple[tuple[int, ...], ...]
    text: str
    arg: str

    @property
    def order(self) -> int:
        return len(self.table)


def _catalog(n: int) -> list[tuple[tuple[int, ...], ...]]:
    tables = [S.table for S in catalog.enumerate_semigroups(n)]
    if len(tables) != CATALOG_SIZES[n]:
        raise ValueError(f"catalog of order {n} has {len(tables)} tables, not {CATALOG_SIZES[n]}")
    return tables


def _adjoin(t, zero: bool):
    """S with a new element n adjoined as a zero or as an identity."""
    n = len(t)
    rows = [row + ((n if zero else a),) for a, row in enumerate(t)]
    rows.append(tuple(n if zero else b for b in range(n)) + (n,))
    return tuple(rows)


def _direct_product(t, u):
    m = len(u)
    cells = [(a, b) for a in range(len(t)) for b in range(m)]
    return tuple(
        tuple(t[a][c] * m + u[b][d] for c, d in cells) for a, b in cells
    )


def build_pools(tiny: bool) -> dict[int, tuple[int, list]]:
    """Tables to draw requests from: order -> (share of requests, tables).

    Catalog tables of orders 3 and 4, order 5 from an order-4 table with
    an identity or a zero adjoined, order 6 as direct products of order-2
    and order-3 tables.  The order-6 share puts ``canon`` on order 6,
    the slowest request, at about 1.7% of the stream, so the 99th
    percentile falls inside that group rather than on its edge.
    """
    if tiny:
        return {1: (30, _catalog(1)), 2: (70, _catalog(2))}
    c2, c3, c4 = _catalog(2), _catalog(3), _catalog(4)
    return {
        3: (25, c3),
        4: (35, c4),
        5: (25, [_adjoin(t, zero) for t in c4 for zero in (False, True)]),
        6: (15, [_direct_product(t, u) for t in c2 for u in c3]),
    }


def _subset_literal(mask: int, n: int) -> str:
    return "{" + ",".join(str(e) for e in range(n) if mask >> e & 1) + "}"


def _members(literal: str) -> frozenset[int]:
    body = literal.strip("{}")
    return frozenset(int(p) for p in body.split(",")) if body else frozenset()


def stream(seed: int, pools: dict[int, tuple[int, list]]):
    """Endless request stream; the same seed and pools give the same requests."""
    rng = random.Random(seed)
    orders = sorted(pools)
    weights = [pools[n][0] for n in orders]
    while True:
        n = rng.choices(orders, weights)[0]
        t = rng.choice(pools[n][1])
        op = rng.choice(OPS)
        arg = ""
        if op in ("sep", "idealizer", "medial"):
            arg = _subset_literal(rng.randrange(1 << n), n)
        elif op == "pcong":
            arg = ";".join(_subset_literal(rng.randrange(1 << n), n) for _ in range(rng.randint(1, 3)))
        elif op == "quotient":
            cls = rng.choice(oracles.congruences(t))
            arg = ";".join(
                _subset_literal(sum(1 << e for e in range(n) if cls[e] == c), n)
                for c in range(max(cls) + 1)
            )
        text = f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in t)
        yield Request(op, t, text, arg)


def answer(req: Request):
    """Parse the request's table and answer its question (the timed part)."""
    S = core.parse_sg(req.text)
    n = S.order
    op = req.op
    if op == "sep":
        return S, subsets.separator(S, subsets.parse_subset(req.arg, n))
    if op == "idealizer":
        return S, subsets.idealizer(S, subsets.parse_subset(req.arg, n))
    if op == "medial":
        return S, subsets.is_medial(S, subsets.parse_subset(req.arg, n))
    if op == "pcong":
        family = [subsets.parse_subset(p, n) for p in req.arg.split(";")]
        return S, congruences.p_congruence(S, family)
    if op == "quotient":
        parts = [subsets.parse_subset(p, n).members for p in req.arg.split(";")]
        Q = congruences.quotient(S, congruences.Congruence.from_classes(n, parts))
        return S, (Q, congruences.classify_quotient(Q))
    if op == "congruences":
        return S, congruences.enumerate_congruences(S)
    if op == "permid":
        return S, permutative.find_permutation_identity(S, PERMID_MAX_N)
    if op == "lemma4":
        return S, permutative.lemma4_minimal_k(S)
    if op == "canon":
        return S, catalog.canonical_form(S)
    raise ValueError(f"unknown op {op!r}")


def plain(op: str, S, result):
    """The answer as plain data, so checking needs no library object."""
    if op in ("sep", "idealizer"):
        out = result.members
    elif op == "medial":
        out = (result[0], result[1])
    elif op == "pcong":
        out = result.class_of
    elif op == "quotient":
        Q, kind = result
        out = (Q.quotient.table, Q.projection, tuple(kind))
    elif op == "congruences":
        out = [c.class_of for c in result]
    elif op == "permid":
        out = None if result is None else (result.length, result.perm)
    elif op == "lemma4":
        out = (result.k, [s.members for s in result.chain.sets], result.chain.cycle_start,
               list(result.counterexamples))
    else:
        out = result
    return S.table, out


def check(req: Request, table, out) -> bool:
    """True when the parsed table and the answer match the independent route."""
    t = req.table
    if table != t:
        return False
    op = req.op
    if op == "sep":
        return out == oracles.separator(t, _members(req.arg))
    if op == "idealizer":
        return out == oracles.idealizer(t, _members(req.arg))
    if op == "medial":
        w = oracles.medial_witness(t, _members(req.arg))
        return out == (w is None, w)
    if op == "pcong":
        S = core.validate(t)
        family = [core.ElementSet(len(t), _members(p)) for p in req.arg.split(";")]
        return out == congruences.p_congruence_pairwise(S, family).class_of
    if op == "quotient":
        cls = oracles.canonical_class_ids([_members(p) for p in req.arg.split(";")], len(t))
        q = oracles.quotient_table(t, cls)
        if q is None:
            return False
        e = oracles.identity_of(q)
        return out == (q, cls, (e is not None, oracles.commutes(q), e))
    if op == "congruences":
        S = core.validate(t)
        return out == oracles.congruences(t) and all(
            congruences.is_congruence(S, congruences.Congruence(len(t), c))[0] for c in out
        )
    if op == "permid":
        expected = oracles.first_permutation_identity(t, PERMID_MAX_N)
        return out == expected and (out is None or oracles.satisfies(t, out[1]))
    if op == "lemma4":
        return out == oracles.lemma4(t)
    if op == "canon":
        return out == oracles.canonical_table(t)
    return False
