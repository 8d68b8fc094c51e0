"""Batch verification of the quotient and separator results over the
whole catalog of small semigroups.

Every catalog instance is pushed through the lemma checks (all subsets),
both directions of the commutative-monoid quotient theorem, the
separator corollary, and, when a permutation identity is found within
the configured bound, the permutative strengthenings.  Output is a
stream of one-line records ordered by instance, byte-stable across runs
and across worker counts.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass
from multiprocessing import Pool
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .catalog import _labeled_count, catalog_line, enumerate_semigroups
from .congruences import (
    check_lemma1,
    check_lemma2,
    check_lemma3,
    enumerate_congruences,
    verify_corollary1,
    verify_theorem1_converse,
    verify_theorem1_forward,
)
from .core import ElementSet, FiniteSemigroup, _within_budget, all_subsets
from .errors import WorkBudgetExceeded
from .permutative import (
    find_permutation_identity,
    format_permutation,
    lemma4_minimal_k,
    verify_corollary2,
    verify_theorem2_converse,
    verify_theorem2_forward,
)
from .reports import FAIL, CheckReport, failed, passed, unmet
from .subsets import format_subset

__all__ = [
    "SweepConfig",
    "SweepReport",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "iter_sweep",
    "run_sweep",
]

FAMILY_MODES = ("default", "singletons-and-all-subsets", "congruence-classes")
THEOREM_GROUPS = ("all", "1", "2", "cor1", "cor2", "lemmas")

# One check's output: its record line, check name and status.
Row = tuple[str, str, str]

# Measured cost of the default sweep per labeled table: 1.7 ms (verify-o4,
# 5.9-6.1 s over the 3614 tables of orders 1-4; 2-vCPU Xeon VM, Python
# 3.11, serial).  Orders 1-4 are estimated at 6.1 s and accepted; a range
# that includes order 5 (312 s for its tables alone) is refused.
_INSTANCE_SECONDS = 1.7e-3


@dataclass(frozen=True)
class SweepConfig:
    """Knobs for one catalog sweep.

    min_order/max_order bound the catalog; family_mode picks how
    theorem families are built (the default combines every single-subset
    family with every family of congruence classes); random_families
    adds that many seeded multi-set families per permutative instance.
    """

    min_order: int = 1
    max_order: int = 4
    n_max_permutation: int = 4
    family_mode: str = "default"
    random_families: int = 20
    seed: int = 0
    parallelism: int = 1
    theorem: str = "all"

    def __post_init__(self):
        if not 1 <= self.min_order <= self.max_order:
            raise ValueError("need 1 <= min_order <= max_order")
        if self.n_max_permutation < 2:
            raise ValueError("n_max_permutation must be at least 2")
        if self.family_mode not in FAMILY_MODES:
            raise ValueError(f"family_mode must be one of {FAMILY_MODES}")
        if self.theorem not in THEOREM_GROUPS:
            raise ValueError(f"theorem must be one of {THEOREM_GROUPS}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.random_families < 0:
            raise ValueError("random_families cannot be negative")


class SweepReport:
    """Per-(check, status) counts and fail lines of the rows seen so far.

    ``records`` holds the record lines only where the caller keeps them:
    ``run_sweep`` does, ``verify`` writes them out instead.
    """

    def __init__(self):
        self.instances = 0
        self.records: list[str] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.fails: list[str] = []

    def add(self, rows: list[Row]) -> None:
        """Count one instance's rows."""
        self.instances += 1
        self.counts.update(map(_check_status, rows))
        self.fails += [line for line, _, status in rows if status == FAIL]

    def lines(self, instances: Iterable[list[Row]]) -> Iterator[str]:
        """The record lines of ``instances``, counting each instance as it passes."""
        for rows in instances:
            self.add(rows)
            yield from map(_line, rows)

    def summary_lines(self) -> list[str]:
        n_pass = sum(v for (_, st), v in self.counts.items() if st == "pass")
        n_unmet = sum(v for (_, st), v in self.counts.items() if st == "precondition-unmet")
        n_fail = len(self.fails)
        lines = [
            f"instances: {self.instances}",
            f"checks: pass={n_pass} precondition-unmet={n_unmet} fail={n_fail}",
        ]
        for (check, status), v in sorted(self.counts.items()):
            lines.append(f"  {check}: {status}={v}")
        return lines


def _table_hash(S: FiniteSemigroup) -> str:
    return hashlib.sha256(catalog_line(S).encode()).hexdigest()[:12]


def _family_literal(family: Sequence[ElementSet]) -> str:
    return ";".join(format_subset(X) for X in family) if family else "(empty)"


def _wants(cfg: SweepConfig, group: str) -> bool:
    return cfg.theorem in ("all", group)


def _random_families(cfg: SweepConfig, order: int, idx: int) -> list[tuple[int, ...]]:
    # Each family as the bit masks of its 2-3 sets.  One generator per
    # instance, keyed by seed, order, and catalog position, so results
    # never depend on worker scheduling.
    rng = random.Random(f"{cfg.seed}:{order}:{idx}")
    return [
        tuple(rng.randrange(1 << order) for _ in range(rng.randint(2, 3)))
        for _ in range(cfg.random_families)
    ]


def _instance_checks(
    cfg: SweepConfig, order: int, idx: int, S: FiniteSemigroup
) -> list[tuple[str, CheckReport]]:
    """All (case, report) pairs for one catalog instance, in a fixed order."""
    out: list[tuple[str, CheckReport]] = []
    subsets = [(format_subset(A), A) for A in all_subsets(order)]

    if _wants(cfg, "lemmas"):
        for case, A in subsets:
            out.append((case, check_lemma1(S, A)))
            out.append((case, check_lemma2(S, A)))
            out.append((case, check_lemma3(S, A)))

    if _wants(cfg, "cor1"):
        for case, A in subsets:
            out.append((case, verify_corollary1(S, A)))

    if _wants(cfg, "1") or _wants(cfg, "2"):
        # Each congruence with its classes, and the theorem families:
        # singletons, then class families.
        congruences = []
        for sigma in enumerate_congruences(S):
            classes = sigma.classes()
            congruences.append((sigma.literal(), sigma, classes))
        families = []
        if cfg.family_mode != "congruence-classes":
            families += [(case, [A]) for case, A in subsets]
        if cfg.family_mode != "singletons-and-all-subsets":
            families += [(case, classes) for case, _, classes in congruences]

    if _wants(cfg, "1"):
        for case, fam in families:
            out.append((case, verify_theorem1_forward(S, fam)))
        for case, sigma, _ in congruences:
            out.append((case, verify_theorem1_converse(S, sigma)))

    if _wants(cfg, "2") or _wants(cfg, "cor2"):
        # A length over the work budget ends the search like exhausting
        # n_max does: the instance's identity is unmet, the sweep goes on.
        try:
            witness = find_permutation_identity(S, cfg.n_max_permutation)
            why = f"no identity found up to length {cfg.n_max_permutation}"
        except WorkBudgetExceeded as e:
            witness, why = None, f"search stopped: {e}"
        if witness is None:
            out.append(("-", unmet("permutation-identity", why)))
        else:
            detail = f"n={witness.length} {format_permutation(witness)}"
            out.append(("-", passed("permutation-identity", detail)))
        if witness is not None and _wants(cfg, "2"):
            res = lemma4_minimal_k(S)
            if res.k is not None:
                out.append(("-", passed("lemma4", f"k={res.k}")))
            else:
                k, w = res.counterexamples[0]
                out.append(("-", failed("lemma4", tuple(zip("kuxyv", (k, *w))),
                                        "no exponent works along the whole power chain")))
            randoms = [tuple(ElementSet._from_bits(order, bits) for bits in masks)
                       for masks in _random_families(cfg, order, idx)]
            for case, fam in families + [(_family_literal(fam), fam) for fam in randoms]:
                out.append((case, verify_theorem2_forward(S, fam, witness)))
            for case, sigma, _ in congruences:
                out.append((case, verify_theorem2_converse(S, sigma, witness)))
        if witness is not None and _wants(cfg, "cor2"):
            for case, A in subsets:
                out.append((case, verify_corollary2(S, A, witness)))

    return out


def _instance_worker(
    item: tuple[SweepConfig, int, int, tuple[tuple[int, ...], ...]]
) -> list[Row]:
    cfg, order, idx, table = item
    # The table comes from enumerate_semigroups, which validated it.
    S = FiniteSemigroup._from_table(table)
    prefix = f"order={order} table={_table_hash(S)} case="
    return [
        (f"{prefix}{case} {rep.record()}", rep.check, rep.status)
        for case, rep in _instance_checks(cfg, order, idx, S)
    ]


def iter_sweep(cfg: SweepConfig) -> Iterator[list[Row]]:
    """Each catalog instance's (record line, check, status) rows, in catalog order.

    Rows come as the instances are done, so a consumer that writes and
    drops them holds one instance's records at a time.  The order is
    the same for every parallelism.  A sweep whose labeled tables are
    estimated over ten seconds (any that includes order 5) raises
    WorkBudgetExceeded from this call, before any table is built; no
    more worker processes start than there are CPUs.  Close the iterator
    to stop a parallel sweep early.
    """
    orders = range(cfg.min_order, cfg.max_order + 1)
    tables = sum(map(_labeled_count, orders))
    _within_budget(f"the sweep of {tables:,} labeled tables", tables * _INSTANCE_SECONDS)
    items = [(cfg, order, idx, S.table)
             for order in orders for idx, S in enumerate(enumerate_semigroups(order))]
    return _instance_rows(items, min(cfg.parallelism, os.cpu_count() or 1))


def _instance_rows(items, workers: int) -> Iterator[list[Row]]:
    if workers > 1:
        # imap hands results back in submission order; leaving the block,
        # also on close, terminates the workers.
        with Pool(workers) as pool:
            yield from pool.imap(_instance_worker, items, chunksize=8)
    else:
        yield from map(_instance_worker, items)


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run every configured check over the catalog and keep every record.

    Records keep catalog order regardless of parallelism, so two sweeps
    with the same config are byte-identical.
    """
    rep = SweepReport()
    rep.records.extend(rep.lines(iter_sweep(cfg)))
    return rep


_line = itemgetter(0)
_check_status = itemgetter(1, 2)
