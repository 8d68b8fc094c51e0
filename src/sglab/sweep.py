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
import multiprocessing
import os
import random
import signal
from collections import Counter
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Iterator, Sequence

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
from .core import _BUDGET_SECONDS, ElementSet, FiniteSemigroup, _within_budget, all_subsets
from .errors import WorkBudgetExceeded, WorkerDied
from .permutative import (
    _search_seconds,
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

# One instance's output: its record lines, each ending in a newline,
# its per-(check, status) counts and its fail lines.
Instance = tuple[str, Counter, list[str]]

# Instances per claim and per message from a worker process: 8 to 32
# run the order-4 sweep equally fast, a larger chunk holds more records
# in the parent's reorder window (32: about 1 MiB more at peak), and 16
# starts no worker for the 9 tables of orders 1-2.
_CHUNK = 16

# Measured cost of the default sweep per labeled table: 1.7 ms (verify-o4,
# 5.9-6.1 s over the 3614 tables of orders 1-4; 2-vCPU Xeon VM, Python
# 3.11, serial).  Orders 1-4 are estimated at 6.1 s and accepted; a range
# that includes order 5 (312 s for its tables alone) is refused.  The
# estimate stays serial, whatever the CPU count, so whether a sweep is
# refused never depends on the machine.
_INSTANCE_SECONDS = 1.7e-3

# The labeled tables of orders 1-4 with no permutation identity up to
# length 4, a catalog fact: only these search on when n_max_permutation
# is above 4.  Above order 4, every labeled table is counted.
_SEARCHES_PAST_FOUR = {1: 0, 2: 0, 3: 6, 4: 584}


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepConfig:
    """Knobs for one catalog sweep.

    min_order/max_order bound the catalog; family_mode picks how
    theorem families are built (the default combines every single-subset
    family with every family of congruence classes); random_families
    adds that many seeded multi-set families per permutative instance;
    parallelism caps the worker processes (default every usable CPU; 1
    runs the sweep in this process).
    """

    min_order: int = 1
    max_order: int = 4
    n_max_permutation: int = 4
    family_mode: str = "default"
    random_families: int = 20
    seed: int = 0
    parallelism: int = field(default_factory=_usable_cpus)
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
    """Per-(check, status) counts and fail lines of the instances seen so far.

    ``records`` holds the record lines only where the caller keeps them:
    ``run_sweep`` does, ``verify`` writes them out instead.
    """

    def __init__(self):
        self.instances = 0
        self.records: list[str] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.fails: list[str] = []

    def add(self, instance: Instance) -> str:
        """Count one instance and return its record text."""
        text, counts, fails = instance
        self.instances += 1
        self.counts.update(counts)
        self.fails += fails
        return text

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
) -> Instance:
    cfg, order, idx, table = item
    # The table comes from enumerate_semigroups, which validated it.
    S = FiniteSemigroup._from_table(table)
    prefix = f"order={order} table={_table_hash(S)} case="
    checks = _instance_checks(cfg, order, idx, S)
    lines = [f"{prefix}{case} {rep.record()}" for case, rep in checks]
    counts = Counter((rep.check, rep.status) for _, rep in checks)
    fails = [line for line, (_, rep) in zip(lines, checks) if rep.status == FAIL]
    return "".join(line + "\n" for line in lines), counts, fails


def _search_past_four(cfg: SweepConfig, order: int) -> float:
    """Estimated time of one order's identity searches at lengths 5 to
    n_max, up to the first length the search itself refuses."""
    if not (_wants(cfg, "2") or _wants(cfg, "cor2")):
        return 0.0
    searching = _SEARCHES_PAST_FOUR.get(order, _labeled_count(order))
    costs = (_search_seconds(order, n) for n in range(5, cfg.n_max_permutation + 1))
    return searching * sum(takewhile(lambda s: s <= _BUDGET_SECONDS, costs))


def iter_sweep(cfg: SweepConfig) -> Iterator[Instance]:
    """Each catalog instance's record text, (check, status) counts and
    fail lines, in catalog order.

    Instances come as they are done, so a consumer that writes and
    drops them holds a few instances' records at a time.  The bytes
    are the same for every parallelism.  A sweep whose labeled tables
    and identity searches past length 4 are estimated over ten seconds
    (any that includes order 5, or order 4 with n_max_permutation 6 or
    more) raises WorkBudgetExceeded from this call, before any table is
    built.  No more worker processes start than there are usable CPUs
    or chunks of instances; close the iterator to stop a parallel sweep
    early.
    """
    orders = range(cfg.min_order, cfg.max_order + 1)
    tables = sum(map(_labeled_count, orders))
    seconds = tables * _INSTANCE_SECONDS + sum(_search_past_four(cfg, n) for n in orders)
    _within_budget(f"the sweep of {tables:,} labeled tables", seconds)
    items = [(cfg, order, idx, S.table)
             for order in orders for idx, S in enumerate(enumerate_semigroups(order))]
    chunks = [items[i:i + _CHUNK] for i in range(0, len(items), _CHUNK)]
    workers = min(cfg.parallelism, _usable_cpus(), len(chunks))
    # Where there is no fork (Windows), the sweep runs in this process.
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        return _forked(chunks, workers)
    return (_instance_worker(item) for item in items)


def _forked(chunks: list[list], workers: int) -> Iterator[Instance]:
    # A free worker claims the next chunk by reading its index from one
    # shared claims pipe, and sends back (index, error, instances) down
    # its own result pipe.  The parent reads whichever result pipe is
    # ready, holds early chunks, and yields strictly in catalog order.
    # It writes an index into the claims pipe only once the chunk
    # 2 * workers places before it has been yielded, so no more than
    # that many chunks are ever claimed and not yet yielded.  Fork, not
    # spawn: the workers inherit the chunks, so nothing is pickled on the
    # way out, and the parent runs no thread that a fork could catch
    # mid-operation.

    # Imported here, as ctx.Pipe imports it, so that a program that
    # only imports sglab does not load it and the subprocess module.
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    window = 2 * workers
    # The parent keeps the claims pipe's read end as well, so a write to
    # it cannot fail, even once every worker is gone.
    claims, handout = os.pipe()
    readers, procs = [], []
    early = {}  # chunk index -> (error, instances), for chunks not yet yielded

    def receive(timeout: float | None) -> None:
        for reader in wait(readers, timeout):
            try:
                i, error, instances = reader.recv()
            except (EOFError, OSError):
                # The claims pipe stays open until the sweep is done, so
                # no worker runs out of work before then: any end of file
                # is a death, whatever the exit code.
                k = readers.index(reader)
                procs[k].join(timeout=5)
                raise WorkerDied(k, procs[k].exitcode) from None
            early[i] = error, instances

    try:
        for k in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            proc = ctx.Process(target=_work, args=(chunks, claims, handout, writer, readers),
                               daemon=True)
            proc.start()
            procs.append(proc)
            # Only the worker may hold the write end, or its death
            # would never reach the reader as end of file.
            writer.close()
        for i in range(min(window, len(chunks))):
            os.write(handout, i.to_bytes(4, "little"))
        for pos in range(len(chunks)):
            # Take in whatever has arrived, so a finished worker is not
            # held in send while this chunk is yielded.
            receive(0)
            while pos not in early:
                receive(None)
            error, instances = early.pop(pos)
            if error is not None:
                raise error
            yield from instances
            if pos + window < len(chunks):
                os.write(handout, (pos + window).to_bytes(4, "little"))
    finally:
        os.close(handout)
        os.close(claims)
        for proc in procs:
            proc.terminate()
            proc.join()
        for reader in readers:
            reader.close()


def _work(chunks: list[list], claims: int, handout: int, writer, readers) -> None:
    # A worker holds only the claims pipe's read end and its own result
    # pipe's write end, so it can block only where a dead parent wakes
    # it: the claims pipe then reads end of file and a send raises
    # BrokenPipeError, and either ends the worker quietly.  Ctrl-C is
    # the parent's to handle.
    os.close(handout)
    for reader in readers:
        reader.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Each 4-byte index is one write, under the pipe's atomic size, so
    # two workers never split one.
    while claim := os.read(claims, 4):
        i = int.from_bytes(claim, "little")
        try:
            message = i, None, [_instance_worker(item) for item in chunks[i]]
        except Exception as e:  # raised again in the parent, in catalog order
            message = i, e, None
        try:
            writer.send(message)
        except BrokenPipeError:
            return


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run every configured check over the catalog and keep every record.

    Records keep catalog order regardless of parallelism, so two sweeps
    with the same config are byte-identical.
    """
    rep = SweepReport()
    for instance in iter_sweep(cfg):
        rep.records += rep.add(instance).splitlines()
    return rep
