"""Acceptance gate: exhaustive desk-scale verification.

One test per criterion, each ending in a single printed PASS/FAIL line.
The heavy artillery is a single shared sweep over every labeled
semigroup of order 1 through 4 with 100 seeded random subset families
per permutative instance; the remaining criteria re-derive their data
independently of the sweep where the point is cross-checking.
"""

import hashlib
import subprocess
import sys
import time

import pytest

from sglab import (
    SweepConfig,
    all_subsets,
    enumerate_semigroups,
    find_permutation_identity,
    identity_element,
    is_commutative,
    lemma4_minimal_k,
    p_congruence,
    p_congruence_pairwise,
    power_set_chain,
    run_sweep,
    word_product,
)

MAX_ORDER = 4
LABELED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}
# The shared sweep's records, each followed by a newline, as frozen when
# this pin was added: (record count, sha256).
SWEEP_DIGEST = (770368, "8c2399c962431f7163b59381c32038fdc4d8b6a190cf454c55c0484b93b5c34e")


def _verdict(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def sweep():
    cfg = SweepConfig(
        max_order=MAX_ORDER,
        random_families=100,
        seed=0,
    )
    t0 = time.perf_counter()
    rep = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    print(f"shared sweep: {rep.instances} instances, {len(rep.records)} records, "
          f"{elapsed:.1f}s")
    return rep


@pytest.fixture(scope="module")
def catalog():
    return {n: list(enumerate_semigroups(n)) for n in range(1, MAX_ORDER + 1)}


def _fails_for(rep, check):
    return [line for line in rep.fails if f" check={check} " in line]


def _passes_for(rep, check):
    return sum(v for (c, st), v in rep.counts.items() if c == check and st == "pass")


def test_criterion_1_theorem1_forward(sweep, catalog, capsys):
    counts_ok = all(len(catalog[n]) == LABELED_COUNTS[n] for n in catalog)
    fails = _fails_for(sweep, "theorem1-forward")
    for line in fails[:10]:
        print(line)
    ok = counts_ok and not fails and _passes_for(sweep, "theorem1-forward") > 0
    _verdict(capsys, 1, "theorem1-forward zero fails over the order<=4 catalog", ok)


def test_criterion_2_theorem1_converse(sweep, capsys):
    fails = _fails_for(sweep, "theorem1-converse")
    for line in fails[:10]:
        print(line)
    ok = not fails and _passes_for(sweep, "theorem1-converse") > 0
    _verdict(capsys, 2, "theorem1-converse zero fails for commutative monoid congruences", ok)


def test_criterion_3_separator_lemmas(sweep, capsys):
    bad = []
    for check in ("lemma1", "lemma2", "lemma3"):
        bad.extend(_fails_for(sweep, check))
        assert _passes_for(sweep, check) > 0
    for line in bad[:10]:
        print(line)
    _verdict(capsys, 3, "lemmas 1-3 hold over all subsets of the catalog", not bad)


def test_criterion_4_corollary1(sweep, capsys):
    fails = _fails_for(sweep, "corollary1")
    for line in fails[:10]:
        print(line)
    ok = not fails and _passes_for(sweep, "corollary1") > 0
    _verdict(capsys, 4, "corollary1 separator structure zero fails", ok)


def test_criterion_5_permutative_results(sweep, catalog, capsys):
    # Sweep side: nothing red in the permutative cluster.
    bad = []
    for check in ("lemma4", "theorem2-forward", "theorem2-converse", "corollary2"):
        bad.extend(_fails_for(sweep, check))
        assert _passes_for(sweep, check) > 0
    for line in bad[:10]:
        print(line)
    # Independent side: recompute the exponent for every witnessed
    # instance and re-verify it by a direct pure-loop quadruple scan.
    t0 = time.perf_counter()
    witnessed = 0
    exponent_ok = True
    for n, instances in catalog.items():
        for S in instances:
            if find_permutation_identity(S, 4) is None:
                continue
            witnessed += 1
            res = lemma4_minimal_k(S)
            if res.k is None:
                exponent_ok = False
                break
            sk = power_set_chain(S).sets[res.k - 1]
            for u in sk:
                for x in range(S.order):
                    for y in range(S.order):
                        for v in sk:
                            if word_product(S, [u, x, y, v]) != word_product(
                                S, [u, y, x, v]
                            ):
                                exponent_ok = False
    print(f"lemma4 direct re-verification: {witnessed} witnessed instances, "
          f"{time.perf_counter() - t0:.1f}s")
    ok = not bad and exponent_ok and witnessed > 0
    _verdict(capsys, 5, "theorem2 + lemma4 + corollary2 zero fails, exponent re-verified", ok)


def test_criterion_6_oracle_equivalence(catalog, capsys):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n, instances in catalog.items():
        for S in instances:
            for A in all_subsets(n):
                checked += 1
                if p_congruence(S, [A]) != p_congruence_pairwise(S, [A]):
                    ok = False
                    print(f"disagreement: table={S.table} subset={tuple(A)}")
    print(f"oracle equivalence: {checked} (instance, subset) pairs, "
          f"{time.perf_counter() - t0:.1f}s")
    _verdict(capsys, 6, "profile and pairwise congruence routes agree everywhere", ok)


def test_criterion_7_permutative_monoids_commute(catalog, capsys):
    ok = True
    monoids = 0
    for n, instances in catalog.items():
        for S in instances:
            if identity_element(S) is None:
                continue
            if find_permutation_identity(S, 4) is None:
                continue
            monoids += 1
            if not is_commutative(S)[0]:
                ok = False
                print(f"noncommutative permutative monoid: {S.table}")
    print(f"permutative monoids checked: {monoids}")
    _verdict(capsys, 7, "every permutative monoid in the catalog is commutative",
             ok and monoids > 0)


def test_criterion_8_byte_identical_verification(capsys):
    def structured_run(jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "sglab.cli", "verify", "--order", "3",
             "--structured", "--jobs", str(jobs)],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = structured_run(1)
    second = structured_run(1)
    parallel = structured_run(8)
    ok = first == second == parallel and len(first) > 0
    _verdict(capsys, 8, "verify --order 3 output byte-identical across runs and jobs 1 vs 8",
             ok)


def test_shared_sweep_records_are_byte_identical(sweep):
    sha = hashlib.sha256()
    for line in sweep.records:
        sha.update(line.encode())
        sha.update(b"\n")
    assert (len(sweep.records), sha.hexdigest()) == SWEEP_DIGEST
