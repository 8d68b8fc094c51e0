import pytest

from sglab import enumerate_semigroups, validate

# The recurring small tables: the two-element semilattice (min), the
# two-element group, left-zero and right-zero pairs, a noncommutative
# monoid, the three-element chain under min, and the null semigroup.


@pytest.fixture
def min2():
    return validate([[0, 0], [0, 1]])


@pytest.fixture
def z2():
    return validate([[0, 1], [1, 0]])


@pytest.fixture
def lz2():
    return validate([[0, 0], [1, 1]])


@pytest.fixture
def rz2():
    return validate([[0, 1], [0, 1]])


@pytest.fixture
def lz2mon():
    return validate([[0, 1, 2], [1, 1, 1], [2, 2, 2]])


@pytest.fixture
def chain3():
    return validate([[0, 0, 0], [0, 1, 1], [0, 1, 2]])


@pytest.fixture
def n3():
    return validate([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


@pytest.fixture
def no_tables(monkeypatch):
    """Makes the catalog's class generator raise, so a call that builds
    any table fails the test."""
    from sglab import catalog

    def generated(n):
        raise AssertionError(f"a table of order {n} was generated")

    monkeypatch.setattr(catalog, "_backtrack", generated)


@pytest.fixture(scope="session")
def catalog2():
    """All labeled semigroups of orders 1 and 2."""
    return [S for n in (1, 2) for S in enumerate_semigroups(n)]


@pytest.fixture(scope="session")
def catalog3():
    """All 113 labeled semigroups of order 3."""
    return list(enumerate_semigroups(3))


@pytest.fixture(scope="session")
def catalog4():
    """All 3492 labeled semigroups of order 4."""
    return list(enumerate_semigroups(4))


def _adjoin(t, zero):
    """The table t with a new element adjoined as a zero or as an identity."""
    n = len(t)
    rows = [list(row) + [n if zero else a] for a, row in enumerate(t)]
    rows.append([n if zero else b for b in range(n)] + [n])
    return validate(rows)


def _direct_product(t, u):
    m = len(u)
    cells = [(a, b) for a in range(len(t)) for b in range(m)]
    return validate([[t[a][c] * m + u[b][d] for c, d in cells] for a, b in cells])


@pytest.fixture(scope="session")
def order5(catalog4):
    """Order-5 tables: every 700th order-4 table with an identity or a zero adjoined."""
    return [_adjoin(S.table, zero) for S in catalog4[::700] for zero in (False, True)]


@pytest.fixture(scope="session")
def order6(catalog2, catalog3):
    """Order-6 tables: direct products of order-2 and order-3 tables."""
    return [_direct_product(t.table, u.table) for t in catalog2[2::3] for u in catalog3[::60]]


@pytest.fixture(scope="session")
def order7(order6):
    """Order-7 tables: some of the order-6 products with a zero or an identity adjoined."""
    return [_adjoin(S.table, zero) for S in order6[1::3] for zero in (True, False)]


@pytest.fixture(scope="session")
def order8(catalog2, catalog4):
    """An order-8 table: the two-element group times an order-4 table,
    with three idempotents among its eight elements."""
    return _direct_product(catalog2[5].table, catalog4[1234].table)
