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
