import pytest

from filtra import Quiver, Representation, ThetaFamily, errors


@pytest.fixture
def clear_caches():
    """A function that empties every cached store of filtra, so no later
    answer can lean on an entry left by earlier work."""
    return errors.clear_caches


@pytest.fixture(scope="session")
def a2():
    return Quiver.from_edges(2, [("a", 0, 1)])


@pytest.fixture(scope="session")
def a3():
    return Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)])


@pytest.fixture(scope="session")
def d4():
    return Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)])


@pytest.fixture(scope="session")
def s1(a2):
    return Representation.simple(a2, 2, 0)


@pytest.fixture(scope="session")
def s2(a2):
    return Representation.simple(a2, 2, 1)


@pytest.fixture(scope="session")
def p1(a2):
    return Representation.projective(a2, 2, 0)


@pytest.fixture(scope="session")
def full_family(s1, s2):
    return ThetaFamily((s1, s2))


@pytest.fixture(scope="session")
def mixed_family(s1, p1):
    return ThetaFamily((s1, p1))
