import pytest

from nocmap import Mesh3D
from nocmap.taskgraph import graph_from_arcs

# Four cores A,B,C,D = 0..3 wired A->B, A->C, B->D, C->D; used all over the
# suite because every ordering and clustering step is easy to trace by hand.
G1_ARCS = [(0, 1, 100, 10), (0, 2, 70, 7), (1, 3, 50, 5), (2, 3, 20, 2)]


@pytest.fixture
def g1():
    return graph_from_arcs(4, G1_ARCS)


@pytest.fixture
def mesh3():
    return Mesh3D(3)


@pytest.fixture
def mesh2():
    return Mesh3D(2)
