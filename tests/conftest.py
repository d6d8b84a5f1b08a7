import json
from importlib import resources

import pytest
from hypothesis import settings

from lieembed.liecore import LieAlgebra, Subspace
from lieembed.vecfield import algebra_by_name, so_pq_generators

# selected with --hypothesis-profile=ci (the CI workflow); without it the
# hypothesis defaults apply
settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def wave15():
    return algebra_by_name("wave15")


@pytest.fixture(scope="session")
def wave16():
    return algebra_by_name("wave16")


@pytest.fixture(scope="session")
def g2():
    return algebra_by_name("g2")


@pytest.fixture(scope="session")
def so4():
    return so_pq_generators(4, 0)


@pytest.fixture(scope="session")
def so13():
    return so_pq_generators(1, 3)


@pytest.fixture(scope="session")
def so22():
    return so_pq_generators(2, 2)


@pytest.fixture(scope="session")
def sl2():
    # standard basis (X, H, Y): [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H
    return LieAlgebra(3, ["X", "H", "Y"],
                      {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}},
                      name="sl2")


@pytest.fixture(scope="session")
def so3():
    return LieAlgebra(3, ["e1", "e2", "e3"],
                      {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
                      name="so3")


@pytest.fixture(scope="session")
def golden_corpus():
    data = resources.files("lieembed").joinpath("data/golden.json").read_text()
    return json.loads(data)


def span(L, *vectors):
    return Subspace(L, vectors)
