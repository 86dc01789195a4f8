import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the CLI tests run ``python -m decalage`` in subprocesses; give them the
# checkout's sources, as ``pythonpath`` in pyproject.toml does in-process
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField


@pytest.fixture
def z2():
    return IntegerRing(2)


@pytest.fixture
def z3():
    return IntegerRing(3)


@pytest.fixture
def z5():
    return IntegerRing(5)


@pytest.fixture
def f5t():
    return PolynomialRing(PrimeField(5))


@pytest.fixture
def qt():
    return PolynomialRing(RationalField())


@pytest.fixture
def rng():
    return random.Random(20260808)


def desk_rings():
    return [IntegerRing(2), IntegerRing(3), IntegerRing(5),
            PolynomialRing(PrimeField(5))]
