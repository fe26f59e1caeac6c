"""Helpers shared by several test modules."""

import os
import pathlib

import eaqecc
from eaqecc import propagate as prop
from eaqecc.distance import span_values


def package_env():
    """Environment in which a child Python imports the same eaqecc package as the tests."""
    paths = [str(pathlib.Path(eaqecc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def qualifying_word(C):
    """First word of C's Hermitian dual, in scalar-class walk order, that
    lies outside the hull and has nonzero Hermitian self-product."""
    hull = C.hull_code()
    for _, words in span_values(C.field, C.hermitian_dual().G.array):
        for w in words:
            if not hull.contains_vector(w) and prop.hermitian_self_product(C.field, w) != 0:
                return w
    return None
