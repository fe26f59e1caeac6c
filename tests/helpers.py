"""Helpers shared by several test modules."""

import os
import pathlib

import eaqecc
from eaqecc import codes
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


def count_engine_runs(monkeypatch):
    """A list that gains one (code, subcode) entry per `codes._distance_facts` run."""
    runs = []
    real = codes._distance_facts

    def spy(code, sub, *args):
        runs.append((code, sub))
        return real(code, sub, *args)

    monkeypatch.setattr(codes, "_distance_facts", spy)
    return runs
