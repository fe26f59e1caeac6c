"""Pieces the three workloads share."""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from oracle import Field, weight


@dataclass
class Op:
    """One timed operation and the judge of its outcome.

    run() does the work on fresh eaqecc objects and returns what the
    judge needs.  judge(result, exc) returns (failed, problems): failed
    marks an operation that hit one of the program's known faults,
    problems lists every way the outcome is wrong.
    """

    label: str
    run: Callable[[], object]
    judge: Callable[[object, BaseException | None], tuple]
    parts: list = field(default_factory=list)


def batch(label, parts):
    """Several operations timed as one; it fails when any part fails.

    Operations of a few milliseconds vary by a quarter from one process
    to the next on a shared machine; batching them keeps each timed
    operation long enough to be steady.
    """

    def run():
        out = []
        for part in parts:
            try:
                out.append((part.run(), None))
            except Exception as exc:  # judged by the part
                out.append((None, exc))
        return out

    def judge(results, exc):
        if exc is not None:
            return unexpected(label, exc)
        failed, problems = False, []
        for part, (result, part_exc) in zip(parts, results):
            f, p = part.judge(result, part_exc)
            failed = failed or f
            problems += p
        return failed, problems

    return Op(label, run, judge, parts)


def raised_in(exc: BaseException, function: str) -> bool:
    """True when the innermost frame of exc's traceback is `function`."""
    frames = traceback.extract_tb(exc.__traceback__)
    return bool(frames) and frames[-1].name == function


def unexpected(label, exc):
    return True, [f"{label}: unexpected {type(exc).__name__}: {exc}"]


def random_full_rank(F: Field, rng, k: int, n: int) -> np.ndarray:
    while True:
        G = rng.integers(0, F.order, size=(k, n), dtype=np.uint8)
        if F.rank(G) == k:
            return G


def check_witness(F: Field, label, fact, value, rows, outside=None, hermitian_dual_of=None):
    """Problems with a distance fact's witness word.

    The witness must have the stated weight and lie in span(rows); when
    `outside` is given it must not lie in span(outside); when
    `hermitian_dual_of` is given, rows are not used and the word must be
    Hermitian-orthogonal to every row of that matrix instead.
    """
    w = fact.witness
    if w is None:
        return [f"{label}: exact fact without a witness"]
    w = np.array(w, dtype=np.uint8)
    problems = []
    if weight(w) != value:
        problems.append(f"{label}: witness weight {weight(w)} != {value}")
    if hermitian_dual_of is not None:
        if F.herm(np.asarray(hermitian_dual_of), w[None, :]).any():
            problems.append(f"{label}: witness is not in the Hermitian dual")
    elif not F.in_span(rows, w):
        problems.append(f"{label}: witness is not a codeword")
    if outside is not None and F.in_span(outside, w):
        problems.append(f"{label}: witness lies in the excluded subcode")
    return problems
