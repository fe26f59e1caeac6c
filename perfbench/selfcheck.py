"""Shows that each workload's checks reject wrong answers.

    python3 perfbench/selfcheck.py

For every workload it runs a few cheap operations, corrupts their
answers (a known distance off by one, a witness symbol changed, a
dropped or weakened table cell, a failed verify-paper summary) and
asserts that the judge reports a problem.  It also asserts that the
untouched answers pass.  Exit code 0 when every corruption is caught.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys

from layers import Tracer
from run import WORKLOADS, setup


def _op(workload, label):
    """The operation with this label, looking inside batches too."""
    todo = list(workload.ops)
    while todo:
        op = todo.pop()
        if op.label == label:
            return op
        todo += op.parts
    raise KeyError(label)


def _caught(judge, result, exc=None):
    _, problems = judge(result, exc)
    return bool(problems)


def construct_cases(ex, wl):
    op = _op(wl, "herm.gf4.n14k6.0")
    C, Q, steps, replays = op.run()
    yield "hermitian pipeline as computed", not _caught(op.judge, (C, Q, steps, replays))
    wrong = dataclasses.replace(Q, delta=dataclasses.replace(Q.delta, value=Q.delta.value + 1))
    yield "delta off by one", _caught(op.judge, (C, wrong, steps, replays))
    wrong = dataclasses.replace(Q, purity="pure_to:1" if Q.purity == "pure" else "pure")
    yield "purity flipped", _caught(op.judge, (C, wrong, steps, replays))
    if steps:
        s = steps[-1]
        out = dataclasses.replace(s.output_params, c=s.output_params.c + 1, kappa=s.output_params.kappa + 1)
        yield "rule output c and kappa shifted", _caught(
            op.judge, (C, Q, steps[:-1] + [dataclasses.replace(s, output_params=out)], replays))
    op = _op(wl, "css0.gf2")
    C1, C2, Q = op.run()
    yield "css construction as computed", not _caught(op.judge, (C1, C2, Q))
    yield "css ebits off by one", _caught(op.judge, (C1, C2, dataclasses.replace(Q, c=Q.c + 1)))
    op = _op(wl, "same.fixed")
    yield "assertion outside same_entanglement_step", _caught(op.judge, None, AssertionError())
    op = _op(wl, "verify-paper")
    yield "verify-paper failure", _caught(op.judge, (1, "#v1\nsummary failures=1\n"))


def isd_cases(ex, wl):
    op = _op(wl, "hullrel0")
    D, (out, whole) = op.run()
    yield "hull-relative case as computed", not _caught(op.judge, (D, (out, whole)))
    wrong = dataclasses.replace(out, value=out.value + 1)
    yield "hull-relative distance off by one", _caught(op.judge, (D, (wrong, whole)))
    w = list(out.witness)
    w[next(j for j, v in enumerate(w) if v)] = 0
    wrong = dataclasses.replace(out, witness=tuple(w))
    yield "witness symbol zeroed", _caught(op.judge, (D, (wrong, whole)))
    op = _op(wl, "qr47.copy")
    fact = ex.distance.DistanceFact(10, "exact", "information_sets", tuple([1] * 10 + [0] * 37))
    yield "QR distance claimed as 10", _caught(op.judge, fact)
    op = _op(wl, "paper29.d")
    fact = ex.distance.DistanceFact(13, "exact", "information_sets", tuple([1] * 13 + [0] * 16))
    yield "[29,14] distance claimed as 13", _caught(op.judge, fact)


def table_cases(ex, wl):
    op = _op(wl, "qutrit.slice.all_rules")
    expanded = op.run()
    yield "slice expansion as computed", not _caught(op.judge, expanded)
    key = next(iter(expanded.cells))
    d, root = expanded.cells[key]
    expanded.cells[key] = (d + 1, root)
    yield "one cell's delta raised", _caught(op.judge, expanded)
    del expanded.cells[key]
    yield "one cell dropped", _caught(op.judge, expanded)
    expand, compress = _op(wl, "qubit.expand"), _op(wl, "qubit.compress")
    expand.run()
    kept = compress.run()
    yield "round trip as computed", not _caught(compress.judge, kept)
    yield "round trip loses a record", _caught(compress.judge, kept[1:])
    op = _op(wl, "query.qutrit")
    hits = op.run()
    yield "query as computed", not _caught(op.judge, hits)
    if hits:
        weak = [dataclasses.replace(hits[0], delta=hits[0].delta - 1)] + hits[1:]
        yield "query answer below the closure", _caught(op.judge, weak)


CASES = {"construct-propagate": construct_cases, "isd": isd_cases, "table-closure": table_cases}


def main() -> int:
    missed = 0
    for name, cases in CASES.items():
        _, _, ex, data = setup(name)
        module, cls, _, _ = WORKLOADS[name]
        wl = getattr(importlib.import_module(module), cls)(ex, data, 0, Tracer(ex))
        for what, ok in cases(ex, wl):
            print(f"{'ok' if ok else 'MISSED'}: {name}: {what}")
            missed += not ok
    print(f"self-check: {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
