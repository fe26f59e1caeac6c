"""Regression checks against the bundled reference examples and tables.

Re-derives every bundled golden fact from scratch: the self-orthogonal
[29,14] ingredient and its derived parameter family, the [5,4,2] ->
[6,4,3] extension chain with its tight bounds, the [16,5,8] hull
pipeline with both recorded extension words, and the bound consistency
of the two parameter tables.  Any mismatch is reported with the
expected and computed values.
"""

from __future__ import annotations

import numpy as np

from . import bounds, propagate, tables
from .codes import LinearCode
from .construct import hermitian_construct
from .errors import EaqeccError
from .fields import GF
from .matrix import MatrixFq


class Verifier:
    def __init__(self, emit):
        self.emit = emit
        self.failures = 0

    def check(self, name, got, want):
        if got == want:
            self.emit("ok", name=name, value=_fmt(got))
        else:
            self.failures += 1
            self.emit("FAIL", name=name, expected=_fmt(want), got=_fmt(got))


def _fmt(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _params_tuple(p):
    return (p.n, p.kappa, p.delta.value, p.c)


def run_verification(emit, data_dir=None) -> int:
    """Run every bundled-data check; returns the failure count."""
    F9 = GF(9)
    v = Verifier(emit)

    def load_matrix(name):
        M, extra = MatrixFq.from_text(tables.load_data_text(name, data_dir))
        return M

    # ---- self-orthogonal [29,14] ingredient --------------------------------
    C29 = LinearCode(F9, load_matrix("g29_14_9.txt"))
    v.check("g29.params", (C29.n, C29.k), (29, 14))
    v.check("g29.self_orthogonal", C29.gram_hermitian().is_zero(), True)
    v.check("g29.hull_dim", C29.hull_dim, 14)
    Q29 = hermitian_construct(C29, known_distance=11, known_pure=True)
    v.check("g29.construct", _params_tuple(Q29), (29, 1, 11, 0))
    for i in (1, 14):
        Qi = propagate.more_entanglement(Q29, i)
        v.check(f"g29.more_ent.i{i}", _params_tuple(Qi), (29, 1 + i, 11, i))
        v.check(f"g29.more_ent.i{i}.net_rate", str(Qi.net_rate), str(Q29.net_rate))

    # ---- [5,4,2] -> [6,4,3] extension chain --------------------------------
    G5 = np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, dtype=np.uint8)])
    C5 = LinearCode(F9, G5)
    v.check("ext6.base", (C5.n, C5.k, C5.min_distance().value, C5.hull_dim), (5, 4, 2, 0))
    col = load_matrix("extcol_5_4.txt").array[:, 0]
    C6 = propagate.extend_column(C5, column=col)
    v.check("ext6.extended", (C6.n, C6.k, C6.min_distance().value, C6.hull_dim), (6, 4, 3, 1))
    v.check("ext6.mds", C6.min_distance().value, C6.n - C6.k + 1)
    dual6 = C6.hermitian_dual()
    v.check("ext6.dual", (dual6.n, dual6.k, dual6.min_distance().value), (6, 2, 5))
    Q6 = hermitian_construct(C6)
    v.check("ext6.construct", _params_tuple(Q6), (6, 1, 5, 3))
    v.check("ext6.pure", Q6.purity, "pure")
    v.check("ext6.net_rate", str(Q6.net_rate), "-1/3")
    report = bounds.check_all(Q6)
    for bid in ("S3", "P", "GH"):
        v.check(f"ext6.bound.{bid}.tight", report.entry(bid).tight, True)

    # ---- [16,5,8] hull pipeline ---------------------------------------------
    C16 = LinearCode(F9, load_matrix("g16_5_9.txt"))
    v.check("hull16.params", (C16.n, C16.k, C16.min_distance().value), (16, 5, 8))
    hull = C16.hull_code()
    v.check("hull16.hull", (hull.n, hull.k, hull.min_distance().value), (16, 3, 12))
    dual16 = C16.hermitian_dual()
    v.check("hull16.dual_dim", dual16.k, 11)
    v.check("hull16.euclidean_dual_dim", C16.euclidean_dual().k, 11)
    Q16 = hermitian_construct(dual16)
    v.check("hull16.construct", _params_tuple(Q16), (16, 2, 8, 8))
    v.check("hull16.pure", Q16.purity, "pure")
    w15 = load_matrix("word16_w15.txt").array[0]
    v.check("hull16.w15.weight", int((w15 != 0).sum()), 15)
    step = propagate.less_entanglement_step(Q16, word=w15)
    E2 = step.certificate["code"]
    v.check("hull16.w15.extended", (E2.n, E2.k, E2.min_distance().value), (17, 6, 8))
    hull2 = E2.hull_code()
    v.check("hull16.w15.extended_hull", (hull2.n, hull2.k, hull2.min_distance().value), (17, 4, 10))
    dual2 = E2.hermitian_dual()
    dual2_fact = dual2.min_distance()
    v.check("hull16.w15.extended_dual", (dual2.k, dual2_fact.value, dual2_fact.exact), (11, 5, True))
    v.check("hull16.w15.construct", _params_tuple(step.output_params), (17, 2, 8, 7))
    v.check("hull16.w15.pure", step.output_params.purity, "pure")
    replayed = propagate.replay_step(step)
    v.check("hull16.w15.replay", _params_tuple(replayed), _params_tuple(step.output_params))
    w14 = load_matrix("word16_w14.txt").array[0]
    v.check("hull16.w14.weight", int((w14 != 0).sum()), 14)
    Q17b = propagate.less_entanglement(Q16, word=w14)
    v.check("hull16.w14.construct", _params_tuple(Q17b), (17, 2, 7, 7))

    # ---- bundled parameter tables -------------------------------------------
    try:
        qubit = tables.load_bundled("qubit", data_dir)
        qutrit = tables.load_bundled("qutrit", data_dir)
        v.check("tables.qubit.count", len(qubit), 294)
        v.check("tables.qutrit.count", len(qutrit), 211)
        for name, store in (("qubit", qubit), ("qutrit", qutrit)):
            bad = tables.check_records(list(store))
            v.check(f"tables.{name}.bound_violations", len(bad), 0)
            for rec, rep in bad:
                emit("violation", record=rec.to_line(),
                     bounds=",".join(e.bound_id for e in rep.violations))
    except EaqeccError as exc:
        v.failures += 1
        emit("FAIL", name="tables.load", error=str(exc))

    emit("summary", failures=str(v.failures))
    return v.failures
