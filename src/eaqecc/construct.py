"""Quantum code parameters from classical ingredients.

Two routes produce [[n, kappa, delta; c]]_q parameter sets: the
Hermitian route takes one code over GF(q^2), the CSS-like route a pair
of codes over GF(q).  Both compute the ebit count c from hull data,
derive delta from the relevant dual (relative to the hull when the dual
is not contained), classify purity, and run the bound gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import distance as dist
from .codes import LinearCode, relative_distance
from .distance import DistanceFact
from .errors import EaqeccError, InvalidFieldError, PreconditionError
from .matrix import MatrixFq, gf_matmul


def is_pure_at(purity: str, delta: int) -> bool:
    """Whether a purity tag ('pure', 'pure_to:<w>' or 'unknown') covers distance delta."""
    if purity.startswith("pure_to:"):
        return int(purity[len("pure_to:"):]) >= delta
    return purity == "pure"


@dataclass(frozen=True)
class EaqeccParams:
    """Parameters [[n, kappa, delta; c]]_q with provenance.

    purity is 'pure', 'pure_to:<w>' (pure to distance w), or 'unknown'.
    provenance records the construction/propagation chain as text; the
    classical ingredient(s) ride along for further propagation but do
    not take part in equality.
    """

    q: int
    n: int
    kappa: int
    delta: DistanceFact
    c: int
    purity: str = "unknown"
    provenance: tuple = ()
    route: str | None = None
    ingredient: object = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.kappa <= self.n:
            raise PreconditionError(f"kappa={self.kappa} out of range for n={self.n}")
        if not 0 <= self.c <= self.n - self.kappa:
            raise PreconditionError(f"c={self.c} out of range for n−kappa={self.n - self.kappa}")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.kappa, self.n)

    @property
    def net_rate(self) -> Fraction:
        return Fraction(self.kappa - self.c, self.n)

    def is_pure_at_delta(self) -> bool:
        return is_pure_at(self.purity, self.delta.value)

    def __str__(self):
        return f"[[{self.n},{self.kappa},{self.delta};{self.c}]]_{self.q}"

    def record_line(self, source: str = "constructed") -> str:
        return (
            f"{self.q} {self.n} {self.kappa} {self.delta.value} {self.c} "
            f"{self.purity} {source}"
        )


def _require_square(C: LinearCode):
    if not C.field.is_square_order:
        raise InvalidFieldError(
            f"the Hermitian route needs a square-order field, got GF({C.field.order})"
        )


def _purity(out_fact: DistanceFact, all_fact: DistanceFact) -> str:
    if out_fact.exact and all_fact.exact:
        if out_fact.value == all_fact.value:
            return "pure"
        return f"pure_to:{all_fact.value}"
    return "unknown"


def hermitian_construct(
    C: LinearCode,
    known_distance: int | None = None,
    known_pure: bool | None = None,
    work_budget: int = dist.DEFAULT_WORK_BUDGET,
) -> EaqeccParams:
    """[[n, n-2k+c, delta; c]]_q from an [n, k] code over GF(q^2).

    c = k - dim(hull); delta is the minimum weight of the Hermitian dual
    when it sits inside C, and of the dual minus the hull otherwise,
    computed within `work_budget` information-set messages (the
    library-wide default of `distance`; the paper's [29,14]_9 code
    settles delta = 11 within it).  `known_distance` injects an
    externally certified delta instead (recorded as a citation fact) and
    `known_pure` then settles purity; nothing checks a cited delta.
    """
    _require_square(C)
    n, k = C.n, C.k
    ell = C.hull_dim
    c = k - ell
    kappa = n - 2 * k + c
    dual = C.hermitian_dual()
    provenance = (f"hermitian[{n},{k}]_{C.field.order}",)
    if known_distance is not None:
        delta = DistanceFact(known_distance, "exact", "citation")
        purity = "pure" if known_pure else "unknown"
    elif ell == n - k:  # the hull is all of the dual
        delta = dual.min_distance(work_budget=work_budget)
        purity = "pure" if delta.exact else "unknown"
    else:
        out_fact, all_fact = relative_distance(dual, C.hull_code(), work_budget=work_budget)
        delta = out_fact
        purity = _purity(out_fact, all_fact)
    params = EaqeccParams(
        q=C.field.subfield_order,
        n=n,
        kappa=kappa,
        delta=delta,
        c=c,
        purity=purity,
        provenance=provenance,
        route="hermitian",
        ingredient=C,
    )
    bound_gate(params)
    return params


def intersection(C1: LinearCode, C2: LinearCode) -> LinearCode:
    """Span intersection, via the kernel of the stacked dual generators."""
    if C1.field != C2.field or C1.n != C2.n:
        raise PreconditionError("intersection needs codes over one field and length")
    H = C1.euclidean_dual().G.vstack(C2.euclidean_dual().G)
    return LinearCode(C1.field, H.kernel())


def _fact_min(f1: DistanceFact, f2: DistanceFact) -> DistanceFact:
    if f1.exact and f2.exact:
        return f1 if f1.value <= f2.value else f2

    def low(f):
        return f.value if f.certainty in ("exact", "lower_bound") else 0

    def up(f):
        if f.exact or f.certainty == "upper_bound":
            return f.value, f.witness
        return f.upper, f.upper_witness

    u1, w1 = up(f1)
    u2, w2 = up(f2)
    ups = [(u, w) for u, w in ((u1, w1), (u2, w2)) if u is not None]
    u, w = min(ups, key=lambda t: t[0]) if ups else (None, None)
    return DistanceFact(
        min(low(f1), low(f2)), "lower_bound", "information_sets", None, upper=u, upper_witness=w
    )


def css_construct(
    C1: LinearCode,
    C2: LinearCode,
    work_budget: int = dist.DEFAULT_WORK_BUDGET,
) -> EaqeccParams:
    """[[n, n-(k1+k2)+c, delta; c]]_q from two codes over GF(q).

    c = k1 - dim(C1 ∩ C2^perp), cross-checked against rank(G1 G2^T);
    a mismatch means a bug and raises.  delta takes the two-branch form:
    the plain dual minimum when C1^perp sits inside C2 (the kappa = 0
    extreme), the minimum over both hull-relative sets otherwise.
    """
    if C1.field != C2.field or C1.n != C2.n:
        raise PreconditionError("CSS route needs codes over one field and length")
    field = C1.field
    n, k1, k2 = C1.n, C1.k, C2.k
    dual1 = C1.euclidean_dual()
    dual2 = C2.euclidean_dual()
    c = k1 - intersection(C1, dual2).k
    c_rank = int(MatrixFq(field, gf_matmul(C1.G.array, C2.G.array.T, field)).rank())
    if c != c_rank:
        raise EaqeccError(
            f"internal inconsistency: c by intersection {c} != rank(G1 G2^T) {c_rank}"
        )
    kappa = n - (k1 + k2) + c

    if C2.contains_code(dual1):
        d1 = dual1.min_distance(work_budget=work_budget)
        d2 = dual2.min_distance(work_budget=work_budget)
        delta = _fact_min(d1, d2)
        purity = "pure" if delta.exact else "unknown"
    else:
        out1, all1 = relative_distance(dual1, intersection(C2, dual1), work_budget=work_budget)
        out2, all2 = relative_distance(dual2, intersection(C1, dual2), work_budget=work_budget)
        delta = _fact_min(out1, out2)
        purity = _purity(delta, _fact_min(all1, all2))
    params = EaqeccParams(
        q=field.order,
        n=n,
        kappa=kappa,
        delta=delta,
        c=c,
        purity=purity,
        provenance=(f"css[{n};{k1},{k2}]_{field.order}",),
        route="css",
        ingredient=(C1, C2),
    )
    bound_gate(params)
    return params


def bound_gate(params: EaqeccParams):
    """Every constructed or derived parameter set must satisfy its applicable bounds."""
    from . import bounds

    report = bounds.check_all(params)
    if not report.ok:
        raise EaqeccError(
            f"parameters {params} violate bounds: "
            + "; ".join(e.bound_id for e in report.violations)
        )
