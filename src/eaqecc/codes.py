"""Classical linear codes over GF(q) and GF(q^2).

A LinearCode is defined by a full-row-rank generator matrix, kept in
reduced row echelon form so equality means equality of row spaces.
Duals, Hermitian duals, hulls and the hull code are computed lazily and
cached, a code and its Hermitian dual holding one hull and one hull code;
codes themselves are immutable.  Exact distance facts are cached
too, so each costs one engine run per code object: d from `min_distance`
or from the whole-code fact of `relative_distance`, and the
(outside, whole) pair of `relative_distance` per subcode.  Facts a work
budget leaves open are not cached.  A code read from text starts with
an empty cache.
"""

from __future__ import annotations

import numpy as np

from . import distance as dist
from .distance import DistanceFact
from .errors import BudgetError, EaqeccError, InvalidFieldError, PreconditionError
from .fields import FieldSpec
from .matrix import MatrixFq, gf_matmul, in_row_space


# cache entries a code and its Hermitian dual share, as both have one hull
_HULL_KEYS = ("hull", "hull_code")


class LinearCode:
    """An [n, k] linear code given by a generator matrix."""

    def __init__(self, field: FieldSpec, G, name: str | None = None):
        if isinstance(G, MatrixFq):
            if G.field != field:
                raise InvalidFieldError("generator matrix field mismatch")
            M = G
        else:
            M = MatrixFq(field, G)
        R, rank, pivots = M.rref()
        if rank < M.rows:
            raise PreconditionError(
                f"generator matrix is rank-deficient: {M.rows} rows, rank {rank}"
            )
        self.field = field
        self.name = name
        self.G = R
        self._pivots = pivots
        self._cache = {}

    @property
    def n(self) -> int:
        return self.G.cols

    @property
    def k(self) -> int:
        return self.G.rows

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"LinearCode[{self.n},{self.k}]_{self.field.order}{tag}"

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self.field == other.field and self.G == other.G

    def __hash__(self):
        return hash((self.field, self.G))

    # -- membership -----------------------------------------------------------

    def contains_vector(self, v) -> bool:
        return bool(self._contains(np.asarray(v, dtype=np.uint8)[None, :])[0])

    def contains_code(self, other: "LinearCode") -> bool:
        if other.field != self.field or other.n != self.n:
            return False
        return bool(self._contains(other.G.array).all())

    def _contains(self, words: np.ndarray) -> np.ndarray:
        return in_row_space(words, self.G.array, self._pivots, self.field)

    # -- duals and hulls ---------------------------------------------------------

    def euclidean_dual(self) -> "LinearCode":
        if "dual" not in self._cache:
            self._cache["dual"] = LinearCode(self.field, self.G.kernel())
        return self._cache["dual"]

    def hermitian_dual(self) -> "LinearCode":
        """Vectors x with sum_i x_i c_i^q = 0 for every codeword c.

        The dual's own dual is this code, and the two share one hull:
        the dual's cache starts with this code and with the hull entries
        (`_HULL_KEYS`) built so far, and either code hands the other the
        entries it builds later.
        """
        if "hdual" not in self._cache:
            self.field._require_square()
            dual = LinearCode(self.field, self.G.conj().kernel())
            dual._cache["hdual"] = self
            for key in _HULL_KEYS:
                if key in self._cache:
                    dual._cache[key] = self._cache[key]
            self._cache["hdual"] = dual
        return self._cache["hdual"]

    def _share_with_dual(self, key):
        """Hand a hull entry to the Hermitian dual, when that is built."""
        if "hdual" in self._cache:
            self._cache["hdual"]._cache.setdefault(key, self._cache[key])

    def hermitian_hull(self):
        """(basis matrix, dimension) of the intersection with the Hermitian dual.

        The dimension always equals k - rank(G G^dagger); the basis rows
        are u G for u spanning the left kernel of G G^dagger.
        """
        if "hull" not in self._cache:
            self.field._require_square()
            left = self.gram_hermitian().transpose().kernel()  # u with u (G G^dagger) = 0
            basis = MatrixFq(self.field, gf_matmul(left.array, self.G.array, self.field))
            R, rank, _ = basis.rref()
            if rank != basis.rows:
                raise EaqeccError("hull basis rows are dependent")
            self._cache["hull"] = (R, rank)
            self._share_with_dual("hull")
        return self._cache["hull"]

    @property
    def hull_dim(self) -> int:
        return self.hermitian_hull()[1]

    def hull_code(self) -> "LinearCode":
        if "hull_code" not in self._cache:
            basis, ell = self.hermitian_hull()
            if ell == 0:
                basis = MatrixFq.zeros(self.field, 0, self.n)
            self._cache["hull_code"] = LinearCode(self.field, basis)
            self._share_with_dual("hull_code")
        return self._cache["hull_code"]

    def gram_hermitian(self) -> MatrixFq:
        return self.G @ self.G.hermitian_transpose()

    # -- transformations ----------------------------------------------------------

    def scale_columns(self, scalars) -> "LinearCode":
        if any(a == 0 for a in scalars):
            raise PreconditionError("column scalars must be nonzero")
        return LinearCode(self.field, self.G.scale_cols(scalars))

    def permute_columns(self, perm) -> "LinearCode":
        return LinearCode(self.field, self.G.permute_cols(perm))

    # -- distances ------------------------------------------------------------------

    def min_distance(
        self,
        enum_cap: int = dist.DEFAULT_ENUM_CAP,
        work_budget: int = dist.DEFAULT_WORK_BUDGET,
        target: int | None = None,
    ) -> DistanceFact:
        """Exact minimum distance when affordable, honest bounds otherwise.

        The engine is chosen by `_distance_facts`; facts are cached.  The
        zero code gets the conventional value n + 1.
        """
        exact = self._cache.get("exact_d")
        if exact is not None:
            return exact
        key = ("d", enum_cap, work_budget, target)
        if key in self._cache:
            return self._cache[key]
        if self.k == 0:
            fact = DistanceFact(self.n + 1, "exact", "convention")
        else:
            fact = _distance_facts(self, None, enum_cap, work_budget, target)[1]
        if fact.exact:
            self._cache["exact_d"] = fact
        else:
            self._cache[key] = fact
        return fact

    # -- files --------------------------------------------------------------------

    def to_text(self) -> str:
        return self.G.to_text(kind="generator", name=self.name)

    @classmethod
    def from_text(cls, text: str) -> "LinearCode":
        M, extra = MatrixFq.from_text(text)
        kind = extra.get("kind", "generator")
        if kind != "generator":
            raise PreconditionError(f"expected a generator matrix file, got kind={kind}")
        return cls(M.field, M, name=extra.get("name"))


def relative_distance(
    big: LinearCode,
    sub: LinearCode,
    enum_cap: int = dist.DEFAULT_ENUM_CAP,
    work_budget: int = dist.DEFAULT_WORK_BUDGET,
):
    """(min weight of big \\ sub, min weight of big) as two facts.

    sub must be a proper subcode of big, possibly {0}.  One enumeration
    pass or one information-set run (see `_distance_facts`) gives both.
    The preconditions are checked on every call.  A pair of exact facts
    is cached on big, keyed by sub's generator, and an exact whole fact
    also settles big's `min_distance`; a fact left open by the budget is
    recomputed on the next call, as in `min_distance`.
    """
    if big.field != sub.field or big.n != sub.n:
        raise PreconditionError("codes live in different spaces")
    if not big.contains_code(sub):
        raise PreconditionError("second code is not contained in the first")
    if sub.k == big.k:
        raise PreconditionError("difference set is empty: the codes coincide")
    if big.k == 0:
        raise PreconditionError("the zero code has no nonzero words")
    key = ("rel", sub.G)
    facts = big._cache.get(key)
    if facts is None:
        facts = _distance_facts(big, sub, enum_cap, work_budget, None)
        if facts[1].exact:
            big._cache.setdefault("exact_d", facts[1])
            if facts[0].exact:
                big._cache[key] = facts
    return facts


def _distance_facts(code: LinearCode, sub, enum_cap, work_budget, target):
    """(fact outside sub, fact for the whole code): the one engine choice.

    Past enum_cap on q^k, the information-set loop runs until exact, the
    optional target lower bound is certified, or the work budget runs
    out.  Within it the facts are exact, from the engine estimated the
    faster (`dist.information_sets_if_cheaper`): scalar-class
    enumeration, or the information-set loop when its estimated messages
    also fit the work budget.  The estimate bounds the answer by the
    lightest generator row outside sub, a word of the measured set.  A
    chosen information-set run ignores target and gets the estimated
    messages as its budget; should it stop short of exact anyway (a code
    whose forms have larger deficits than generic ones), enumeration
    gives the facts, so the worst case costs about twice enumeration.
    With sub None there is no subcode and the first fact is None; a
    zero-dimensional sub still gets its own fact.
    """
    field = code.field
    subcode = None if sub is None else sub.G.array
    if field.order**code.k > enum_cap:
        res = dist.information_set_bounds(
            field, code.G.array, target=target, work_budget=work_budget, subcode=subcode)
        return res.outside_fact, res.fact
    sub_rows = 0 if sub is None else sub.k
    rows = code.G.array if sub is None else _adapted_rows(code, sub)
    upper = int(np.count_nonzero(rows[sub_rows:], axis=1).min())
    messages = dist.information_sets_if_cheaper(field.order, code.n, code.k, upper)
    if messages is not None and messages <= work_budget:
        try:
            res = dist.information_set_bounds(
                field, code.G.array, work_budget=messages, subcode=subcode)
        except BudgetError:  # a weight pass past the tensor cap
            res = None
        if res and res.fact.exact and (sub is None or res.outside_fact.exact):
            return res.outside_fact, res.fact
    scan = dist.span_weight_scan(field, rows, sub_rows=sub_rows, cap=enum_cap)
    whole = DistanceFact(scan.min_weight, "exact", "enumeration", scan.witness)
    if sub is None:
        return None, whole
    return DistanceFact(scan.outside_min, "exact", "enumeration", scan.outside_witness), whole


def min_weight_outside(big: LinearCode, sub: LinearCode, **kw) -> DistanceFact:
    """Minimum weight over codewords of big that are not in sub."""
    return relative_distance(big, sub, **kw)[0]


def _adapted_rows(big: LinearCode, sub: LinearCode) -> np.ndarray:
    """Rows spanning big with the first sub.k rows spanning sub.

    Then come the rows of big.G a greedy scan would add: the non-pivots of
    sub in big's basis (its entries at big's pivots), reduced last to first.
    """
    coords = MatrixFq(big.field, sub.G.array[:, big._pivots])
    _, rank, pivots = coords.rref(pivot_priority=range(big.k - 1, -1, -1))
    if rank != sub.k:
        raise EaqeccError("subcode rows do not extend to a basis of the code")
    taken = sorted(set(range(big.k)) - set(pivots))
    return np.vstack([sub.G.array, big.G.array[taken]])


def random_code(field: FieldSpec, n: int, k: int, rng) -> LinearCode:
    """Uniform-ish random [n, k] code (resamples until full rank)."""
    if not 0 <= k <= n:
        raise PreconditionError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return LinearCode(field, MatrixFq.zeros(field, 0, n))
    while True:
        G = rng.integers(0, field.order, size=(k, n), dtype=np.uint8)
        if MatrixFq(field, G).rank() == k:
            return LinearCode(field, G)
