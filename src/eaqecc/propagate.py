"""Propagation machinery: hull manipulation and derived quantum codes.

Classical layer: equivalence transforms that move the Hermitian hull
dimension down (column scaling) or up (length extensions), a search for
the diagonal equivalence minimizing the ebit count, and the solution
space of the self-orthogonality-equivalence system.  A column raises the
hull by one exactly when the congruence D with D G G^dagger D^dagger =
Diag(I_s, 0) sends it to (y, 0) with sum_i N(y_i) = -1.  The column
extension takes its default and sampled columns from such congruences
and screens every column class by that test when it searches them all.
Such a complete search scores each column x without building a code:
the extension has distance d + 1 exactly when m . x != 0 for every
message m of a minimum-weight word, and d otherwise.

Quantum layer: the three entanglement rules (more / same / less) that
lift those transforms through the Hermitian construction, plus the
eight single-step parameter rules used to expand and compress tables.
Every quantum step carries a replayable certificate.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import distance as dist
from .codes import LinearCode
from .construct import EaqeccParams, bound_gate, hermitian_construct
from .distance import DistanceFact
from .errors import (
    BudgetError,
    EaqeccError,
    InvalidFieldError,
    PreconditionError,
    RuleNotApplicableError,
)
from .fields import GF
from .matrix import (
    MatrixFq, check_text_shape, gf_matmul, gf_ranks, hermitian_congruence_diagonalize,
)

DEFAULT_SEARCH_BUDGET = 10**4
DEFAULT_SPACE_CAP = 2**20
# the column search tries every column while it has at most this many classes,
# and otherwise this many congruence transforms (the first one unsampled)
COLUMN_CLASS_CAP = 10**5
COLUMN_GRAM_SAMPLES = 8
# the minimum-entanglement search ranks this many diagonals' Gram matrices at once
_MIN_ENT_CHUNK = 1 << 10


# --------------------------------------------------------------------------
# classical transforms
# --------------------------------------------------------------------------


def _norm_not_one_scalar(field) -> int:
    """Smallest nonzero a with a^(q+1) != 1; exists only for q > 2."""
    for a in field.nonzero_elements():
        if field.norm(a) != 1:
            return a
    raise InvalidFieldError(
        f"GF({field.order}): every nonzero element has norm 1 (base field too small)"
    )


def hull_reduce_scalars(C: LinearCode, ell_target: int):
    """Column scalars realizing a hull of dimension ell_target.

    Returns (scalars tuple, scaled code).  The scaling multiplies
    ell - ell_target of the hull's pivot columns by a fixed element of
    non-unit norm, which peels exactly that many dimensions off the
    hull while preserving [n, k, d].
    """
    field = C.field
    field._require_square()
    if field.subfield_order <= 2:
        raise InvalidFieldError("hull reduction needs base field size q > 2")
    hull_basis, ell = C.hermitian_hull()
    if not 0 <= ell_target <= ell:
        raise PreconditionError(f"target hull dimension {ell_target} not in [0, {ell}]")
    scalars = [1] * C.n
    if ell_target < ell:
        a = _norm_not_one_scalar(field)
        _, _, hull_pivots = hull_basis.rref()
        for col in hull_pivots[: ell - ell_target]:
            scalars[col] = a
    scaled = C.scale_columns(scalars)
    if scaled.hull_dim != ell_target:
        raise EaqeccError(f"column scaling gave hull dim {scaled.hull_dim}, not {ell_target}")
    return tuple(scalars), scaled


def hull_reduce(C: LinearCode, ell_target: int) -> LinearCode:
    """Equivalent [n, k, d] code whose Hermitian hull has the target dimension."""
    return hull_reduce_scalars(C, ell_target)[1]


def _check_extend_precondition(C: LinearCode):
    ell = C.hull_dim
    if not ell < min(C.k, C.n - C.k):
        raise PreconditionError(
            f"extension needs hull dim < min(k, n-k); got hull {ell}, k={C.k}, n-k={C.n - C.k}"
        )
    return ell


def extend_with_column(C: LinearCode, column) -> LinearCode:
    """Append one explicit column; the hull dimension must go up by one."""
    ell = _check_extend_precondition(C)
    col = np.asarray(column, dtype=np.uint8).reshape(-1, 1)
    if col.shape[0] != C.k:
        raise PreconditionError(f"column must have {C.k} entries")
    G2 = C.G.hstack(MatrixFq(C.field, col))
    out = LinearCode(C.field, G2)
    if out.hull_dim != ell + 1:
        raise PreconditionError("column does not raise the hull dimension by one")
    return out


def extend_column(C: LinearCode, column=None, search: bool = False, seed: int = 0) -> LinearCode:
    """[n+1, k, d'] code with hull dimension ell+1, d <= d' <= d+1 (see extend_column_step)."""
    return extend_column_step(C, column=column, search=search, seed=seed).certificate["output"]


def _sampled_columns(C: LinearCode, seed: int):
    """D^-1 (alpha e_position) over congruences D, positions < s and alpha of norm -1.

    D G G^dagger D^dagger = Diag(I_s, 0), so [D G | alpha e_position]
    raises the hull by one and spans the same code as [G | D^-1 alpha
    e_position].  The first pass over (position, alpha) uses the unsampled
    D; each later candidate draws its own random congruence from the seed.
    """
    field, gram = C.field, C.gram_hermitian()
    alphas = [a for a in field.elements() if field.norm(a) == field.neg(1)]
    rng = np.random.default_rng(seed)
    for g in [None] + [rng] * (COLUMN_GRAM_SAMPLES - 1):
        for position in range(C.k - C.hull_dim):
            for alpha in alphas:
                D, _ = hermitian_congruence_diagonalize(gram, rng=g)
                yield field.MUL[alpha, D.inverse().array[:, position]]


def _class_column_blocks(C: LinearCode, norm_reps):
    """Every hull-raising column: one per scalar class and norm representative.

    Appending x adds x x^dagger to G G^dagger.  With D G G^dagger D^dagger
    = Diag(I_s, 0) and y = D x that is Diag(I_s, 0) + y y^dagger, whose
    rank is s - 1 exactly when y vanishes past its first s entries and
    their norms sum to -1.  Classes come in span-walk order, each scaled
    by the representatives in turn, as one (B, k) array per walk block.
    D(lambda x) = lambda D x, so each block is multiplied by D once and
    the products are scaled like the classes.
    """
    field, k = C.field, C.k
    D, s = hermitian_congruence_diagonalize(C.gram_hermitian())
    reps = np.array(norm_reps, dtype=np.uint8)[None, :, None]
    for _, classes in dist.span_values(field, np.eye(k, dtype=np.uint8)):
        X = field.MUL[reps, classes[:, None, :]].reshape(-1, k)
        Y = field.MUL[reps, gf_matmul(classes, D.array.T, field)[:, None, :]].reshape(-1, k)
        ok = ~Y[:, s:].any(axis=1) & (hermitian_self_product(field, Y[:, :s]) == field.neg(1))
        yield X[ok]


def _min_weight_messages(C: LinearCode):
    """(d, M): the minimum distance of C and one message per scalar class
    of its words of weight d, as the rows of M.

    One scalar-class walk of span([I_k | G]) carries each message m
    beside its codeword m G.
    """
    k = C.k
    d, M = C.n + 1, []
    for _, vals in dist.span_values(C.field, np.hstack([np.eye(k, dtype=np.uint8), C.G.array])):
        wts = np.count_nonzero(vals[:, k:], axis=1)
        low = int(wts.min())
        if low < d:
            d, M = low, []
        if low == d:
            M.append(vals[wts == low, :k])
    return d, np.concatenate(M)


def _best_column(C: LinearCode, seed: int):
    """(column, extension): the first hull-raising column whose extension
    has the greatest distance, and that extension.

    While the columns form at most COLUMN_CLASS_CAP classes (times norm
    representatives) all of them are scored, so the search is complete.
    Appending x gives the words (m G, m . x), so d(C | x) is d(C) + 1
    exactly when m . x != 0 for every message m of a minimum-weight word
    of C, and d(C) otherwise.  One walk of C lists those messages, one
    product scores each block of columns, and only the chosen column's
    extension is built, its distance (at `min_distance`'s defaults)
    checked against the score.  Beyond the cap the sampled columns are
    tried (`_best_sampled_column`).
    """
    field = C.field
    # scaling the new column by lambda multiplies its Gram contribution by
    # norm(lambda): distance is scale-invariant but the hull is not, so scan
    # one representative per norm value on top of each scalar class
    norm_reps = [field.solve_norm(t) for t in field.subfield_nonzero_elements()]
    classes = (field.order**C.k - 1) // (field.order - 1) * len(norm_reps)
    if classes > COLUMN_CLASS_CAP:
        return _best_sampled_column(C, seed)
    d0, M0 = _min_weight_messages(C)
    best = None
    for X in _class_column_blocks(C, norm_reps):
        if not len(X):
            continue
        gains = np.flatnonzero(gf_matmul(M0, X.T, field).all(axis=0))
        if gains.size:
            best = (d0 + 1, X[gains[0]])
            break
        if best is None:
            best = (d0, X[0])
    if best is None:
        raise RuleNotApplicableError("no hull-raising column exists")
    out = extend_with_column(C, best[1])
    d = out.min_distance().value
    if d != best[0]:
        raise EaqeccError(f"column extension has distance {d}, scored {best[0]}")
    return best[1], out


def _best_sampled_column(C: LinearCode, seed: int):
    """(column, extension): the first sampled column whose extension has
    the greatest distance, and that extension.

    Each candidate's extension is built and its distance computed, which
    need only show whether it beats the best so far (`min_distance`'s
    target).
    """
    d0 = C.min_distance()
    best = None
    for col in _sampled_columns(C, seed):
        out = extend_with_column(C, col)
        fact = out.min_distance(target=(d0.value if best is None else best[0]) + 1)
        d2 = fact.value
        if d0.exact and fact.exact and not d0.value <= d2 <= d0.value + 1:
            raise EaqeccError(f"column extension changed distance {d0.value} to {d2}")
        if best is None or d2 > best[0]:
            best = (d2, col, out)
        if d2 == d0.value + 1:
            break
    if best is None:
        raise RuleNotApplicableError("no hull-raising column exists")
    return best[1:]


def extend_row_column(C: LinearCode, word) -> LinearCode:
    """[n+1, k+1] code with hull dimension ell+1 from a chosen dual word.

    word must lie in the Hermitian dual but outside the hull and have
    nonzero Hermitian self-product gamma; the new row is (word | beta)
    with beta^(q+1) = -gamma, the old rows get a zero column.
    """
    field = C.field
    ell = _check_extend_precondition(C)
    w = np.asarray(word, dtype=np.uint8)
    if w.shape != (C.n,):
        raise PreconditionError(f"word must have length {C.n}")
    if not C.hermitian_dual().contains_vector(w):
        raise PreconditionError("word is not in the Hermitian dual")
    if C.hull_code().contains_vector(w):
        raise PreconditionError("word lies in the hull")
    gamma = hermitian_self_product(field, w)
    if gamma == 0:
        raise PreconditionError("word has zero Hermitian self-product")
    beta = field.solve_norm(field.neg(gamma))
    top = np.hstack([C.G.array, np.zeros((C.k, 1), dtype=np.uint8)])
    bottom = np.concatenate([w, [beta]]).astype(np.uint8)
    out = LinearCode(field, np.vstack([top, bottom[None, :]]))
    if out.hull_dim != ell + 1 or out.k != C.k + 1:
        raise EaqeccError("row and column extension did not raise the hull dimension by one")
    return out


def hermitian_self_product(field, w):
    """w . w^dagger along the last axis: the sum of the coordinate norms, in GF(q)."""
    digits = field.DIGITS[field.NORM[np.asarray(w)]].sum(axis=-2, dtype=np.int64) % field.p
    return digits @ field.p ** np.arange(field.s)


# --------------------------------------------------------------------------
# entanglement searches
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MinEntanglementResult:
    c_min: int
    diagonal: tuple
    exhaustive: bool  # False means c_min is only an upper bound


def min_entanglement_search(
    C: LinearCode,
    mode: str = "exhaustive",
    seed: int = 0,
    budget: int = DEFAULT_SEARCH_BUDGET,
    cap: int = DEFAULT_SPACE_CAP,
) -> MinEntanglementResult:
    """Minimize rank(G Diag(b) G^dagger) over diagonals b in (GF(q)*)^n.

    Exhaustive mode scans all (q-1)^n diagonals in ascending order (cap
    guarded) and returns the true minimum with its first witness;
    randomized mode samples `budget` diagonals (at most cap of them) and
    returns an upper bound flagged as such.
    """
    field = C.field
    field._require_square()
    nonzero = field.subfield_nonzero_elements()
    if mode == "exhaustive":
        total = len(nonzero) ** C.n
        if total > cap:
            raise BudgetError(f"(q-1)^n = {total} exceeds cap {cap}; use randomized mode")
        trials = itertools.product(nonzero, repeat=C.n)
    elif mode == "randomized":
        if not 0 <= budget <= cap:
            raise BudgetError(f"randomized budget {budget} outside 0..cap = {cap}")
        rng = np.random.default_rng(seed)

        def sampled():
            # the all-ones diagonal is the do-nothing baseline; always include it so
            # a sampled bound never exceeds rank(G G^dagger)
            yield tuple([1] * C.n)
            # (chunk, n) draws read the generator's stream as budget draws of n do
            for start in range(0, budget, _MIN_ENT_CHUNK):
                draws = rng.integers(0, len(nonzero), (min(_MIN_ENT_CHUNK, budget - start), C.n))
                yield from map(tuple, np.array(nonzero)[draws].tolist())

        trials = sampled()
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    G, G_dagger = C.G.array, field.CONJ[C.G.array].T
    best = None
    while chunk := list(itertools.islice(trials, _MIN_ENT_CHUNK)):
        diags = np.array(chunk, dtype=np.uint8).reshape(len(chunk), C.n)
        scaled = field.MUL[G, diags[:, None, :]].reshape(-1, C.n)
        grams = gf_matmul(scaled, G_dagger, field).reshape(len(chunk), C.k, C.k)
        ranks = gf_ranks(field, grams).tolist()
        if 0 in ranks:  # the first rank-0 diagonal ends the search, as in a one-by-one scan
            best = (0, chunk[ranks.index(0)])
            break
        low = min(zip(ranks, chunk))  # product order ascends, samples may not
        best = low if best is None else min(best, low)
    return MinEntanglementResult(best[0], best[1], mode == "exhaustive")


def puncture_space(C: LinearCode) -> MatrixFq:
    """Solution space of sum_i b_i x_i y_i^q = 0 over all codeword pairs.

    The unknowns b live in the base subfield; each GF(q^2) equation on
    a pair of generator rows splits into prime-field components.  The
    code is equivalent to a Hermitian self-orthogonal code exactly when
    this space contains a vector with every coordinate nonzero.
    """
    field = C.field
    field._require_square()
    if field.s != 2:
        raise InvalidFieldError("puncture space implemented for GF(p^2) fields")
    base = field.base_subfield()
    rows = []
    G = C.G.array
    for r in range(C.k):
        for t in range(C.k):
            coeff = field.MUL[G[r], field.CONJ[G[t]]]
            digits = field.DIGITS[coeff]  # (n, 2) base-p components
            rows.append(digits[:, 0])
            rows.append(digits[:, 1])
    if not rows:
        return MatrixFq.identity(base, C.n)
    M = MatrixFq(base, np.array(rows, dtype=np.uint8))
    return M.kernel()


def find_all_nonzero_vector(
    space: MatrixFq,
    cap: int = DEFAULT_SPACE_CAP,
    seed: int = 0,
    budget: int = DEFAULT_SEARCH_BUDGET,
):
    """(found, vector, exhaustive) for an all-nonzero vector in a row space.

    Exhaustive scan while p^dim fits under the cap; otherwise a seeded
    sample, whose failure leaves the question open (found=False,
    exhaustive=False).  The exhaustive vector is the first hit in
    product order of the message (c_0, ..., c_{dim-1}).  That message
    has leading coefficient 1 (scaling keeps a vector all-nonzero) and
    the most leading zeros, so it is the first hit of the last lead row
    with a hit in the scalar-class walk, which checks whole blocks.
    """
    field = space.field
    dim = space.rows
    if dim == 0:
        return False, None, True
    rows = space.array
    if field.order**dim <= cap:
        hit = None
        for lead, vals in dist.span_values(field, rows):
            if hit is not None and hit[0] == lead:
                continue
            ok = np.flatnonzero(vals.all(axis=1))
            if ok.size:
                hit = lead, vals[ok[0]]
        if hit is None:
            return False, None, True
        return True, tuple(int(x) for x in hit[1]), True
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        v = gf_matmul(rng.integers(0, field.order, size=(1, dim)), rows, field)[0]
        if np.all(v != 0):
            return True, tuple(int(x) for x in v), False
    return False, None, False


# --------------------------------------------------------------------------
# quantum-level rules
# --------------------------------------------------------------------------


@dataclass
class PropagationStep:
    """One derivation step with enough certificate data to replay it."""

    rule_id: str
    input_params: EaqeccParams | None
    output_params: EaqeccParams
    certificate: dict


def hull_reduce_step(C: LinearCode, ell_target: int) -> PropagationStep:
    scalars, out = hull_reduce_scalars(C, ell_target)
    cert = {"input": C, "scalars": scalars, "output": out}
    return PropagationStep("hull_reduce", None, None, cert)


def extend_column_step(
    C: LinearCode, column=None, search: bool = False, seed: int = 0
) -> PropagationStep:
    """Append one column that raises the hull dimension by one.

    An explicit column is appended verbatim (it wins over `search`) and
    checked against that contract.  Otherwise `search` takes the column of
    greatest distance (`_best_column`) and the default takes the first
    sampled column: alpha e_0 under the unsampled congruence, alpha the
    smallest element of norm -1.
    """
    if column is not None:
        out = extend_with_column(C, column)
    elif search:
        _check_extend_precondition(C)
        column, out = _best_column(C, seed)  # built and checked there
    else:
        _check_extend_precondition(C)
        column = next(_sampled_columns(C, seed))
        out = extend_with_column(C, column)
    cert = {"input": C, "column": tuple(int(v) for v in column), "output": out}
    return PropagationStep("extend_column", None, None, cert)


def extend_row_column_step(C: LinearCode, word) -> PropagationStep:
    out = extend_row_column(C, word)
    cert = {"input": C, "word": tuple(int(v) for v in word), "output": out}
    return PropagationStep("extend_row_column", None, None, cert)


def min_entanglement_search_step(
    C: LinearCode,
    mode: str = "exhaustive",
    seed: int = 0,
    budget: int = DEFAULT_SEARCH_BUDGET,
    cap: int = DEFAULT_SPACE_CAP,
) -> PropagationStep:
    res = min_entanglement_search(C, mode=mode, seed=seed, budget=budget, cap=cap)
    cert = {"input": C, "diagonal": res.diagonal, "c_min": res.c_min,
            "mode": mode, "seed": seed, "budget": budget, "cap": cap}
    return PropagationStep("min_ent_search", None, None, cert)


def _require_hermitian_ingredient(Q: EaqeccParams) -> LinearCode:
    if Q.route != "hermitian" or not isinstance(Q.ingredient, LinearCode):
        raise PreconditionError("this rule needs a Hermitian-construction input with its code")
    return Q.ingredient


def _require_pure(Q: EaqeccParams):
    if not Q.is_pure_at_delta():
        raise PreconditionError("this rule needs a pure input code")


def _lift(rule_id: str, Q: EaqeccParams, code: LinearCode, label=None):
    """Quantum output of an entanglement rule from the code its transform made.

    Column scaling (more_ent) keeps the distance and trades i hull
    dimensions for i ebits, i read off the scaled code's hull.  The
    dual-side extensions (same_ent, less_ent) are rebuilt by the Hermitian
    construction on the extended code's Hermitian dual; the transforms'
    own hull checks fix its [[n, kappa; c]], the rule bounds its delta.
    """
    rule = RULES[rule_id]
    provenance = Q.provenance + (label or rule_id,)
    if not rule.on_dual:
        i = code.k - code.hull_dim - Q.c
        out = dataclasses.replace(
            Q, kappa=Q.kappa + i, c=Q.c + i, purity=f"pure_to:{Q.delta.value}",
            provenance=provenance, route="hermitian", ingredient=code,
        )
        bound_gate(out)
        return out
    out = dataclasses.replace(hermitian_construct(code.hermitian_dual()), provenance=provenance)
    d, d2 = Q.delta.value, out.delta.value
    if out.delta.exact and Q.delta.exact and not rule.distance_ok(d, d2, out.is_pure_at_delta()):
        raise EaqeccError(f"{rule_id} output distance {d2} out of range for {d}")
    return out


def more_entanglement_step(Q: EaqeccParams, i: int) -> PropagationStep:
    """[[n, kappa+i, delta; c+i]], pure to distance delta, for 1 <= i <= hull dim.

    Trades hull dimensions of the ingredient for extra ebits via column
    scaling; n, delta and the net rate are untouched.
    """
    C = _require_hermitian_ingredient(Q)
    _require_pure(Q)
    if C.field.subfield_order <= 2:
        raise InvalidFieldError("more-entanglement rule needs q > 2")
    ell = C.hull_dim
    if not 1 <= i <= ell:
        raise PreconditionError(f"shift i={i} not in [1, {ell}]")
    scalars, C2 = hull_reduce_scalars(C, ell - i)
    cert = {"input": C, "i": i, "scalars": scalars, "code": C2}
    out = _lift("more_ent", Q, C2, f"more_ent(i={i})")
    small = C.field.order ** C2.hermitian_dual().k <= dist.DEFAULT_ENUM_CAP
    if small and hermitian_construct(C2).delta.value < Q.delta.value:
        raise EaqeccError("more-entanglement output lost distance")
    return PropagationStep("more_ent", Q, out, cert)


def same_entanglement_step(Q: EaqeccParams, search: bool = False, seed: int = 0) -> PropagationStep:
    """[[n+1, kappa-1, delta'; c]] with delta' >= delta, and delta' <= delta + 1
    when the output is pure (an impure output's delta' counts only words
    outside the hull, which can be heavier still).

    Applies the column extension to the Hermitian dual of the ingredient
    and reconstructs; the ebit count survives unchanged.
    """
    C = _require_hermitian_ingredient(Q)
    _require_pure(Q)
    if Q.kappa <= 0 or Q.c <= 0:
        raise PreconditionError("same-entanglement rule needs kappa > 0 and c > 0")
    E = C.hermitian_dual()
    if not E.hull_dim < min(E.k, E.n - E.k):
        raise RuleNotApplicableError("dual code sits at the hull boundary; extension undefined")
    ext = extend_column_step(E, search=search, seed=seed).certificate
    cert = {"input": E, "column": ext["column"], "code": ext["output"],
            "search": int(search), "seed": seed}
    out = _lift("same_ent", Q, ext["output"], f"same_ent(search={search}, seed={seed})")
    return PropagationStep("same_ent", Q, out, cert)


def less_entanglement_step(
    Q: EaqeccParams,
    word=None,
    strategy: str = "exhaustive",
    seed: int = 0,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> PropagationStep:
    """[[n+1, kappa, delta'; c-1]] with delta' <= delta.

    Extends the dual side by one row and column built on a codeword of
    the ingredient outside its hull with nonzero self-product.  With no
    explicit word, candidates are scanned (exhaustively or by seeded
    sampling) to maximize the resulting distance.
    """
    C = _require_hermitian_ingredient(Q)
    _require_pure(Q)
    if Q.c < 1:
        raise PreconditionError("less-entanglement rule needs c >= 1")
    E = C.hermitian_dual()
    if not E.hull_dim < min(E.k, E.n - E.k):
        raise RuleNotApplicableError("dual code sits at the hull boundary; extension undefined")
    if word is None:
        word = _pick_extension_word(C, E, strategy, seed, budget)
    E2 = extend_row_column(E, word)
    cert = {"input": E, "word": tuple(int(v) for v in word), "code": E2}
    out = _lift("less_ent", Q, E2, f"less_ent(strategy={strategy})")
    return PropagationStep("less_ent", Q, out, cert)


def _pick_extension_word(C, E, strategy, seed, budget):
    """Qualifying word of C \\ hull maximizing min(d(E), d0 + 1)."""
    field = C.field
    hull = C.hull_code()
    d_e = E.min_distance().value
    if strategy == "exhaustive":
        if field.order**C.k > budget * (field.order - 1):
            raise BudgetError("exhaustive word scan exceeds budget; use strategy='sampled'")
        words = (w for _, ws in dist.span_values(field, C.G.array) for w in ws)
    elif strategy == "sampled":
        rng = np.random.default_rng(seed)
        msgs = (rng.integers(0, field.order, size=C.k, dtype=np.uint8) for _ in range(budget))
        words = (gf_matmul(m[None, :], C.G.array, field)[0] for m in msgs if m.any())
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}")
    best = None
    for w in words:
        if hull.contains_vector(w) or hermitian_self_product(field, w) == 0:
            continue
        stacked = LinearCode(field, np.vstack([E.G.array, w[None, :]]))
        sc = min(d_e, stacked.min_distance().value + 1)
        if best is None or sc > best[0]:
            best = (sc, w.copy())
            if sc == d_e:
                break
    if best is None:
        raise RuleNotApplicableError("no qualifying codeword found")
    return best[1]


def more_entanglement(Q: EaqeccParams, i: int) -> EaqeccParams:
    return more_entanglement_step(Q, i).output_params


def same_entanglement(Q: EaqeccParams, **kw) -> EaqeccParams:
    return same_entanglement_step(Q, **kw).output_params


def less_entanglement(Q: EaqeccParams, **kw) -> EaqeccParams:
    return less_entanglement_step(Q, **kw).output_params


# --------------------------------------------------------------------------
# the rule table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """A code-backed propagation rule: how it is made and how it replays.

    `transform(code, datum)` takes the certificate's `input` code and its
    `datum` field to its output code.  Entanglement rules (`lifted`) lift
    that code through `_lift`; `on_dual` ones act on the Hermitian dual
    of the ingredient, which is then their `input`.
    """

    name: str  # the propagate command's --rule value
    make: object  # (code, or params when lifted; command options) -> PropagationStep
    needs: tuple  # command options `make` cannot do without
    transform: object
    datum: str
    lifted: bool = False
    on_dual: bool = False
    distance_ok: object = None  # (delta, delta', output pure) -> bool for an on_dual rule

    @property
    def output(self) -> str:  # certificate key of the transformed code
        return "code" if self.lifted else "output"


RULES = {
    "hull_reduce": Rule(
        "hull-reduce", lambda C, o: hull_reduce_step(C, o.ell), ("ell",),
        LinearCode.scale_columns, "scalars",
    ),
    "extend_column": Rule(
        "extend-column",
        lambda C, o: extend_column_step(C, column=o.column, search=o.search, seed=o.seed), (),
        extend_with_column, "column",
    ),
    "extend_row_column": Rule(
        "extend-row-column", lambda C, o: extend_row_column_step(C, o.word), ("word-file",),
        extend_row_column, "word",
    ),
    "more_ent": Rule(
        "more-ent", lambda Q, o: more_entanglement_step(Q, o.i), ("i",),
        LinearCode.scale_columns, "scalars", lifted=True,
    ),
    "same_ent": Rule(
        "same-ent", lambda Q, o: same_entanglement_step(Q, search=o.search, seed=o.seed), (),
        extend_with_column, "column", lifted=True, on_dual=True,
        distance_ok=lambda d, d2, pure: d <= d2 and (d2 <= d + 1 or not pure),
    ),
    "less_ent": Rule(
        "less-ent",
        lambda Q, o: less_entanglement_step(
            Q, word=o.word, strategy=o.strategy, seed=o.seed, budget=o.budget
        ),
        (), extend_row_column, "word", lifted=True, on_dual=True,
        distance_ok=lambda d, d2, pure: d2 <= d,
    ),
}


# --------------------------------------------------------------------------
# the eight single-step parameter rules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleRule:
    """A printed parameter rule: the shift (dn, dkappa, ddelta, dc) it applies.

    It applies when n stays >= 1 and each of kappa, delta - 1 and the free
    ebit room n - kappa - c that the shift lowers stays >= 0.  A `pure_in`
    rule also needs a pure input, and q >= `min_q`.  Only a `pure_out`
    rule's output is pure to its distance; every other one's is unknown.
    """

    name: str
    shift: tuple
    pure_in: bool = False
    min_q: int = 1
    pure_out: bool = False

    def limits(self) -> tuple:
        """Least (pure, q, n, kappa, delta, room) the rule applies to, -inf for none."""
        dn, dk, dd, dc = self.shift
        floors = ((1, dn), (0, dk), (1, dd), (0, dn - dk - dc))
        lows = tuple(low - d if d < 0 else -math.inf for low, d in floors)
        return (int(self.pure_in), self.min_q) + lows

    def unmet(self, q, n, kappa, delta, c, pure) -> str:
        """The first condition these parameters miss, or '' when the rule applies."""
        have = (pure, q, n, kappa, delta, n - kappa - c)
        for need, value, low in zip(_NEEDS, have, self.limits()):
            if value < low:
                return "needs " + need.format(low)
        return ""


# each limit of SimpleRule.limits, as its unmet condition reads
_NEEDS = (
    "a pure input", "q >= {}", "n >= {}", "kappa >= {}", "delta >= {}", "n - kappa - c >= {}"
)

SIMPLE_RULES = {
    1: SimpleRule("length extension", (1, 0, 0, 0)),
    2: SimpleRule("subcode", (0, -1, 0, 0)),
    3: SimpleRule("smaller distance", (0, 0, -1, 0)),
    4: SimpleRule("more entanglement", (0, 0, 0, 1)),
    5: SimpleRule("puncturing", (-1, 0, -1, 0)),
    6: SimpleRule("dimension up via extra entanglement", (0, 1, 0, 1),
                  pure_in=True, min_q=3, pure_out=True),
    7: SimpleRule("length down via extra entanglement", (-1, 0, 0, 1)),
    8: SimpleRule("shortening a pure code", (-1, 1, -1, 0), pure_in=True),
}


def simple_rule(rule) -> SimpleRule:
    if rule not in SIMPLE_RULES:
        raise PreconditionError(f"unknown rule {rule}")
    return SIMPLE_RULES[rule]


def simple_rule_transform(rule, n, kappa, delta, c):
    dn, dk, dd, dc = SIMPLE_RULES[rule].shift
    return n + dn, kappa + dk, delta + dd, c + dc


def apply_simple_rule(Q: EaqeccParams, rule: int) -> EaqeccParams:
    """The printed single-step transform, with its side conditions enforced."""
    entry = simple_rule(rule)
    reason = entry.unmet(Q.q, Q.n, Q.kappa, Q.delta.value, Q.c, Q.is_pure_at_delta())
    if reason:
        raise RuleNotApplicableError(f"rule {rule} ({entry.name}): {reason}")
    n2, k2, d2, c2 = simple_rule_transform(rule, Q.n, Q.kappa, Q.delta.value, Q.c)
    out = EaqeccParams(
        q=Q.q,
        n=n2,
        kappa=k2,
        delta=DistanceFact(d2, "exact", "propagation"),
        c=c2,
        purity=f"pure_to:{d2}" if entry.pure_out else "unknown",
        provenance=Q.provenance + (f"rule{rule}",),
    )
    bound_gate(out)
    return out


# --------------------------------------------------------------------------
# step replay and serialization
# --------------------------------------------------------------------------


def replay_step(step: PropagationStep):
    """Re-derive the output from the certificate; raises on any mismatch.

    A table rule checks that its input code gives the recorded input's
    [[n, kappa; c]] and delta (entanglement rules only), re-applies its
    transform to that code and datum, compares the result with the
    recorded code and, for an entanglement rule, lifts it and compares
    the parameters.
    Quantum steps return the recomputed EaqeccParams, classical steps the
    recomputed LinearCode, min_ent_search steps the search result.
    """
    rid, cert = step.rule_id, step.certificate
    if rid == "min_ent_search":
        kw = {k: _cert_value(cert, k, kind)
              for k, kind in (("mode", str), ("seed", _INT), ("budget", _INT), ("cap", _INT))}
        res = min_entanglement_search(_cert_value(cert, "input", LinearCode), **kw)
        want = (_cert_value(cert, "c_min", _INT), _cert_value(cert, "diagonal", tuple))
        if (res.c_min, res.diagonal) != want:
            raise EaqeccError("replay mismatch for min_ent_search")
        return res
    rule = RULES.get(rid)
    if rule is None:
        raise PreconditionError(f"cannot replay rule {rid}")
    code = _cert_value(cert, "input", LinearCode)
    if rule.lifted:
        Q = _recorded_input(step)
        k = code.n - code.k if rule.on_dual else code.k
        c = k - code.hull_dim
        if (code.field.subfield_order, code.n, code.n - 2 * k + c, c) != (Q.q, Q.n, Q.kappa, Q.c):
            raise EaqeccError(f"replay mismatch for {rid}: the input code does not give {Q}")
        _check_input_delta(rid, code.hermitian_dual() if rule.on_dual else code, Q)
    datum, q = _cert_value(cert, rule.datum, tuple), code.field.order
    if not all(0 <= v < q for v in datum):
        raise EaqeccError(f"{rid} certificate {rule.datum} has entries outside GF({q})")
    got, recorded = rule.transform(code, datum), _cert_value(cert, rule.output, LinearCode)
    if got != recorded:
        raise EaqeccError(f"replay mismatch for {rid}: derived code differs")
    # the recorded code equals got; lifting it rather than got reuses the
    # exact distance facts it cached in-process (none after step_from_text)
    return _check_output(step, _lift(rid, Q, recorded)) if rule.lifted else got


def _check_input_delta(rid: str, C: LinearCode, Q: EaqeccParams):
    """Compute the delta of the ingredient C and hold the recorded input to it.

    The Hermitian construction computes delta at the library defaults
    (`distance.DEFAULT_ENUM_CAP` and `DEFAULT_WORK_BUDGET`); a delta
    their budget leaves open is not compared.  A recorded lower bound
    must not exceed the true delta.  In-process, C is the certificate's
    code and an exact delta it already measured is read from its cache;
    a step read back with `step_from_text` has fresh codes, so every
    fact is recomputed.
    """
    delta = hermitian_construct(C).delta
    if not delta.exact:
        return
    if Q.delta.value != delta.value if Q.delta.exact else Q.delta.value > delta.value:
        raise EaqeccError(
            f"replay mismatch for {rid}: the input code gives delta {delta.value}, "
            f"recorded {Q.delta.value}"
        )


_INT = (int, np.integer)


def _cert_value(cert: dict, name: str, kind):
    """Certificate field `name`, which must be present and of type `kind`."""
    value = cert.get(name)
    if not isinstance(value, kind):
        raise EaqeccError(f"certificate lacks a valid {name!r} field")
    return value


def _recorded_input(step: PropagationStep) -> EaqeccParams:
    if step.input_params is None:
        raise EaqeccError(f"{step.rule_id} step records no input parameters")
    return step.input_params


def _check_output(step: PropagationStep, out: EaqeccParams) -> EaqeccParams:
    got, want = _step_values(out), step.output_params and _step_values(step.output_params)
    if got != want:
        raise EaqeccError(f"replay mismatch for {step.rule_id}: recomputed {got}, recorded {want}")
    return out


def _step_values(p: EaqeccParams):
    return (p.q, p.n, p.kappa, p.delta.value, p.c, p.purity)


def step_to_text(step: PropagationStep) -> str:
    lines = [f"#v1 step rule={step.rule_id}"]
    for tag, params in (("input", step.input_params), ("output", step.output_params)):
        lines.append(f"{tag} {'none' if params is None else params.record_line()}")
    for name, val in sorted(step.certificate.items()):
        if isinstance(val, LinearCode):
            M = val.G
            flat = " ".join(str(int(v)) for v in M.array.ravel())
            lines.append(f"cert {name} code {M.field.order} {M.rows} {M.cols} {flat}".rstrip())
        elif isinstance(val, tuple):
            lines.append(f"cert {name} vector " + " ".join(str(int(v)) for v in val))
        elif isinstance(val, _INT):
            lines.append(f"cert {name} int {int(val)}")
        else:
            lines.append(f"cert {name} str {val}")
    return "\n".join(lines) + "\n"


def step_from_text(text: str) -> PropagationStep:
    from .errors import RecordParseError
    from .tables import CodeRecord

    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#v1 step rule="):
        raise RecordParseError("missing step header", lines[0][0] if lines else 1)
    if len(lines) < 3:
        raise RecordParseError("step needs an input and an output line", lines[-1][0] + 1)
    rule_id = lines[0][1].split("rule=", 1)[1]

    def parse_params(no, ln):
        parts = ln.split(None, 1)
        if len(parts) < 2:
            raise RecordParseError(f"expected '<tag> <record>', got {ln!r}", no)
        return None if parts[1] == "none" else CodeRecord.from_line(parts[1], no).to_params()

    def ints(tokens, no, bound=None):
        """Integers, each in [0, bound) when a bound is given."""
        try:
            vals = [int(t) for t in tokens]
        except ValueError:
            raise RecordParseError(f"non-integer entry in {' '.join(tokens)!r}", no) from None
        bad = [v for v in vals if bound is not None and not 0 <= v < bound]
        if bad:
            raise RecordParseError(f"entry {bad[0]} out of range [0, {bound})", no)
        return vals

    input_params = parse_params(*lines[1])
    output_params = parse_params(*lines[2])
    cert = {}
    for no, ln in lines[3:]:
        parts = ln.split()
        if parts[0] != "cert" or len(parts) < 3:
            raise RecordParseError(f"expected 'cert <name> <kind> ...', got {ln!r}", no)
        name, kind = parts[1], parts[2]
        if kind == "code":
            if len(parts) < 6:
                raise RecordParseError("code needs q, rows and cols", no)
            q, rows, cols = ints(parts[3:6], no)
            check_text_shape(rows, cols, no)
            F = GF(q)
            vals = ints(parts[6:], no, F.order)
            if len(vals) != rows * cols:
                raise RecordParseError(f"code {rows}x{cols} cannot hold {len(vals)} entries", no)
            cert[name] = LinearCode(F, np.array(vals, dtype=np.uint8).reshape(rows, cols))
        elif kind == "vector":
            cert[name] = tuple(ints(parts[3:], no, 256))
        elif kind == "int":
            if len(parts) != 4:
                raise RecordParseError("int needs exactly one value", no)
            cert[name] = ints(parts[3:], no)[0]
        elif kind == "str":
            cert[name] = " ".join(parts[3:])
        else:
            raise RecordParseError(f"unknown cert kind {kind!r}", no)
    return PropagationStep(rule_id, input_params, output_params, cert)
