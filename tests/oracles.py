"""Brute-force reference implementations used as independent test oracles.

Everything here works one scalar at a time through the field's add/mul
methods, deliberately avoiding the vectorized enumeration machinery the
package uses, so agreement is meaningful.  The rest are the plain
loops the package once ran (the one-heap table closure, row reduction
one row at a time, the greedy basis extension, one rank per diagonal,
one extension and scan per hull-raising column, the information-set
pass order that re-costs every form, the cost estimate that re-sums
the lower bound on every pass), kept as references for the versions
that replaced them.
"""

import heapq
import itertools
import math

import numpy as np

from eaqecc import distance, propagate
from eaqecc.propagate import extend_with_column


def brute_encode(field, message, rows):
    """sum_i message[i] * rows[i], one symbol at a time."""
    n = len(rows[0]) if len(rows) else 0
    word = [0] * n
    for cf, row in zip(message, rows):
        if cf == 0:
            continue
        for j in range(n):
            word[j] = field.add(word[j], field.mul(cf, int(row[j])))
    return tuple(word)


def brute_codewords(field, rows):
    k = len(rows)
    return [brute_encode(field, combo, rows)
            for combo in itertools.product(range(field.order), repeat=k)]


def scalar_class_messages(q, k):
    """One message per nonzero scalar class: leading coefficient 1, the
    lead position ascending, then the tail in lexicographic order."""
    for lead in range(k):
        for tail in itertools.product(range(q), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def weight(word):
    return sum(1 for v in word if v)


def brute_min_distance(field, rows):
    best = None
    for w in brute_codewords(field, rows):
        if not any(w):
            continue
        best = weight(w) if best is None else min(best, weight(w))
    return best


def brute_weight_multiset(field, rows):
    return sorted(weight(w) for w in brute_codewords(field, rows))


def brute_min_outside(field, rows, member):
    best = None
    for w in brute_codewords(field, rows):
        if not any(w) or member(w):
            continue
        best = weight(w) if best is None else min(best, weight(w))
    return best


def brute_matmul(field, A, B):
    m, kk = len(A), len(A[0])
    n = len(B[0])
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = 0
            for t in range(kk):
                acc = field.add(acc, field.mul(int(A[i][t]), int(B[t][j])))
            out[i][j] = acc
    return out


def rule_step(rule, q, n, kappa, delta, c, pure):
    """Parameters one printed rule derives, as (n, kappa, delta, c, pure), or None."""
    free = n - kappa - c  # room for more ebits
    table = {
        1: (True, (n + 1, kappa, delta, c, 0)),
        2: (kappa >= 1, (n, kappa - 1, delta, c, 0)),
        3: (delta >= 2, (n, kappa, delta - 1, c, 0)),
        4: (free >= 1, (n, kappa, delta, c + 1, 0)),
        5: (delta >= 2 and free >= 1, (n - 1, kappa, delta - 1, c, 0)),
        6: (pure and q > 2 and free >= 2, (n, kappa + 1, delta, c + 1, 1)),
        7: (free >= 2, (n - 1, kappa, delta, c + 1, 0)),
        8: (pure and delta >= 2 and free >= 2, (n - 1, kappa + 1, delta - 1, c, 0)),
    }
    ok, out = table[rule]
    return out if ok else None


def rule_successors(cell, delta, rules, n_max):
    """(cell, delta) pairs one rule step away, cells being (q, n, kappa, c, pure)."""
    q, n, kappa, c, pure = cell
    for rule in rules:
        out = rule_step(rule, q, n, kappa, delta, c, pure)
        if out is not None and 1 <= out[0] <= n_max:
            n2, k2, d2, c2, p2 = out
            yield (q, n2, k2, c2, p2), d2


def rule_closure(seeds, rules, n_max):
    """Best delta per cell reachable from (cell, delta) seeds in zero or more steps.

    A plain worklist relaxation: a cell is expanded again whenever its
    best delta improves.
    """
    best = {}
    work = list(seeds)
    while work:
        cell, delta = work.pop()
        if best.get(cell, -1) >= delta:
            continue
        best[cell] = delta
        work.extend(rule_successors(cell, delta, rules, n_max))
    return best


def heap_closure_walk(roots, rules, n_max):
    """(cells, stepped, parent) of the closure walk that pushes every offer
    on one heap per delta, ordered by (root index, arrival).

    cells maps (q, n, kappa, c, pure) to (delta, root index), stepped
    every cell to the best delta it is reached with in one or more steps,
    parent each cell to the (previous cell, rule) that settled it.
    """
    entries = {rule: propagate.simple_rule(rule) for rule in sorted(rules)}
    steps = [(rule, int(entry.pure_out)) + entry.limits() for rule, entry in entries.items()]
    cells, stepped, parent = {}, {}, {}
    buckets = [[] for _ in range(max((r.delta for r in roots), default=0) + 1)]
    order = itertools.count()

    def offer(cell, delta, idx, via):
        cur = cells.get(cell)
        if cur is None or delta > cur[0] or (delta == cur[0] and idx < cur[1]):
            cells[cell] = (delta, idx)
            parent[cell] = via
            heapq.heappush(buckets[delta], (idx, next(order), cell))

    for idx, rec in enumerate(roots):
        offer(rec.key + (int(rec.is_pure_at_delta()),), rec.delta, idx, None)
    for delta in range(len(buckets) - 1, -1, -1):
        heap = buckets[delta]
        while heap:
            idx, _, cell = heapq.heappop(heap)
            if cells[cell] != (delta, idx):
                continue
            q, n, kappa, c, pure = cell
            room = n - kappa - c
            for rule, pure2, pure_low, q_low, n_low, k_low, d_low, room_low in steps:
                if not (n >= n_low and kappa >= k_low and delta >= d_low and room >= room_low
                        and pure >= pure_low and q >= q_low):
                    continue
                n2, k2, d2, c2 = propagate.simple_rule_transform(rule, n, kappa, delta, c)
                if n2 > n_max:
                    continue
                cell2 = (q, n2, k2, c2, pure2)
                if stepped.get(cell2, -1) < d2:
                    stepped[cell2] = d2
                offer(cell2, d2, idx, (cell, rule))
    return cells, stepped, parent


def loop_rref(field, array, pivot_priority=None):
    """(R, rank, pivots) of the row-at-a-time Gauss-Jordan loop."""
    R = np.array(array, dtype=np.uint8)
    m, n = R.shape
    order = list(pivot_priority) if pivot_priority is not None else list(range(n))
    order += [c for c in range(n) if c not in set(order)]
    pivots = []
    for col in order:
        prow = len(pivots)
        hit = next((r for r in range(prow, m) if R[r, col]), -1)
        if hit < 0:
            continue
        R[[prow, hit]] = R[[hit, prow]]
        R[prow] = field.MUL[field.INV[R[prow, col]], R[prow]]
        for r in range(m):
            if r != prow and R[r, col]:
                R[r] = field.ADD[R[r], field.MUL[field.NEG[R[r, col]], R[prow]]]
        pivots.append(col)
    return R, len(pivots), pivots


def greedy_adapted_rows(big, sub):
    """sub's rows, then each row of big.G that raises the rank, in order."""
    taken = [row for row in sub.G.array]
    for row in big.G.array:
        trial = np.array(taken + [row], dtype=np.uint8)
        if loop_rref(big.field, trial)[1] == len(taken) + 1:
            taken.append(row)
    return np.array(taken, dtype=np.uint8).reshape(-1, big.n)


def min_entanglement_by_diagonal(C, mode="exhaustive", seed=0, budget=10**4):
    """(c_min, diagonal) with one rank per diagonal, in trial order."""
    field = C.field
    nonzero = field.subfield_nonzero_elements()
    if mode == "exhaustive":
        trials = itertools.product(nonzero, repeat=C.n)
    else:
        rng = np.random.default_rng(seed)
        trials = [tuple([1] * C.n)]
        trials += [tuple(int(nonzero[i]) for i in rng.integers(0, len(nonzero), size=C.n))
                   for _ in range(budget)]
    G = C.G.array
    best = None
    for diag in trials:
        scaled = [[field.mul(int(g), b) for g, b in zip(row, diag)] for row in G]
        conj = [[field.conj(int(g)) for g in row] for row in G]
        gram = brute_matmul(field, scaled, np.array(conj).T.tolist()) if C.k else []
        r = loop_rref(field, np.array(gram, dtype=np.uint8).reshape(C.k, C.k))[1]
        if best is None or (r, diag) < best:
            best = (r, diag)
            if r == 0:
                break
    return best


def class_columns(C, norm_reps):
    """The columns of `propagate._class_column_blocks`, one at a time."""
    for X in propagate._class_column_blocks(C, norm_reps):
        yield from X


def best_column_by_distance(C, columns):
    """(column, distance): the first of `columns` whose extension has the
    greatest minimum distance, one extension and one span scan per
    candidate, stopping at the first that reaches d(C) + 1 (the loop the
    column search once ran)."""
    d0 = C.min_distance().value
    best = None
    for col in columns:
        d = extend_with_column(C, col).min_distance().value
        if best is None or d > best[1]:
            best = (tuple(int(v) for v in col), d)
        if d == d0 + 1:
            break
    return best


def recosting_next_form(forms, q, k):
    """The form whose information-set pass runs next, every form re-costed:
    the cheapest step to a raise of the lower bound, then the least r,
    then the first; None once all are done."""

    def step_cost(f):
        w_gain = max(f.r + 1, f.deficit)
        return sum(math.comb(k, w) * (q - 1) ** (w - 1) for w in range(f.r + 1, w_gain + 1))

    candidates = [f for f in forms if f.r < k]
    return min(candidates, key=lambda f: (step_cost(f), f.r, forms.index(f)), default=None)


def resumming_information_sets_if_cheaper(q, n, k, upper):
    """distance.information_sets_if_cheaper with the lower bound re-summed
    over every form on every pass of its replay, fully-enumerated flag
    included, and no time charged for a pass at or past upper."""
    budget_us = distance._ENUM_CALL_US + distance._ENUM_CLASS_US * q**k / (q - 1)
    forms = [distance._Tally(k - min(k, n - i * k)) for i in range(-(-n // k))]
    spent_us = distance._IS_CALL_US + distance._IS_FORM_US * len(forms)
    threshold, messages = n + 1, 0
    while spent_us < budget_us:
        if distance._lower_bound(forms, k, n, threshold) >= threshold:
            return messages
        form = distance._next_form(forms, q, k)
        form.r += 1
        size = distance._pass_size(q, k, form.r)
        messages += size
        if form.r < threshold:
            spent_us += distance._IS_PASS_US + distance._IS_MESSAGE_US * size
        threshold = upper
    return None
