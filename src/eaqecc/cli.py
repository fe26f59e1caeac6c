"""Command-line interface.

Batch-oriented: read code/record files, print a report, optionally
write derived files.  Machine format (--format machine) is line
oriented, starts with a `#v1` version header, and is byte-stable for a
fixed seed and inputs.  Exit codes: 0 clean, 1 violations or
verification mismatches, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import propagate, tables, verify
from .codes import LinearCode, min_weight_outside
from .construct import css_construct, hermitian_construct
from .distance import DEFAULT_WORK_BUDGET
from .errors import EaqeccError, PreconditionError
from .matrix import MatrixFq


class Writer:
    def __init__(self, fmt: str, stream=None):
        self.fmt = fmt
        self.stream = stream or sys.stdout
        if fmt == "machine":
            print("#v1", file=self.stream)

    def emit(self, _tag, **kv):
        if self.fmt == "machine":
            body = " ".join(f"{k}={v}" for k, v in kv.items())
            print(f"{_tag} {body}".rstrip(), file=self.stream)
        else:
            body = "  ".join(f"{k}={v}" for k, v in kv.items())
            print(f"{_tag:12s} {body}".rstrip(), file=self.stream)


def _read(path) -> str:
    """The text of a file; a file that cannot be read as text is an input error."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError:
        raise EaqeccError(f"{path}: not a text file") from None
    except OSError as exc:
        raise EaqeccError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _load_code(path) -> LinearCode:
    return LinearCode.from_text(_read(path))


def _load_vector(path) -> np.ndarray:
    M, _ = MatrixFq.from_text(_read(path))
    if M.rows == 1:
        return M.array[0]
    if M.cols == 1:
        return M.array[:, 0]
    raise EaqeccError(f"{path}: expected a single row or column vector")


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise EaqeccError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _emit_params(w, params, label="params"):
    w.emit(
        label,
        q=params.q,
        n=params.n,
        kappa=params.kappa,
        delta=params.delta.value,
        delta_certainty=params.delta.certainty,
        delta_method=params.delta.method,
        c=params.c,
        purity=params.purity,
        rate=params.rate,
        net_rate=params.net_rate,
    )


def _emit_report(w, report):
    for e in report.entries:
        if e.applicable:
            w.emit(
                "bound",
                id=e.bound_id,
                satisfied=int(bool(e.satisfied)),
                slack=e.slack,
                tight=int(e.tight),
                note=e.reason or "-",
            )
        else:
            w.emit("bound", id=e.bound_id, applicable=0, note=e.reason)


def _emit_fact(w, fact, label="distance"):
    kv = {"value": fact.value, "certainty": fact.certainty, "method": fact.method}
    if fact.upper is not None:
        kv["upper"] = fact.upper
    if fact.witness is not None:
        kv["witness"] = ",".join(str(x) for x in fact.witness)
    elif fact.upper_witness is not None:
        kv["upper_witness"] = ",".join(str(x) for x in fact.upper_witness)
    w.emit(label, **kv)


# -- commands ----------------------------------------------------------------


def cmd_construct(args, w):
    C1 = _load_code(args.code)
    if args.route == "hermitian":
        params = hermitian_construct(C1)
    else:
        if not args.code2:
            raise EaqeccError("css route needs a second code file")
        params = css_construct(C1, _load_code(args.code2))
    _emit_params(w, params)
    report = bounds_mod.check_all(params)
    _emit_report(w, report)
    if args.out:
        _write(args.out, params.record_line() + "\n")
    return 0 if report.ok else 1


def cmd_dual(args, w):
    C = _load_code(args.code)
    D = C.hermitian_dual() if args.kind == "hermitian" else C.euclidean_dual()
    w.emit("dual", kind=args.kind, n=D.n, k=D.k)
    if args.out:
        _write(args.out, D.to_text())
    return 0


def cmd_hull(args, w):
    C = _load_code(args.code)
    basis, ell = C.hermitian_hull()
    w.emit("hull", n=C.n, k=C.k, ell=ell)
    if args.out:
        _write(args.out, basis.to_text(kind="generator", name="hull"))
    return 0


def cmd_distance(args, w):
    C = _load_code(args.code)
    if args.outside:
        sub = _load_code(args.outside)
        fact = min_weight_outside(C, sub, work_budget=args.budget)
    else:
        fact = C.min_distance(work_budget=args.budget, target=args.target)
    _emit_fact(w, fact)
    return 0


def cmd_propagate(args, w):
    rule = PROPAGATE_RULES[args.rule]
    for flag in rule.needs:
        if getattr(args, flag.replace("-", "_")) is None:
            raise EaqeccError(f"{args.rule} needs --{flag}")
    args.column = _load_vector(args.column_file) if args.column_file else None
    args.word = _load_vector(args.word_file) if args.word_file else None
    C = _load_code(args.code)
    if rule.lifted:
        Q = hermitian_construct(C)
        _emit_params(w, Q, label="input")
        step = rule.make(Q, args)
        _emit_params(w, step.output_params, label="output")
    else:
        step = rule.make(C, args)
        out = step.certificate["output"]
        w.emit("derived", n=out.n, k=out.k, ell=out.hull_dim)
    if args.out_code:
        _write(args.out_code, step.certificate[rule.output].to_text())
    if args.out_step:
        _write(args.out_step, propagate.step_to_text(step))
    return 0


def cmd_simple_rule(args, w):
    rec = tables.CodeRecord.from_line(args.record)
    out = propagate.apply_simple_rule(rec.to_params(), args.rule)
    _emit_params(w, out)
    return 0


def cmd_min_ent(args, w):
    C = _load_code(args.code)
    step = propagate.min_entanglement_search_step(
        C, mode=args.mode, seed=args.seed, budget=args.budget, cap=args.cap
    )
    cert = step.certificate
    w.emit(
        "min_ent",
        c_min=cert["c_min"],
        exhaustive=int(args.mode == "exhaustive"),
        diagonal=",".join(str(x) for x in cert["diagonal"]),
    )
    if args.out_step:
        _write(args.out_step, propagate.step_to_text(step))
    return 0


def cmd_puncture_space(args, w):
    C = _load_code(args.code)
    space = propagate.puncture_space(C)
    found, vec, exhaust = propagate.find_all_nonzero_vector(
        space, seed=args.seed, budget=args.budget
    )
    w.emit(
        "puncture_space",
        dim=space.rows,
        all_nonzero_found=int(found),
        exhaustive=int(exhaust),
        vector=",".join(str(x) for x in vec) if vec else "-",
    )
    if args.out:
        _write(args.out, space.to_text(kind="generator", name="puncture_space"))
    return 0


def cmd_bounds(args, w):
    if args.record:
        records = [tables.CodeRecord.from_line(args.record)]
    elif args.file:
        records = list(tables.ingest(_read(args.file).splitlines()))
    else:
        raise EaqeccError("bounds needs --record or --file")
    violations = 0
    for rec in records:
        report = bounds_mod.check_all(rec.to_params(), assume_route=args.assume_route)
        w.emit("record", line=rec.to_line().split("#")[0].strip(), ok=int(report.ok))
        _emit_report(w, report)
        violations += 0 if report.ok else 1
    w.emit("summary", records=len(records), violations=violations)
    return 0 if violations == 0 else 1


def _table_records(args):
    stores = []
    if args.bundled:
        stores.append(tables.load_bundled(args.bundled))
    for path in args.file or ():
        stores.append(tables.ingest(_read(path).splitlines()))
    if not stores:
        raise EaqeccError("table command needs --bundled and/or --file")
    merged = tables.TableStore()
    for s in stores:
        for r in s:
            merged.add(r)
    return merged


def cmd_table(args, w):
    store = _table_records(args)
    if args.action == "ingest":
        w.emit("ingested", records=len(store))
        if args.out:
            _write(args.out, "\n".join(r.to_line() for r in store) + "\n")
        return 0
    if args.action == "check":
        bad = tables.check_records(list(store))
        for rec, rep in bad:
            w.emit("violation", record=rec.to_line().split("#")[0].strip(),
                   bounds=",".join(e.bound_id for e in rep.violations))
        w.emit("summary", records=len(store), violations=len(bad))
        return 0 if not bad else 1
    # Derive nothing from a record that `table check` reports as a structure violation.
    for rec in store:
        try:
            rec.to_params()
        except PreconditionError as exc:
            raise EaqeccError(f"record {rec.to_line()!r}: {exc} (see `table check`)") from None
    if args.action == "expand":
        exp = tables.expand(store, rules=args.rules, n_max=args.n_max)
        recs = exp.records(with_chains=args.chains)
        w.emit("expanded", roots=len(store), records=len(recs))
        if args.out:
            _write(args.out, "\n".join(r.to_line() for r in recs) + "\n")
        return 0
    if args.action == "compress":
        survivors = tables.compress(store, rules=args.rules, n_max=args.n_max)
        w.emit("compressed", records_in=len(store), records_out=len(survivors))
        if args.out:
            _write(args.out, "\n".join(r.to_line() for r in survivors) + "\n")
        return 0
    if args.action == "query":
        hits = tables.query(
            store, q=args.q, n=args.n, kappa=args.kappa, c=args.c,
            rules=args.rules, n_max=args.n_max,
        )
        for rec in hits:
            w.emit(
                "hit", q=rec.q, n=rec.n, kappa=rec.kappa, delta=rec.delta, c=rec.c,
                purity=rec.purity, source=rec.source,
            )
        w.emit("summary", hits=len(hits))
        return 0
    raise EaqeccError(f"unknown table action {args.action!r}")


def cmd_verify_paper(args, w):
    failures = verify.run_verification(w.emit, data_dir=args.data_dir)
    return 0 if failures == 0 else 1


# -- parser -------------------------------------------------------------------


PROPAGATE_RULES = {rule.name: rule for rule in propagate.RULES.values()}
_SIMPLE_RULE_IDS = f"{min(propagate.SIMPLE_RULES)}..{max(propagate.SIMPLE_RULES)}"


def non_negative_int(text: str, low: int = 0) -> int:
    """argparse type of budgets, caps and counts: an integer of at least `low`."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of lengths, field sizes and shifts."""
    return non_negative_int(text, 1)


def rule_ids(text: str) -> frozenset:
    """argparse type of --rules: comma-separated simple-rule ids."""
    ids = frozenset(int(t) for t in text.split(","))
    if not ids <= propagate.SIMPLE_RULES.keys():
        raise argparse.ArgumentTypeError(f"rule ids must lie in {_SIMPLE_RULE_IDS}, got {text}")
    return ids


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"), default="text")
    # each command takes only the options it reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=non_negative_int, default=10**4, help="trial budget")

    p = argparse.ArgumentParser(prog="eaqecc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", parents=[common], help="derive quantum parameters")
    sp.add_argument("--route", choices=("hermitian", "css"), default="hermitian")
    sp.add_argument("code")
    sp.add_argument("code2", nargs="?")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("dual", parents=[common], help="dual code")
    sp.add_argument("--kind", choices=("hermitian", "euclidean"), default="hermitian")
    sp.add_argument("code")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("hull", parents=[common], help="Hermitian hull")
    sp.add_argument("code")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_hull)

    sp = sub.add_parser("distance", parents=[common], help="minimum distance facts")
    sp.add_argument("--budget", type=non_negative_int, default=DEFAULT_WORK_BUDGET,
                    help="information-set work budget, in messages")
    sp.add_argument("code")
    # a fact outside a subcode takes no target
    only = sp.add_mutually_exclusive_group()
    only.add_argument("--outside", help="subcode file: weight outside this subcode")
    only.add_argument("--target", type=positive_int, help="stop once this lower bound is certified")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("propagate", parents=[common, seed, budget],
                        help="apply a propagation rule")
    sp.add_argument("--rule", required=True, choices=PROPAGATE_RULES)
    sp.add_argument("code")
    sp.add_argument("--ell", type=non_negative_int)
    sp.add_argument("--i", type=positive_int)
    sp.add_argument("--column-file")
    sp.add_argument("--word-file")
    sp.add_argument("--search", action="store_true")
    sp.add_argument("--strategy", choices=("exhaustive", "sampled"), default="exhaustive")
    sp.add_argument("--out-code")
    sp.add_argument("--out-step")
    sp.set_defaults(func=cmd_propagate)

    sp = sub.add_parser("simple-rule", parents=[common],
                        help=f"printed parameter rules {_SIMPLE_RULE_IDS}")
    sp.add_argument("--rule", type=int, required=True, choices=propagate.SIMPLE_RULES)
    sp.add_argument("--record", required=True, help="input record line 'q n kappa delta c ...'")
    sp.set_defaults(func=cmd_simple_rule)

    sp = sub.add_parser("min-ent", parents=[common, seed, budget],
                        help="minimum-entanglement diagonal search")
    sp.add_argument("code")
    sp.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive")
    sp.add_argument("--cap", type=non_negative_int, default=propagate.DEFAULT_SPACE_CAP)
    sp.add_argument("--out-step")
    sp.set_defaults(func=cmd_min_ent)

    sp = sub.add_parser("puncture-space", parents=[common, seed, budget],
                        help="diagonal self-orthogonality equivalence system")
    sp.add_argument("code")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_puncture_space)

    sp = sub.add_parser("bounds", parents=[common], help="check records against the bounds")
    sp.add_argument("--record")
    sp.add_argument("--file")
    sp.add_argument("--assume-route", choices=("hermitian", "css"), default="hermitian")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("table", parents=[common], help="parameter table operations")
    sp.add_argument("action", choices=("ingest", "expand", "compress", "query", "check"))
    sp.add_argument("--bundled", choices=("qubit", "qutrit"))
    sp.add_argument("--file", action="append")
    sp.add_argument("--rules", type=rule_ids, default=tables.DEFAULT_RULES,
                    help=f"comma-separated rule ids in {_SIMPLE_RULE_IDS}, "
                    f"default {','.join(map(str, sorted(tables.DEFAULT_RULES)))}")
    sp.add_argument("--n-max", type=positive_int)
    sp.add_argument("--chains", action="store_true", help="tag derived records with rule chains")
    sp.add_argument("--q", type=positive_int)
    sp.add_argument("--n", type=positive_int)
    sp.add_argument("--kappa", type=non_negative_int)
    sp.add_argument("--c", type=non_negative_int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify-paper", parents=[common],
                        help="re-derive the bundled reference examples and tables")
    sp.add_argument("--data-dir", help="override the bundled data directory")
    sp.set_defaults(func=cmd_verify_paper)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args, Writer(args.format))
        sys.stdout.flush()
        return status
    except EaqeccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left (`| head`): keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
