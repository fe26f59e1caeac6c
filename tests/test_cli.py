import ast
import hashlib
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eaqecc
from eaqecc import cli, tables
from eaqecc import propagate as prop
from eaqecc.codes import LinearCode
from eaqecc.errors import EaqeccError, RecordParseError
from eaqecc.fields import GF
from eaqecc.matrix import MatrixFq
from helpers import package_env

F9 = GF(9)
DATA = pathlib.Path(eaqecc.__file__).parent / "data" / "paper"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "eaqecc", *args], capture_output=True, text=True, env=package_env()
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def c6_file(tmp_path):
    G5 = np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, np.uint8)])
    col = np.array([1, 7, 4, 5], dtype=np.uint8).reshape(4, 1)
    C6 = LinearCode(F9, np.hstack([G5, col]), name="mds_6_4_3")
    path = tmp_path / "c6.txt"
    path.write_text(C6.to_text())
    return path


def test_construct_hermitian(c6_file, tmp_path):
    out = tmp_path / "record.txt"
    code, stdout, _ = run_cli(
        "construct", "--route", "hermitian", str(c6_file), "--out", str(out), "--format", "machine"
    )
    assert code == 0
    assert "n=6 kappa=1 delta=5" in stdout and "c=3" in stdout and "purity=pure" in stdout
    assert out.read_text().strip() == "3 6 1 5 3 pure constructed"


def test_construct_css(tmp_path):
    H = np.array(
        [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]], dtype=np.uint8
    )
    p = tmp_path / "simplex.txt"
    p.write_text(LinearCode(GF(2), H).to_text())
    code, stdout, _ = run_cli("construct", "--route", "css", str(p), str(p), "--format", "machine")
    assert code == 0
    assert "n=7 kappa=1 delta=3" in stdout and "c=0" in stdout


def test_dual_hull_distance(c6_file, tmp_path):
    out = tmp_path / "dual.txt"
    code, stdout, _ = run_cli("dual", str(c6_file), "--out", str(out), "--format", "machine")
    assert code == 0 and "k=2" in stdout
    dual = LinearCode.from_text(out.read_text())
    assert dual.k == 2

    code, stdout, _ = run_cli("hull", str(c6_file), "--format", "machine")
    assert code == 0 and "ell=1" in stdout

    code, stdout, _ = run_cli("distance", str(c6_file), "--format", "machine")
    assert code == 0 and "value=3" in stdout and "certainty=exact" in stdout


def test_distance_outside(tmp_path, c6_file):
    sub = LinearCode.from_text(c6_file.read_text()).hull_code()
    p = tmp_path / "hull.txt"
    p.write_text(sub.to_text())
    code, stdout, _ = run_cli(
        "distance", str(c6_file), "--outside", str(p), "--format", "machine"
    )
    assert code == 0 and "value=3" in stdout


def test_paper_code_bounds_at_fixed_budgets(capsys):
    # the [29,14]_9 code and its Hermitian dual are cyclic, so a pass on
    # one information set counts for its rotations once a batch is at stake
    g29 = str(DATA / "g29_14_9.txt")

    def first_line(*args):
        assert cli.main([*args, g29, "--format", "machine"]) == 0
        return capsys.readouterr().out.splitlines()[1]

    # at the default work budget both facts are exact: delta in 13,059,118
    # messages, d in 8,760,780
    assert first_line("construct", "--route", "hermitian").startswith(
        "params q=3 n=29 kappa=1 delta=11 delta_certainty=exact delta_method=information_sets "
        "c=0 purity=pure ")
    assert first_line("distance", "--budget", "1000000").startswith(
        "distance value=10 certainty=lower_bound method=information_sets upper=12 ")
    assert first_line("distance").startswith(
        "distance value=12 certainty=exact method=information_sets witness=")


def test_propagate_extend_column_writes_step(tmp_path):
    G5 = np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, np.uint8)])
    p = tmp_path / "c5.txt"
    p.write_text(LinearCode(F9, G5).to_text())
    outc = tmp_path / "derived.txt"
    outs = tmp_path / "step.txt"
    code, stdout, _ = run_cli(
        "propagate", "--rule", "extend-column", str(p), "--out-code", str(outc),
        "--out-step", str(outs), "--format", "machine",
    )
    assert code == 0 and "ell=1" in stdout
    derived = LinearCode.from_text(outc.read_text())
    assert (derived.n, derived.k, derived.hull_dim) == (6, 4, 1)
    step = prop.step_from_text(outs.read_text())
    assert prop.replay_step(step) == derived


def test_more_ent_step_file_with_raised_delta_is_rejected(tmp_path):
    step_path = tmp_path / "step.txt"
    code, _, _ = run_cli(
        "propagate", "--rule", "more-ent", "--i", "1", str(DATA / "g16_5_9.txt"),
        "--out-step", str(step_path), "--format", "machine",
    )
    assert code == 0
    text = step_path.read_text()
    assert str(prop.replay_step(prop.step_from_text(text))) == "[[16,9,5;3]]_3"
    for old, new in (("input 3 16 8 5 2 pure ", "input 3 16 8 6 2 pure "),
                     ("output 3 16 9 5 3 pure_to:5 ", "output 3 16 9 6 3 pure_to:6 ")):
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(EaqeccError, match="gives delta 5, recorded 6"):
        prop.replay_step(prop.step_from_text(text))


def test_min_ent_step_file(tmp_path):
    G = np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8)
    p = tmp_path / "tetra.txt"
    p.write_text(LinearCode(F9, G).to_text())
    outs = tmp_path / "step.txt"
    code, stdout, _ = run_cli(
        "min-ent", str(p), "--mode", "randomized", "--seed", "5", "--budget", "32",
        "--out-step", str(outs), "--format", "machine",
    )
    assert code == 0
    prop.replay_step(prop.step_from_text(outs.read_text()))


def test_propagate_less_ent_step_file(tmp_path):
    src = DATA / "g16_5_9.txt"
    codefile = tmp_path / "c16dual.txt"
    C16 = LinearCode.from_text(src.read_text())
    codefile.write_text(C16.hermitian_dual().to_text())
    w15 = tmp_path / "w15.txt"
    w15.write_text((DATA / "word16_w15.txt").read_text())
    step_path = tmp_path / "step.txt"
    code, stdout, _ = run_cli(
        "propagate", "--rule", "less-ent", str(codefile), "--word-file", str(w15),
        "--out-step", str(step_path), "--format", "machine",
    )
    assert code == 0
    assert "n=17 kappa=2 delta=8" in stdout
    step = prop.step_from_text(step_path.read_text())
    replayed = prop.replay_step(step)
    assert (replayed.n, replayed.kappa, replayed.delta.value, replayed.c) == (17, 2, 8, 7)


def test_every_propagate_rule_on_the_paper_code_replays(tmp_path):
    g16 = str(DATA / "g16_5_9.txt")
    for rule, *opts in (
        ("hull-reduce", "--ell", "0"),
        ("extend-column", "--search"),
        ("extend-row-column", "--word-file", str(DATA / "word16_w15.txt")),
        ("more-ent", "--i", "1"),
        ("same-ent",),
        ("same-ent", "--search"),
        ("less-ent",),
    ):
        step_path = tmp_path / f"{rule}{len(opts)}.txt"
        code, stdout, stderr = run_cli(
            "propagate", "--rule", rule, *opts, g16, "--out-step", str(step_path),
            "--format", "machine",
        )
        assert code == 0, (rule, opts, stderr)
        printed = dict(kv.split("=", 1) for kv in stdout.splitlines()[-1].split()[1:])
        replayed = prop.replay_step(prop.step_from_text(step_path.read_text()))
        if isinstance(replayed, LinearCode):
            got = {"n": replayed.n, "k": replayed.k, "ell": replayed.hull_dim}
        else:
            got = {"q": replayed.q, "n": replayed.n, "kappa": replayed.kappa,
                   "delta": replayed.delta.value, "c": replayed.c, "purity": replayed.purity}
        assert {k: str(v) for k, v in got.items()} == {k: printed[k] for k in got}, (rule, opts)
        if (rule, *opts) == ("same-ent", "--search"):
            # the dual is [16,11]_9, past enumeration: information sets score the candidates
            assert got == {"q": 3, "n": 17, "kappa": 7, "delta": 5, "c": 2, "purity": "pure"}


def test_simple_rule_command():
    code, stdout, _ = run_cli(
        "simple-rule", "--rule", "1", "--record", "2 3 1 3 2 unknown paper-table",
        "--format", "machine",
    )
    assert code == 0 and "n=4 kappa=1 delta=3 " in stdout


def test_simple_rule_to_length_zero_exits_2():
    code, stdout, stderr = run_cli("simple-rule", "--rule", "5", "--record", "2 1 0 2 0")
    assert code == 2 and stdout == ""
    assert stderr == "error: rule 5 (puncturing): needs n >= 2\n"


def test_min_ent_and_puncture_space(tmp_path):
    G = np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8)
    p = tmp_path / "tetra.txt"
    p.write_text(LinearCode(F9, G).to_text())
    code, stdout, _ = run_cli("min-ent", str(p), "--format", "machine")
    assert code == 0 and "c_min=0" in stdout and "exhaustive=1" in stdout
    code, stdout, _ = run_cli("puncture-space", str(p), "--format", "machine")
    assert code == 0 and "all_nonzero_found=1" in stdout


def test_min_ent_randomized_budget_past_the_cap_exits_2():
    # the budget is checked before any diagonal is drawn: a (10^15, 16)
    # draw would need petabytes
    code, stdout, stderr = run_cli("min-ent", str(DATA / "g16_5_9.txt"), "--mode", "randomized",
                                   "--budget", str(10**15))
    assert code == 2 and stdout == "" and "Traceback" not in stderr
    assert stderr == f"error: randomized budget {10**15} outside 0..cap = {2**20}\n"


def test_bounds_command_flags_violation():
    code, stdout, _ = run_cli(
        "bounds", "--record", "3 6 2 5 3 unknown fabricated", "--format", "machine"
    )
    assert code == 1 and "violations=1" in stdout
    code, stdout, _ = run_cli(
        "bounds", "--record", "3 6 1 5 3 pure constructed", "--format", "machine"
    )
    assert code == 0 and "violations=0" in stdout


def test_table_check_and_query():
    code, stdout, _ = run_cli("table", "check", "--bundled", "qutrit", "--format", "machine")
    assert code == 0 and "violations=0" in stdout
    code, stdout, _ = run_cli(
        "table", "query", "--bundled", "qubit", "--q", "2", "--n", "3", "--kappa", "1",
        "--c", "2", "--format", "machine",
    )
    assert code == 0 and "delta=3" in stdout


def test_table_query_with_constructed_record(tmp_path):
    extra = tmp_path / "extra.txt"
    extra.write_text("3 6 1 5 3 pure constructed\n")
    code, stdout, _ = run_cli(
        "table", "query", "--bundled", "qutrit", "--file", str(extra),
        "--q", "3", "--n", "6", "--kappa", "1", "--c", "3", "--format", "machine",
    )
    assert code == 0 and "delta=5" in stdout


def test_table_expand_compress(tmp_path):
    f = tmp_path / "seed.txt"
    f.write_text("2 3 1 3 2 unknown paper-table\n2 4 1 3 2 unknown paper-table\n")
    out = tmp_path / "out.txt"
    code, stdout, _ = run_cli(
        "table", "compress", "--file", str(f), "--out", str(out), "--format", "machine"
    )
    assert code == 0 and "records_out=1" in stdout
    code, stdout, _ = run_cli(
        "table", "expand", "--file", str(f), "--n-max", "5", "--rules", "1",
        "--out", str(out), "--format", "machine",
    )
    assert code == 0 and "records=3" in stdout


def test_table_derivations_refuse_structure_violations(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("2 3 5 3 0\n2 3 1 3 4\n")  # kappa > n, then c > n - kappa
    for action in (("expand", "--n-max", "4"), ("compress",), ("query", "--n", "4")):
        code, stdout, stderr = run_cli("table", *action, "--file", str(f), "--format", "machine")
        assert code == 2 and stdout == "#v1\n"
        assert "record '2 3 1 3 4 unknown unknown': c=4 out of range" in stderr
    code, stdout, _ = run_cli("table", "check", "--file", str(f), "--format", "machine")
    assert code == 1
    assert stdout.count("bounds=structure") == 2 and "violations=2" in stdout


def test_verify_paper_passes():
    code, stdout, _ = run_cli("verify-paper", "--format", "machine")
    assert code == 0
    assert "summary failures=0" in stdout
    assert "FAIL" not in stdout


def test_verify_paper_corrupted_entry_fails(tmp_path):
    work = tmp_path / "paper"
    shutil.copytree(DATA, work)
    p = work / "table_qutrit.txt"
    p.write_text(p.read_text().replace("3 6 2 4 2", "3 6 4 5 2"))
    sums = work / "CHECKSUMS.sha256"
    lines = []
    for line in sums.read_text().splitlines():
        digest, name = line.split()
        if name == "table_qutrit.txt":
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}")
    sums.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run_cli("verify-paper", "--data-dir", str(work), "--format", "machine")
    assert code == 1
    assert "bound_violations" in stdout and "6 4 5 2" in stdout


def test_verify_paper_missing_asset(tmp_path):
    work = tmp_path / "paper"
    shutil.copytree(DATA, work)
    (work / "g29_14_9.txt").unlink()
    code, stdout, stderr = run_cli("verify-paper", "--data-dir", str(work))
    assert code == 2
    assert "missing" in stderr


def test_cli_error_paths(tmp_path):
    C16 = LinearCode.from_text((DATA / "g16_5_9.txt").read_text())
    dual16, hull16 = tmp_path / "dual16.txt", tmp_path / "hull16.txt"
    dual16.write_text(C16.hermitian_dual().to_text())
    hull16.write_text(C16.hull_code().to_text())
    code, _, stderr = run_cli("construct", str(tmp_path / "nope.txt"))
    assert code == 2
    code, _, stderr = run_cli("construct", "--route", "css", str(DATA / "g16_5_9.txt"))
    assert code == 2 and "second code" in stderr
    assert cli.main(["bounds", "--record", "3 6 1 5 3 pure_to:abc x"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("q=9 rows=-1 cols=3 kind=generator\n")
    assert cli.main(["construct", str(bad)]) == 2
    with pytest.raises(RecordParseError, match="line 1"):
        MatrixFq.from_text("q=3 rows=2 cols=-2\n")
    g16 = str(DATA / "g16_5_9.txt")
    for argv in (
        ["distance", "--budget", "-1", g16],
        ["min-ent", "--cap", "-1", g16],
        ["table", "query", "--bundled", "qubit", "--n", "-5"],
        ["table", "expand", "--bundled", "qubit", "--n-max", "-1"],
        ["table", "expand", "--bundled", "qubit", "--n-max", "0"],
        ["table", "query", "--bundled", "qubit", "--q", "0"],
        ["table", "query", "--bundled", "qubit", "--kappa", "-1"],
        ["table", "query", "--bundled", "qubit", "--c", "-1"],
        ["table", "expand", "--bundled", "qubit", "--rules", "abc"],
        ["table", "expand", "--bundled", "qubit", "--rules", "9"],
        ["table", "expand", "--bundled", "qubit", "--rules", "1,0"],
        ["table", "expand", "--bundled", "qubit", "--rules", ""],
        ["distance", "--target", "-1", g16],
        ["propagate", "--rule", "hull-reduce", "--ell", "-1", g16],
        ["propagate", "--rule", "more-ent", "--i", "0", g16],
        # options go only to the commands that read them
        ["table", "query", "--bundled", "qubit", "--seed", "3"],
        ["construct", "--budget", "5", g16],
        ["verify-paper", "--enum-cap", "1"],
        ["distance", "--enum-cap", "1", g16],
        # no command takes a cited distance: the paper code's delta is 11
        ["construct", "--known-distance", "15", str(DATA / "g29_14_9.txt")],
        # a fact outside a subcode takes no target
        ["distance", str(dual16), "--outside", str(hull16), "--target", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    head = "#v1 step rule=more_ent\ninput 3 4 1 2 1 pure x\noutput 3 4 2 2 2 pure x\n"
    for text, line in (
        ("#v1 step rule=more_ent\n", 2),
        (head + "cert code\n", 4),
        (head + "cert x int abc\n", 4),
        (head + "cert x int\n", 4),
        (head + "cert c code 9 2 3 1 0 0 0 1\n", 4),
        (head + "cert c code 9 -1 3 1 0 0\n", 4),
        (head + "cert c code 9 1 2 1 300\n", 4),
        (head + "cert v vector 1 2 999\n", 4),
        ("#v1 step rule=x\ninput\noutput none\n", 2),
        ("#v1 step rule=x\n\ninput none\n\noutput none\n\ncert x int abc\n", 7),
        (head + "cert x blob 1 2\n", 4),
    ):
        with pytest.raises(RecordParseError, match=f"line {line}"):
            prop.step_from_text(text)


_CODE_COMMANDS = [["distance"], ["hull"], ["dual"], ["construct"], ["propagate", "--rule", "less-ent"],
                  ["min-ent"], ["puncture-space"]]
_FILE_COMMANDS = [["table", "compress", "--file"], ["table", "check", "--file"], ["bounds", "--file"]]


@pytest.mark.parametrize("argv", [
    *[[*cmd, "{binary}"] for cmd in _CODE_COMMANDS + _FILE_COMMANDS],
    *[[*cmd, "{dir}"] for cmd in _CODE_COMMANDS + _FILE_COMMANDS],
    ["distance", "{g16}", "--outside", "{binary}"],
    ["propagate", "--rule", "extend-column", "--column-file", "{dir}", "{g16}"],
    ["dual", "{g16}", "--out", "{dir}"],
    ["table", "expand", "--bundled", "qubit", "--n-max", "4", "--out", "{dir}"],
], ids=" ".join)
def test_unreadable_and_unwritable_files_exit_2(tmp_path, capsys, argv):
    # a binary file, a directory where a file should be: a message naming
    # the path, never a traceback
    binary, folder = tmp_path / "binary.txt", tmp_path / "folder"
    binary.write_bytes(b"\xff\xfe\x00q=9")
    folder.mkdir()
    argv = [a.format(binary=binary, dir=folder, g16=DATA / "g16_5_9.txt") for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(binary if str(binary) in argv else folder) in err


def test_propagate_rule_choices_are_the_rule_table():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    rule = next(a for a in sub.choices["propagate"]._actions if a.dest == "rule")
    assert list(rule.choices) == [r.name for r in prop.RULES.values()]


def test_propagate_missing_rule_option_exits_2():
    g16 = str(DATA / "g16_5_9.txt")
    for rule, flag in (("hull-reduce", "--ell"), ("extend-row-column", "--word-file"),
                       ("more-ent", "--i")):
        code, stdout, stderr = run_cli("propagate", "--rule", rule, g16)
        assert code == 2 and f"needs {flag}" in stderr


def test_optimized_interpreter_prints_the_same():
    # invariant checks survive python -O: the machine output of the paper
    # check and of a distance is byte-identical without assertions
    g29 = str(DATA / "g29_14_9.txt")
    for args in (["verify-paper"], ["distance", g29]):
        outs = [subprocess.run([sys.executable, *flags, "-m", "eaqecc", *args, "--format", "machine"],
                               capture_output=True, env=package_env())
                for flags in ([], ["-O"])]
        assert [p.returncode for p in outs] == [0, 0], args
        assert outs[0].stdout == outs[1].stdout and outs[0].stdout.startswith(b"#v1\n"), args


def test_table_query_past_the_cell_cap_exits_2(capsys):
    # refused from the closure's cell estimate, before the walk starts
    assert cli.main(["table", "query", "--bundled", "qubit", "--n", "200"]) == 2
    assert "past the cap" in capsys.readouterr().err


def test_no_assert_statements_in_package():
    # invariant checks must survive python -O
    pkg = pathlib.Path(eaqecc.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


# budgets that restate no default: a chosen information-set run gets its
# estimated messages, and `distance` the user's --budget
_OWN_BUDGETS = {("codes.py", "_distance_facts", "work_budget", "messages"),
                ("cli.py", "cmd_distance", "work_budget", "args.budget")}


def test_distance_effort_defaults_have_one_home():
    # distance.DEFAULT_ENUM_CAP and DEFAULT_WORK_BUDGET are the only
    # defaults: a call passes enum_cap= or work_budget= on from a
    # parameter of the same name, or one of _OWN_BUDGETS
    pkg = pathlib.Path(eaqecc.__file__).parent
    found = []

    def visit(node, path, func, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            func, params = node.name, {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg not in ("enum_cap", "work_budget"):
                    continue
                value = ast.unparse(kw.value)
                if not (value == kw.arg in params
                        or (path.name, func, kw.arg, value) in _OWN_BUDGETS):
                    found.append(f"{path.name}:{node.lineno} {kw.arg}={value}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, func, params)

    for path in sorted(pkg.glob("*.py")):
        text = path.read_text()
        visit(ast.parse(text, filename=str(path)), path, None, set())
        found += [f"{path.name}: {name}" for name in ("CONSTRUCT_WORK_BUDGET", "MORE_ENT_VERIFY_CAP")
                  if name in text]
    assert not found


_TOKENS = st.one_of(
    st.sampled_from([
        "#v1", "step", "rule=more_ent", "input", "output", "none", "cert", "code",
        "matrix", "vector", "int", "str", "q=9", "q=4", "rows=2", "cols=3", "rows=-1",
        "kind=generator", "pure", "unknown", "pure_to:3", "pure_to:", "x", "#", "=",
    ]),
    st.integers(-3, 300).map(str),
    st.text(max_size=3),
)
_LINES = st.lists(st.lists(_TOKENS, max_size=8).map(" ".join), max_size=6)
_HEADS = st.sampled_from(["", "q=9 rows=1 cols=3", "q=3 rows=2 cols=2",
                          "#v1 step rule=more_ent", "3 6 1 5 3"])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(head=_HEADS, lines=_LINES)
def test_parsers_raise_only_eaqecc_errors(head, lines):
    text = "\n".join([head] + lines)
    for parse in (MatrixFq.from_text, tables.CodeRecord.from_line, prop.step_from_text):
        try:
            parse(text)
        except EaqeccError:
            pass


@pytest.mark.parametrize("args", [["verify-paper"], ["simple-rule", "--rule", "1", "--record", "3 5 2 3 1"]])
def test_closed_output_pipe_exits_quietly(args):
    # `eaqecc verify-paper --format machine | head -3`: the reader leaves early
    proc = subprocess.Popen(
        [sys.executable, "-m", "eaqecc", *args, "--format", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""
