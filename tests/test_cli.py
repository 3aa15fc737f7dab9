"""End-to-end runs of every subcommand, exit codes, and determinism."""

import io
import json

import pytest

from shellmoves.cli import main
from shellmoves.diagram import isomorphic, parse_gauss_code, serialize
from shellmoves.errors import StaleSite
from shellmoves.moves import apply_move, site_from_text
from shellmoves.normal_form import build_link_diagram, encode_snail

from conftest import REFERENCE_KNOT_CODE, REFERENCE_LINK_SNAILS

EMPTY = "circles: 1\ncircle 1:\n"
FREE = "circles: 1\nchord g +\ncircle 1: g< g>\n"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_invariants_knot(files):
    path = files("k.gd", REFERENCE_KNOT_CODE)
    code, out = run("invariants", path)
    assert code == 0
    assert "W: t^-1 - 2*t + t^3" in out
    assert "odd_writhe: 0" in out


def test_invariants_link(files):
    G = build_link_diagram(**REFERENCE_LINK_SNAILS)
    path = files("l.gd", serialize(G))
    code, out = run("invariants", path)
    assert code == 0
    assert "lambda: 2" in out
    assert "lk: (3, 1)" in out
    assert "shell_sum: -3" in out
    assert "F: [1 + 2*t, -1 + 2*t] in Gamma(2)" in out


def test_invariants_json(files):
    G = build_link_diagram(**REFERENCE_LINK_SNAILS)
    path = files("l.gd", serialize(G))
    code, out = run("invariants", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == 2 and data["lk12"] == 3 and data["lk21"] == 1


def test_invariants_deterministic(files):
    path = files("l.gd", serialize(build_link_diagram(**REFERENCE_LINK_SNAILS)))
    assert run("invariants", path) == run("invariants", path)


def test_normalize_knot(files):
    path = files("k.gd", REFERENCE_KNOT_CODE)
    code, out = run("normalize", path)
    assert code == 0
    assert "a: {-1:1, 3:1}" in out
    assert "circles: 1" in out


def test_normalize_link(files):
    path = files("l.gd", serialize(build_link_diagram(**REFERENCE_LINK_SNAILS)))
    code, out = run("normalize", path)
    assert code == 0
    assert "a: {2:2, 3:-1}" in out
    assert "b: {-1:2}" in out
    assert "c: [1, 2]" in out and "d: [-1, 2]" in out and "p: 2" in out


def test_normalize_negative_lambda_swaps(files):
    G = build_link_diagram(**REFERENCE_LINK_SNAILS)
    from shellmoves.diagram import swap_components
    path = files("l.gd", serialize(swap_components(G)))
    code, out = run("normalize", path)
    assert code == 0
    assert "components swapped" in out


def test_equiv_exit_codes(files):
    a = files("a.gd", EMPTY)
    b = files("b.gd", FREE)
    code, out = run("equiv", a, b)
    assert code == 0 and "all conditions met" in out
    c = files("c.gd", serialize(encode_snail("self", 1, 2)))
    code, out = run("equiv", a, c)
    assert code == 1 and "writhe polynomial mismatch" in out


def test_realize_knot_target(files, tmp_path):
    spec = files("t.txt", "mu: 1\nw: t^-1 - 2*t + t^3\n")
    code, out = run("realize", "--spec", spec)
    assert code == 0
    G = parse_gauss_code(out)
    k = files("k.gd", out)
    assert run("invariants", k)[1].startswith("mu: 1")


def test_realize_link_target(files):
    spec = files("t.txt",
                 "mu: 2\nlambda: 2\na: 2:2 3:-1\nb: -1:2\nc: 3 1\nd: 2 0\n")
    code, out = run("realize", "--spec", spec)
    assert code == 0
    path = files("out.gd", out)
    code, inv = run("invariants", path)
    assert "lambda: 2" in inv


def test_realize_rejects_bad_targets(files):
    spec = files("t.txt", "mu: 1\nw: t\n")
    code, _ = run("realize", "--spec", spec)
    assert code == 1
    spec = files("t2.txt", "mu: 2\nlambda: 0\nc: 0:1\nd:\n")
    code, _ = run("realize", "--spec", spec)
    assert code == 1
    spec = files("t3.txt", "mu: 3\n")
    code, _ = run("realize", "--spec", spec)
    assert code == 65


LINK_SPEC = "mu: 2\nlambda: 2\na: 2:2 3:-1\nb: -1:2\nc: 3 1\nd: 2 0\n"


@pytest.mark.parametrize("spec,message", [
    ("mu: 1\nw: t^-1 - 2*t + t^3\nw: 0\n", "'w' given twice"),
    ("mu: 1\nmu: 1\nw: 0\n", "'mu' given twice"),
    ("mu: 2\nlambda: 0\na: 2:1 2:-1\n", "a: slot 2 given twice"),
    ("mu: 2\nlambda: 0\nc: 0:1 0:1\nd: 0:2\n", "c: slot 0 given twice"),
    ("mu: 2\nlambda: 2\nshellsum: 5\nc: 1 1\nd: 0 0\n",
     "unknown target key 'shellsum'"),
    # a knot target takes no link keys
    ("mu: 1\nw: 0\nlambda: 3\na: 2:1\n", "unknown target key 'lambda'"),
    # a shell_sum line, once given, must hold an integer
    (LINK_SPEC + "shell_sum:\n", "needs an integer 'shell_sum:' line"),
    (LINK_SPEC + "shell_sum: x\n", "needs an integer 'shell_sum:' line"),
])
def test_realize_rejects_misread_spec_fields(files, capsys, spec, message):
    code, out = run("realize", "--spec", files("t.txt", spec))
    assert code == 65 and out == ""
    assert message in capsys.readouterr().err


def test_realize_checks_shell_sum(files):
    spec = LINK_SPEC
    code, out = run("realize", "--spec", files("t.txt", spec + "shell_sum: 0\n"))
    assert code == 0
    assert "shell_sum: 0" in run("invariants", files("o.gd", out))[1]
    code, _ = run("realize", "--spec", files("u.txt", spec + "shell_sum: 1\n"))
    assert code == 1


def test_fuzz_ok(files):
    path = files("l.gd", serialize(build_link_diagram(**REFERENCE_LINK_SNAILS)))
    code, out = run("fuzz", path, "--steps", "30", "--seed", "7", "--cap", "40")
    assert code == 0 and out.startswith("ok:")


def test_witness_and_replay(files, tmp_path):
    a = files("a.gd", FREE)
    b = files("b.gd", EMPTY)
    code, out = run("witness", a, b, "--depth", "3")
    assert code == 0 and "R1_delete" in out
    trace = files("t.tr", out)
    code, final = run("replay", a, trace)
    assert code == 0
    assert isomorphic(parse_gauss_code(final), parse_gauss_code(EMPTY))


def test_witness_none(files):
    a = files("a.gd", FREE)
    c = files("c.gd", serialize(encode_snail("self", 1, 2)))
    code, out = run("witness", a, c, "--depth", "1", "--budget", "2000")
    assert code == 1 and "none within bounds" in out


def test_witness_cap_below_start_size_is_a_data_error(files, capsys):
    two = files("two.gd", "circles: 1\nchord x +\nchord y -\n"
                "circle 1: x< x> y< y>\n")
    empty = files("empty.gd", EMPTY)
    code, out = run("witness", two, empty, "--depth", "3", "--cap", "1")
    assert code == 65 and out == ""
    assert "chord_cap below current chord count" in capsys.readouterr().err
    code, out = run("witness", two, empty, "--depth", "3", "--cap", "2")
    assert code == 0 and out.count("R1_delete") == 2


@pytest.mark.parametrize("argv", [
    ("witness", "A", "B", "--depth", "-2"),
    ("witness", "A", "B", "--depth", "3", "--budget", "-1"),
    ("witness", "A", "B", "--depth", "3", "--cap", "-1"),
    ("fuzz", "A", "--steps", "-4", "--seed", "1", "--cap", "8"),
])
def test_negative_bounds_are_usage_errors(files, capsys, argv):
    paths = {"A": files("a.gd", FREE), "B": files("b.gd", EMPTY)}
    code, out = run(*(paths.get(arg, arg) for arg in argv))
    assert code == 64 and out == ""
    assert "must not be negative" in capsys.readouterr().err


def test_replay_rejects_bad_trace(files):
    a = files("a.gd", FREE)
    bad = files("t.tr", "R2_delete @ 1:0 1:2 par\n")
    code, _ = run("replay", a, bad)
    assert code == 65
    garbage = files("t2.tr", "warp 9\n")
    code, _ = run("replay", a, garbage)
    assert code == 65


def test_replay_rejects_circle_zero(files, capsys):
    # circle 0 once became circle -1 through negative indexing
    a = files("a.gd", FREE)
    code, out = run("replay", a, files("t.tr", "R1_delete @ 0:0\n"))
    assert code == 65 and out == ""
    assert "circles count from 1" in capsys.readouterr().err


def test_replay_rejects_missing_circle_without_traceback(files, capsys):
    a = files("a.gd", FREE)
    code, out = run("replay", a, files("t.tr", "S1 @ 5:1\n"))
    assert code == 65 and out == ""
    assert "no circle 5" in capsys.readouterr().err


def test_replay_names_missing_circle_one_based(files, capsys):
    a = files("a.gd", FREE)
    code, _ = run("replay", a, files("t.tr", "R1_delete @ 2:0\n"))
    assert code == 65
    assert "no circle 2" in capsys.readouterr().err


MALFORMED_SITES = (
    "R1_insert @ 1:0 + bogus",          # order must be IT or TI
    "R1_insert @ 1:0 +",                # order missing
    "R1_delete @ 1:0 junk",             # R1_delete takes no parameters
    "R1_delete @ 1:0 1:1",              # one anchor, not two
    "R2_insert @ 1:0 1:0 par + junk",   # only tfirst may follow
    "R2_insert @ 1:0 par +",            # two anchors, not one
    "R2_delete @ 1:0 1:1",              # variant missing
    "S1 @ 1:0 1:1",
    "R1_delete @ 1:7",                  # anchors are not taken mod the length
    "R1_delete @ 1:-3",
    "R1_delete @ 1:2",
    "R1_insert @ 1:3 + IT",             # gaps run 0..len(word)
    "R1_insert @ 1:-1 + IT",
    "R2_insert @ 1:0 1:3 par +",
    "R2_insert @ 1:0 2:0 par +",        # no circle 2
)


@pytest.mark.parametrize("line", MALFORMED_SITES)
def test_replay_rejects_malformed_site(files, capsys, line):
    a = files("a.gd", FREE)
    code, out = run("replay", a, files("t.tr", line + "\n"))
    assert code == 65 and out == ""
    assert "trace line 1:" in capsys.readouterr().err
    with pytest.raises(StaleSite):
        apply_move(parse_gauss_code(FREE), site_from_text(line))


def test_replay_rejects_r1_delete_of_a_lone_endpoint(files, capsys):
    # circle 1 holds one endpoint, adjacent to itself
    a = files("a.gd", "circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>\n")
    code, out = run("replay", a, files("t.tr", "R1_delete @ 1:0\n"))
    assert code == 65 and out == ""
    assert "trace line 1:" in capsys.readouterr().err


def test_fmt_canonicalizes_whitespace(files):
    messy = "circles:   1\nchord   g   +\ncircle 1:    g<    g>   # hi\n"
    path = files("m.gd", messy)
    code, out = run("fmt", path)
    assert code == 0 and out == FREE


def test_usage_error_exit_code():
    assert run("frobnicate")[0] == 64
    assert run()[0] == 64
    assert run("equiv", "onearg")[0] == 64


def test_help_goes_to_out_and_usage_errors_to_stderr(capsys):
    for argv in (["--help"], ["witness", "--help"]):
        code, out = run(*argv)
        assert code == 0 and out.startswith("usage: shellmoves"), argv
    assert capsys.readouterr().out == ""
    assert run("frobnicate") == (64, "")
    assert "usage: shellmoves" in capsys.readouterr().err


@pytest.mark.parametrize("argv, usage", [
    (("witness", "a", "b", "--depth", "1", "--bogus"), "shellmoves witness"),
    (("fuzz", "a", "--steps", "1", "--seed", "1", "--cap", "2", "x"),
     "shellmoves fuzz"),
    (("fmt", "a", "b"), "shellmoves fmt"),
])
def test_an_unrecognized_argument_prints_the_commands_usage(capsys, argv,
                                                            usage):
    # the command's own parser reads its arguments, so it names them
    assert run(*argv) == (64, "")
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {usage} [-h]"), err
    assert err.endswith(f"{usage}: error: unrecognized arguments: "
                        f"{argv[-1]}\n"), err


def test_parse_error_exit_code(files):
    bad = files("bad.gd", "circles: 1\nchord g +\ncircle 1: g<\n")
    assert run("invariants", bad)[0] == 65
    assert run("invariants", str(files("x.gd", "")) + ".missing")[0] == 65


@pytest.mark.parametrize("command", ["invariants", "normalize", "fmt"])
def test_crlf_and_cr_input_print_as_lf(tmp_path, command):
    """Input is read as bytes and split into lines by the reader, so CRLF
    and CR-only copies of a code print the same bytes as the LF original."""
    link = serialize(build_link_diagram(**REFERENCE_LINK_SNAILS))
    for code in ("# a knot\n\n" + REFERENCE_KNOT_CODE, link):
        outs = []
        for i, newline in enumerate(("\n", "\r\n", "\r")):
            path = tmp_path / f"{i}.gd"
            path.write_bytes(code.replace("\n", newline).encode("utf-8"))
            outs.append(run(command, str(path)))
        assert outs[0][0] == 0 and outs == [outs[0]] * 3


def test_undecodable_input_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "bad.gd"
    path.write_bytes(b"circles: 1\nchord \xff +\n")
    assert run("invariants", str(path)) == (65, "")
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_console_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import shellmoves
    # the child finds the package where this process found it
    root = str(Path(shellmoves.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-m", "shellmoves.cli", "--help"],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0 and "invariants" in r.stdout
