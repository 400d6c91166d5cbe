import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleydiff
from cayleydiff import cli
from cayleydiff.groups import group_from_spec, group_from_table, z2_power_group

F_POLY = "(p,(1+p)(1+q),q)"


def run_ok(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def run_err(capsys, argv, code):
    got = cli.run(argv)
    captured = capsys.readouterr()
    assert got == code, captured.err or captured.out
    return captured.err


# ------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "cayleydiff" in capsys.readouterr().out


def test_subcommand_help_exits_zero(capsys):
    assert cli.run(["diff", "--help"]) == 0
    capsys.readouterr()


def test_no_arguments_is_a_usage_error(capsys):
    err = run_err(capsys, [], 1)
    assert err.startswith("error: usage:")


def test_unknown_subcommand(capsys):
    err = run_err(capsys, ["bogus"], 1)
    assert err.startswith("error: usage:")


def test_unknown_flag(capsys):
    run_err(capsys, ["group", "--group", "s:3", "--frobnicate"], 1)


def test_unknown_group_spec(capsys):
    err = run_err(capsys, ["group", "--group", "q:7"], 1)
    assert err.startswith("error:")


def test_function_sources_are_mutually_exclusive(capsys):
    run_err(
        capsys,
        [
            "diff", "--dom", "z2^2", "--cod", "z2^2",
            "--f", "p", "--fn", "builtin:identity", "--at", "0",
        ],
        1,
    )


def test_cross_check_failure_exits_two(capsys, monkeypatch):
    # handlers import their routes when they run, so the patch goes on
    # the module that defines the theorem route
    import cayleydiff.differential as differential

    monkeypatch.setattr(differential, "differentials_by_theorem", lambda q: ())
    err = run_err(
        capsys,
        [
            "diff", "--dom", "s:3", "--cod", "s:3",
            "--fn", "builtin:identity", "--at", "r", "--oracle",
        ],
        2,
    )
    assert err.startswith("error: CrossCheckMismatch")


# ------------------------------------------------------------------ group


def test_group_payload(capsys):
    data = json.loads(run_ok(capsys, ["group", "--group", "s:3"]))
    assert data["order"] == 6
    assert data["names"][0] == "e"
    assert len(data["table"]) == 6


def test_group_generator_validation(capsys):
    data = json.loads(
        run_ok(capsys, ["group", "--group", "s:3", "--gens", "r,t"])
    )
    assert data["generators"] == [1, 3]
    err = run_err(capsys, ["group", "--group", "s:3", "--gens", "r"], 1)
    assert "NotGenerating" in err


def test_group_hom_enumeration(capsys):
    data = json.loads(
        run_ok(capsys, ["group", "--group", "s:3", "--homs-to", "s:3"])
    )
    assert data["hom_count"] == 10
    assert len(data["homs"]) == 10
    assert [0, 1, 2, 3, 4, 5] in data["homs"]

    data = json.loads(
        run_ok(capsys, ["group", "--group", "cyclic:4", "--homs-to", "cyclic:2"])
    )
    assert data["hom_count"] == 2


def test_group_file_round_trip(capsys, tmp_path):
    out = run_ok(capsys, ["group", "--group", "z2^2"])
    path = tmp_path / "g.json"
    path.write_text(out)
    again = json.loads(run_ok(capsys, ["group", "--group", f"file:{path}"]))
    assert again["table"] == json.loads(out)["table"]


# ----------------------------------------------------------------- cayley


def _count_edges(dot: str) -> tuple[int, int]:
    undirected = sum("[dir=none]" in ln for ln in dot.splitlines())
    directed = sum(
        "->" in ln and "[dir=none]" not in ln for ln in dot.splitlines()
    )
    return undirected, directed


def test_s3_dot_shape(capsys):
    dot = run_ok(capsys, ["cayley", "--group", "s:3", "--gens", "r,t", "dot"])
    assert dot.startswith("digraph G {")
    assert dot.rstrip().endswith("}")
    assert _count_edges(dot) == (3, 6)
    assert '[label="tr2"]' in dot


def test_single_point_dot_has_no_edges(capsys):
    dot = run_ok(capsys, ["cayley", "--group", "cyclic:1", "dot"])
    assert _count_edges(dot) == (0, 0)
    assert dot.count("label") == 1


def _dot_labels(dot: str) -> list[str]:
    """The node labels of ``dot``, unescaped; a quote inside a label must
    be escaped, or the label ends there."""
    bodies = re.findall(r'\[label="((?:[^"\\]|\\.)*)"\];$', dot, flags=re.M)
    return [re.sub(r"\\(.)", r"\1", body) for body in bodies]


def test_dot_labels_escape_backslashes_and_quotes(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "a\\"]})
    )
    dot = run_ok(capsys, ["cayley", "--group", f"file:{path}", "--gens", "a\\", "dot"])
    assert '  1 [label="a\\\\"];' in dot
    assert _dot_labels(dot) == ["e", "a\\"]

    from cayleydiff.spaces import discrete_digraph

    names = ['\\"', '"\\', 'x\\\\"y"', "\\n"]
    dot = cli.emit_dot(discrete_digraph(4), names)
    assert '  0 [label="\\\\\\""];' in dot
    assert _dot_labels(dot) == names


def test_cayley_json_and_check(capsys):
    data = json.loads(
        run_ok(capsys, ["cayley", "--group", "s:3", "--check"])
    )
    assert data["size"] == 6
    assert data["gens"] == [1, 3]
    assert data["left_multiplication_ok"] is True
    assert sorted(data["nbhd"][0]) == [0, 1, 3]


def test_cayley_file_group_needs_gens(capsys, tmp_path):
    out = run_ok(capsys, ["group", "--group", "cyclic:4"])
    path = tmp_path / "c4.json"
    path.write_text(out)
    err = run_err(capsys, ["cayley", "--group", f"file:{path}"], 1)
    assert "--gens" in err
    data = json.loads(
        run_ok(capsys, ["cayley", "--group", f"file:{path}", "--gens", "1"])
    )
    assert data["size"] == 4


def test_cayley_file_group_by_name(capsys, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(
        json.dumps(
            {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["e", "a", "b"]}
        )
    )
    group = json.loads(run_ok(capsys, ["group", "--group", f"file:{path}"]))
    assert group["names"] == ["e", "a", "b"]
    data = json.loads(
        run_ok(capsys, ["cayley", "--group", f"file:{path}", "--gens", "a"])
    )
    assert data["gens"] == [1]
    assert data["size"] == 3


# ------------------------------------------------------------------ space


def test_pentacle_props_text(capsys):
    out = run_ok(capsys, ["space", "--pentacle", "--props"])
    assert out == "T0=true\nT1=false\ndiscrete=false\ntopological=false\n"


def test_pentacle_dot_shape(capsys):
    dot = run_ok(capsys, ["space", "--pentacle", "dot"])
    assert _count_edges(dot) == (5, 5)


def test_props_reject_dot_format(capsys):
    run_err(capsys, ["space", "--pentacle", "--props", "dot"], 1)


def test_hypercube_space_json(capsys):
    data = json.loads(run_ok(capsys, ["space", "--hypercube", "2"]))
    assert data["size"] == 4
    assert sorted(data["nbhd"][0]) == [0, 1, 2]


def test_two_point_cube_is_topological_not_t0(capsys):
    data = json.loads(
        run_ok(capsys, ["space", "--hypercube", "1", "--props", "json"])
    )
    assert data["props"] == {
        "T0": False,
        "T1": False,
        "discrete": False,
        "topological": True,
    }


def test_negative_hypercube_is_a_user_error(capsys):
    err = run_err(capsys, ["space", "--hypercube", "-1"], 1)
    assert err.startswith("error: MalformedTable:")


def test_space_from_file(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"size": 3, "nbhd": [[0], [1], [2]]}))
    out = run_ok(capsys, ["space", "--file", str(path), "--props"])
    assert out == "T0=true\nT1=true\ndiscrete=true\ntopological=true\n"


# -------------------------------------------------------------- diffspace


def test_diffspace_s3(capsys):
    out = run_ok(capsys, ["diffspace", "--dom", "s:3", "--cod", "s:3", "--oracle"])
    data = json.loads(out)
    assert data["count"] == 3
    values = [m["values"] for m in data["maps"]]
    assert [0, 1, 2, 3, 4, 5] in values
    assert [0, 0, 0, 0, 0, 0] in values
    assert data["isolated"] == [False, False, True]
    assert data["nbhd"] == [[0, 1], [0, 1], [2]]


def test_diffspace_emits_matrices_for_cubes(capsys):
    data = json.loads(
        run_ok(capsys, ["diffspace", "--dom", "z2^2", "--cod", "z2^2"])
    )
    assert data["count"] == 9
    anfs = {m["anf"] for m in data["maps"]}
    assert "(p, q)" in anfs
    assert "(0, 0)" in anfs


# ------------------------------------------------------------------- diff


def test_polynomial_diff_worked_example(capsys):
    out = run_ok(
        capsys,
        ["diff", "--dom", "z2^2", "--cod", "z2^3", "--f", F_POLY, "--at", "(1,1)"],
    )
    data = json.loads(out)
    assert data["point"] == 3
    assert data["count"] == 1
    only = data["differentials"][0]
    assert only["anf"] == "(p, 0, q)"
    assert only["rows"] == [[1, 0], [0, 0], [0, 1]]
    assert only["values"] == [0, 1, 4, 5]
    assert data["checked"] == ["criterion"]


def test_oracle_flag_checks_all_routes(capsys):
    out = run_ok(
        capsys,
        [
            "diff", "--dom", "z2^2", "--cod", "z2^3",
            "--f", F_POLY, "--at", "(1,1)", "--oracle",
        ],
    )
    data = json.loads(out)
    assert data["checked"] == ["criterion", "theorem", "oracle", "oracle-literal"]


def test_diff_by_named_point(capsys):
    out = run_ok(
        capsys,
        [
            "diff", "--dom", "s:3", "--cod", "s:3",
            "--fn", "builtin:identity", "--at", "r", "--oracle",
        ],
    )
    data = json.loads(out)
    assert data["count"] == 1
    assert data["differentials"][0]["values"] == [0, 1, 2, 3, 4, 5]


def test_diff_builtin_zero(capsys):
    data = json.loads(
        run_ok(
            capsys,
            [
                "diff", "--dom", "cyclic:4", "--cod", "cyclic:2",
                "--fn", "builtin:zero", "--at", "1", "--oracle",
            ],
        )
    )
    assert data["count"] == 2


def test_diff_from_map_file(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(
        json.dumps({"dom_size": 4, "cod_size": 2, "values": [0, 1, 0, 1]})
    )
    data = json.loads(
        run_ok(
            capsys,
            [
                "diff", "--dom", "cyclic:4", "--cod", "cyclic:2",
                "--fn", f"file:{path}", "--at", "0", "--oracle",
            ],
        )
    )
    assert data["count"] == 2


def test_diff_rejects_wrong_sized_map_file(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(
        json.dumps({"dom_size": 3, "cod_size": 2, "values": [0, 1, 0]})
    )
    run_err(
        capsys,
        [
            "diff", "--dom", "cyclic:4", "--cod", "cyclic:2",
            "--fn", f"file:{path}", "--at", "0",
        ],
        1,
    )


@pytest.mark.parametrize(
    "command,payload",
    [
        ("group", {"order": 2, "table": 5}),
        ("group", {"order": 2, "table": [5, 6]}),
        ("group", {"order": 1, "table": [[0]], "names": 5}),
        ("space", {"size": 1, "nbhd": 5}),
        ("space", {"size": 2, "nbhd": [[0, "a"], [1]]}),
        ("diff", {"dom_size": 2, "cod_size": 2, "values": [0, None]}),
        ("diff", {"dom_size": 2, "cod_size": 2, "values": [0, 1.9]}),
        ("group", {"order": 2, "table": [[0, 1], [1, 0]], "names": "ab"}),
        ("group", {"order": 2, "table": [[0, 1], [1, 0]], "names": [1, 2]}),
    ],
)
def test_bad_json_is_malformed(capsys, tmp_path, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    argv = {
        "group": ["group", "--group", f"file:{path}"],
        "space": ["space", "--file", str(path)],
        "diff": [
            "diff", "--dom", "cyclic:2", "--cod", "cyclic:2",
            "--fn", f"file:{path}", "--at", "0",
        ],
    }[command]
    err = run_err(capsys, argv, 1)
    assert err.startswith("error: MalformedTable:")


def test_unparsable_json_file_is_a_user_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 2, "table": [[0, 1], [1, 0]')
    err = run_err(capsys, ["group", "--group", f"file:{path}"], 1)
    assert err.startswith("error: JSONDecodeError: ")


def test_diff_rejects_tuple_point_outside_cubes(capsys):
    run_err(
        capsys,
        [
            "diff", "--dom", "cyclic:4", "--cod", "cyclic:2",
            "--fn", "builtin:zero", "--at", "(1,1)",
        ],
        1,
    )


Z2_IDENTITY = ["diff", "--dom", "z2^2", "--cod", "z2^2", "--fn", "builtin:identity"]
BOOL_IDENTITY = ["bool", "diff", "--m", "2", "--f", "(p,q)", "--json"]


@pytest.mark.parametrize(
    "argv, expect",
    [
        # the bitstring, the index and the tuple name the same point
        (Z2_IDENTITY + ["--at", "11"], 3),
        (Z2_IDENTITY + ["--at", "3"], 3),
        (Z2_IDENTITY + ["--at", "(1,1)"], 3),
        (Z2_IDENTITY + ["--at", "4"], "ValueError: point index 4 out of range"),
        (Z2_IDENTITY + ["--at", "-1"], "ValueError: point index -1 out of range"),
        (Z2_IDENTITY + ["--at", "1,1"], "ValueError: cannot parse point '1,1'"),
        (["cayley", "--group", "s:3", "--gens", "1,9"], "ValueError: element index 9 out of range"),
        (["cayley", "--group", "s:3", "--gens", "r,x"], "ValueError: unknown element 'x'"),
        (["diff", "--dom", "cyclic:4", "--cod", "cyclic:4", "--fn", "builtin:square", "--at", "1"], 1),
        (
            ["diff", "--dom", "cyclic:4", "--cod", "cyclic:4", "--fn", "identity", "--at", "1"],
            "ValueError: function source 'identity' needs a file:/poly:/builtin: prefix",
        ),
        # bool diff parses its point as diff does, on the m-cube
        (BOOL_IDENTITY + ["--at", "10"], [1, 0]),
        (BOOL_IDENTITY + ["--at", "2"], [1, 0]),
        (BOOL_IDENTITY + ["--at", "(1,0)"], [1, 0]),
        (BOOL_IDENTITY + ["--at", "4"], "ValueError: point index 4 out of range"),
        (BOOL_IDENTITY + ["--at", "-1"], "ValueError: point index -1 out of range"),
        (
            BOOL_IDENTITY + ["--at", "(1,0,1)"],
            "ValueError: point tuple '(1,0,1)' does not fit the domain",
        ),
    ],
)
def test_point_generator_and_function_spellings(capsys, argv, expect):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    if isinstance(expect, str):
        assert (code, out) == (1, "")
        assert err == f"error: {expect}\n"
        return
    assert (code, err) == (0, "")
    assert json.loads(out)["point"] == expect
    for prefix, at in ((Z2_IDENTITY, "3"), (BOOL_IDENTITY, "2")):
        if argv[: len(prefix)] == prefix:
            assert out == run_ok(capsys, prefix + ["--at", at])


def test_diff_without_function_source_is_a_value_error():
    s3, _ = group_from_spec("s:3")
    with pytest.raises(ValueError, match="needs a function source"):
        cli._load_function(None, None, s3, s3, (None, None))


def test_diff_finds_each_z2_dimension_once(capsys, monkeypatch):
    seen = []
    z2_dim = cli._z2_dim
    monkeypatch.setattr(cli, "_z2_dim", lambda g: seen.append(g.order) or z2_dim(g))
    out = run_ok(capsys, ["diff", "--dom", "z2^2", "--cod", "z2^1", "--f", "p", "--at", "01"])
    assert [d["anf"] for d in json.loads(out)["differentials"]] == ["(0)", "(p)", "(q)", "(p+q)"]
    assert sorted(seen) == [2, 4]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_z2_dim_of_z2_powers(m):
    assert cli._z2_dim(z2_power_group(m)) == m


def test_z2_dim_rejects_other_tables():
    z2_3 = z2_power_group(3)
    perm = [0, 1, 2, 4, 3, 5, 6, 7]  # swap the labels 3 and 4
    relabelled = group_from_table(
        [[perm[z2_3.table[perm[a]][perm[b]]] for b in range(8)] for a in range(8)]
    )
    assert relabelled.table != z2_3.table
    for group in (
        group_from_spec("cyclic:4")[0],
        relabelled,
        group_from_spec("s:3")[0],
        group_from_spec("cyclic:1")[0],
    ):
        assert cli._z2_dim(group) is None


def test_diffspace_from_trivial_group(capsys):
    data = json.loads(run_ok(capsys, ["diffspace", "--dom", "cyclic:1", "--cod", "z2^1"]))
    assert data["count"] == 1
    assert data["maps"] == [{"values": [0]}]
    # z2^0 is the order-1 group too
    out = run_ok(capsys, ["diffspace", "--dom", "z2^0", "--cod", "z2^2"])
    assert json.loads(out) == {**data, "nbhd": [[0]], "isolated": [True]}


def test_diff_polynomial_on_the_trivial_cube(capsys):
    # the order-1 group is the 0-cube, as for bool diff --m 0
    for poly, count in (("(0,0)", 1), ("(1,0)", 0)):
        argv = ["diff", "--dom", "z2^0", "--cod", "z2^2", "--f", poly, "--at", "0"]
        data = json.loads(run_ok(capsys, argv))
        assert data["count"] == count
        bool_out = run_ok(capsys, ["bool", "diff", "--m", "0", "--f", poly, "--at", ""])
        assert len(bool_out.splitlines()) == count
    err = run_err(
        capsys, ["diff", "--dom", "z2^0", "--cod", "cyclic:1", "--f", "(0,0)", "--at", "0"], 1
    )
    assert "codomain needs 0" in err


# ------------------------------------------------------------------- bool


def test_bool_diff_default_output(capsys):
    out = run_ok(
        capsys,
        ["bool", "diff", "--m", "2", "--n", "3", "--f", F_POLY, "--at", "11"],
    )
    assert out == "(p, 0, q)\n"


def test_bool_point_spellings_agree(capsys):
    outs = {
        run_ok(
            capsys,
            ["bool", "diff", "--m", "2", "--f", F_POLY, "--at", at, "--oracle"],
        )
        for at in ("11", "(1,1)", "3")
    }
    assert len(outs) == 1


def test_bool_diff_json_output(capsys):
    out = run_ok(
        capsys,
        ["bool", "diff", "--m", "2", "--f", F_POLY, "--at", "3", "--json"],
    )
    data = json.loads(out)
    assert data["count"] == 1
    assert data["point"] == [1, 1]
    assert data["differentials"][0]["anf"] == "(p, 0, q)"


def test_bool_diff_on_the_zero_cube(capsys):
    argv = ["bool", "diff", "--m", "0", "--f", "(0,0)", "--at", ""]
    assert run_ok(capsys, argv) == "(0, 0)\n"
    assert run_ok(capsys, argv + ["--oracle"]) == "(0, 0)\n"
    data = json.loads(run_ok(capsys, argv + ["--json"]))
    assert data["differentials"] == [{"anf": "(0, 0)", "rows": [[], []]}]


def test_bool_diff_dimension_mismatch(capsys):
    run_err(
        capsys,
        ["bool", "diff", "--m", "2", "--n", "2", "--f", F_POLY, "--at", "3"],
        1,
    )
    run_err(
        capsys,
        ["bool", "diff", "--m", "2", "--f", F_POLY, "--at", "7"],
        1,
    )


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_bool_diff_refuses_more_variables_than_the_notation_names(capsys, extra):
    got = cli.run(["bool", "diff", "--m", "12", "--f", "p", "--at", "0", *extra])
    captured = capsys.readouterr()
    assert got == 1
    assert captured.out == ""
    assert captured.err.startswith("error: DimMismatch: --m 12:")
    assert "11 variables p..z" in captured.err


def test_diff_payload_refuses_a_twelfth_variable_with_a_typed_error():
    # `diff --dom z2^12 --cod z2^1 --f p --at 0` reaches this rendering;
    # run end to end it takes about 20 s, so CI runs it in the bare venv
    from cayleydiff.errors import DimMismatch, Error
    from cayleydiff.spaces import FiniteMap

    last_bit = FiniteMap(2**12, 2, tuple(x & 1 for x in range(2**12)))
    with pytest.raises(DimMismatch, match="variable 12 has no name") as info:
        cli._map_payload(last_bit, 12, 1)
    assert isinstance(info.value, Error)  # cli.run maps it to exit 1
    first_bit = FiniteMap(2**12, 2, tuple(x >> 11 for x in range(2**12)))
    assert cli._map_payload(first_bit, 12, 1)["anf"] == "(p)"


def test_bool_diff_renders_all_eleven_variables(capsys):
    out = run_ok(capsys, ["bool", "diff", "--m", "11", "--f", "p", "--at", "0"])
    lines = out.splitlines()
    assert lines[0] == "(0)"
    assert lines[-1] == "(p+q+r+s+t+u+v+w+x+y+z)"


def test_bool_census_text(capsys):
    out = run_ok(capsys, ["bool", "census", "--m", "3", "--f", "pq+r"])
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "000 differentiable"
    assert lines[-1] == "prediction holds: true"


def test_bool_census_json(capsys):
    data = json.loads(
        run_ok(capsys, ["bool", "census", "--m", "2", "--f", "pq+1", "--json"])
    )
    assert data["matches"] is True
    assert data["differentiable"] == [False, False, False, True]


def test_bool_census_on_eleven_bits(capsys):
    out = run_ok(capsys, ["bool", "census", "--m", "11", "--f", "pq+rs+tuv+wxyz"])
    lines = out.splitlines()
    assert len(lines) == 2**11 + 1
    assert lines[-1] == "prediction holds: true"


# --------------------------------------------------------------- examples


def test_examples_suite(capsys):
    out = run_ok(capsys, ["examples", "--suite", "paper"])
    lines = out.splitlines()
    assert lines[-1] == "16 scenarios: 16 passed, 0 failed"
    assert all(ln.startswith("PASS") for ln in lines[:-1])


def test_examples_default_suite(capsys):
    assert run_ok(capsys, ["examples"]).splitlines()[-1].endswith("0 failed")


def test_examples_unknown_suite(capsys):
    run_err(capsys, ["examples", "--suite", "nope"], 1)


def test_sabotaged_suite_fails_under_python_O(tmp_path):
    # scenario checks must not be assert statements, which -O strips
    script = tmp_path / "sabotage.py"
    script.write_text(textwrap.dedent("""
        import sys
        from cayleydiff import cli, scenarios
        from cayleydiff.spaces import discrete_digraph

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        scenarios.pentacle = lambda: discrete_digraph(5)
        sys.exit(cli.run(["examples", "--suite", "paper"]))
    """))
    src = os.path.dirname(os.path.dirname(cayleydiff.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "16 scenarios: 14 passed, 2 failed"
    failed = [ln.split()[1] for ln in lines[:-1] if ln.startswith("FAIL")]
    assert failed == ["pentacle-neighborhoods", "pentacle-filter-convergence"]


def test_cli_runs_without_loading_numpy():
    script = textwrap.dedent("""
        import contextlib, io, sys
        from cayleydiff import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["examples"])
        sys.exit(code or ("numpy" in sys.modules and "numpy was imported"))
    """)
    src = os.path.dirname(os.path.dirname(cayleydiff.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------ determinism

# The CLI calls of the benchmark's cli_calls workload; their stdout
# digests are frozen in bench/frozen.json, keyed by the space-joined argv.
BENCH_CLI_CALLS = [
    ["examples", "--suite", "paper"],
    ["group", "--group", "z2^8"],
    ["group", "--group", "s:4", "--homs-to", "s:4"],
    ["cayley", "--group", "s:4", "dot"],
    ["space", "--hypercube", "8", "--props"],
    ["diffspace", "--dom", "z2^3", "--cod", "z2^3"],
    ["diff", "--dom", "z2^3", "--cod", "z2^3", "--f", "(p, qr, r)", "--at", "100",
     "--oracle"],
    ["bool", "diff", "--m", "5", "--n", "4", "--f", "(p+st, q, r, 0)", "--at", "01101"],
    ["bool", "census", "--m", "7", "--f", "pq+rs+tuv"],
]


def test_benchmark_cli_calls_match_frozen_digests(capsys):
    frozen = pathlib.Path(__file__).resolve().parents[1] / "bench" / "frozen.json"
    want = json.loads(frozen.read_text())["cli_stdout_sha256"]
    assert sorted(" ".join(argv) for argv in BENCH_CLI_CALLS) == sorted(want)
    for argv in BENCH_CLI_CALLS:
        out = run_ok(capsys, argv)
        assert hashlib.sha256(out.encode()).hexdigest() == want[" ".join(argv)], argv


# ---------------------------------------------------------- import footprint

# the cayleydiff modules each benchmark call loads, besides cli, errors
# and guards; only examples loads the scenarios, the Boolean calls load
# no group code, diff reads its polynomial without boolean, and no call
# loads a HEAVY_STDLIB module
GROUP_CODE = {"groups", "spaces"}
BOOLEAN_CODE = {"anf", "boolean", "gf2"}
CALL_FOOTPRINTS = {
    "examples": GROUP_CODE | BOOLEAN_CODE | {"cayley", "differential", "scenarios"},
    "group": GROUP_CODE,
    "cayley": GROUP_CODE | {"cayley"},
    "space": GROUP_CODE | {"cayley"},
    "diffspace": GROUP_CODE | {"anf", "gf2", "cayley"},
    "diff": GROUP_CODE | {"anf", "gf2", "cayley", "differential"},
    "bool": BOOLEAN_CODE,
}


# standard modules that no call loads: dataclasses imports the other
# four, and all five would only add import time
HEAVY_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

# the benchmark calls that print JSON; the others print text and never
# load json
JSON_OUTPUT = {"group", "diffspace", "diff"}


def loaded_modules(code: str) -> set[str]:
    """The cayleydiff submodules a fresh interpreter holds after ``code``,
    plus ``json`` and any ``HEAVY_STDLIB`` modules if it holds them."""
    script = code + textwrap.dedent(f"""
        import sys
        print(" ".join(m for m in sys.modules
                       if m.startswith("cayleydiff.") or m in {sorted(HEAVY_STDLIB | {"json"})!r}))
    """)
    src = os.path.dirname(os.path.dirname(cayleydiff.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("cayleydiff.") for m in proc.stdout.split()}


def test_importing_the_cli_loads_only_errors_and_guards():
    assert loaded_modules("import cayleydiff") == set()
    assert loaded_modules("import cayleydiff.cli") == {"cli", "errors", "guards"}


@pytest.mark.parametrize("argv", BENCH_CLI_CALLS, ids=" ".join)
def test_each_call_loads_only_what_its_subcommand_runs(argv):
    code = textwrap.dedent(f"""
        import contextlib, io
        from cayleydiff import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run({argv!r})
        if code:
            raise SystemExit(code)
    """)
    want = CALL_FOOTPRINTS[argv[0]] | {"cli", "errors", "guards"}
    if argv[0] in JSON_OUTPUT:
        want.add("json")
    assert loaded_modules(code) == want


def test_lazy_package_serves_every_public_name():
    import importlib

    for name in cayleydiff.__all__:
        module = importlib.import_module(f"cayleydiff.{cayleydiff._EXPORTS[name]}")
        assert getattr(cayleydiff, name) is getattr(module, name), name
        assert name in dir(cayleydiff)
    # every name the package exported when it imported eagerly
    assert set(cayleydiff.__all__) == {
        "BoolFunction", "GF2Matrix", "boolean_differentials_at", "hypercube",
        "is_differentiable_at", "leibniz_probe", "scalar_differentiability_census",
        "solve_matrix_equation", "CayleyGraph", "cayley_graph", "diff_space",
        "left_mult_automorphism_check", "DifferentialQuery", "chain_rule_check",
        "differential_oracle", "differentials_at", "differentials_by_theorem",
        "t1_forces_value_check", "FiniteGroup",
        "GeneratingSet", "closure", "cyclic_group", "direct_sum", "element_order",
        "enumerate_homomorphisms", "group_from_table", "symmetric_group",
        "validate_generating_set", "z2_power_group", "FiniteMap", "MapSpace",
        "PrincipalFilter", "ReflexiveDigraph", "box_product", "categorical_product",
        "continuous_maps", "converges", "hom_neighbor", "is_continuous",
        "is_continuous_at", "is_isolated", "pentacle", "space_properties",
    }
    with pytest.raises(AttributeError, match="no_such_name"):
        cayleydiff.no_such_name
    from cayleydiff import boolean

    assert boolean.GF2Matrix is cayleydiff.GF2Matrix
    assert {"boolean", "spaces", "anf"} <= set(dir(cayleydiff))


@pytest.mark.parametrize(
    "argv",
    [
        ["diffspace", "--dom", "s:3", "--cod", "s:3"],
        ["cayley", "--group", "z2^3", "dot"],
        ["space", "--pentacle"],
        ["group", "--group", "s:3", "--homs-to", "cyclic:6"],
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    assert run_ok(capsys, argv) == run_ok(capsys, argv)


# ------------------------------------------------------------ JSON writer

_TRICKY_CHARS = st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀"])
_TEXT = st.text(st.one_of(_TRICKY_CHARS, st.characters()), max_size=8)
_INTS = st.one_of(st.integers(-5, 5), st.integers(), st.sampled_from([-(2**70), 2**64]))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _TEXT)
_JSON_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
        st.lists(_INTS, max_size=6),
        st.lists(st.one_of(_INTS, st.booleans()), max_size=6),
        st.lists(_TEXT, max_size=4),
    ),
    max_leaves=24,
)


def _written(data) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._print_json(data)
    return out.getvalue()


@given(_JSON_TREES)
@settings(max_examples=200, deadline=None)
def test_json_writer_matches_json_dumps(data):
    assert _written(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "data", [1.5, {1, 2}, b"x", [1, 2.5], {"a": [True, None, {0.5}]}, {1: 2}, {"a": 1, 2: 3}]
)
def test_json_writer_rejects_other_types(data):
    with pytest.raises(TypeError):
        _written(data)


# ------------------------------------------------------- CLI grammar fuzz

_FUZZ_HEADS = [
    *([name] for name in cli._COMMANDS), ["bool", "diff"], ["bool", "census"],
    [], ["-h"], ["--help"], ["bogus"], [""], ["Diff"], ["--x"], ["bool", "nope"],
]
_FUZZ_WORDS = [
    *([flag] for flag in (
        "--group", "--gens", "--homs-to", "--check", "dot", "json", "--pentacle",
        "--hypercube", "--file", "--props", "--dom", "--cod", "--dom-gens", "--cod-gens",
        "--fn", "--f", "--at", "--oracle", "--m", "--n", "--json", "--suite", "-h",
    )),
    *([token] for token in (
        "cyclic:1", "s:3", "q:7", "0", "1", "-1", "01", "(1,0)", "r,t", "p", "pq+1",
        "builtin:identity", "poly:p", "paper", "file:missing.json", "missing.json",
        "--", "=", "--group=s:3", "--m=2", "junk",
    )),
    # flag and value pairs, so that some calls get as far as their handler
    ["--group", "s:3"], ["--group", "cyclic:3"], ["--gens", "1"], ["--homs-to", "cyclic:3"],
    ["--hypercube", "2"], ["--dom", "z2^2"], ["--cod", "z2^1"], ["--dom", "s:3"],
    ["--cod", "s:3"], ["--fn", "builtin:zero"], ["--f", "p"], ["--f", "(p, q)"],
    ["--at", "01"], ["--at", "0"], ["--m", "2"], ["--n", "1"],
]


# one small valid call per subcommand; the fuzz edits copies of them
_FUZZ_CALLS = [
    ["group", "--group", "s:3", "--homs-to", "cyclic:3"],
    ["cayley", "--group", "cyclic:3", "dot"],
    ["space", "--hypercube", "2", "--props"],
    ["diffspace", "--dom", "z2^2", "--cod", "z2^1"],
    ["diff", "--dom", "z2^2", "--cod", "z2^1", "--f", "p", "--at", "01"],
    ["bool", "diff", "--m", "2", "--f", "(p, q)", "--at", "01"],
    ["bool", "census", "--m", "2", "--f", "pq+1"],
    ["examples", "--suite", "paper"],
]


def _fuzz_argvs(count: int, seed: int = 2015) -> list[list[str]]:
    """``-h`` on every subcommand, then seeded argvs: half are valid calls
    with up to two tokens dropped or words inserted, half are a head
    followed by random words."""
    rng = random.Random(seed)
    argvs = [[name, "-h"] for name in cli._COMMANDS]
    argvs += [["bool", "diff", "-h"], ["bool", "census", "--help"]]
    while len(argvs) < count:
        if rng.random() < 0.5:
            argv = list(rng.choice(_FUZZ_CALLS))
            for _ in range(rng.randrange(3)):
                at = rng.randrange(len(argv) + 1)
                if rng.random() < 0.5 and at < len(argv):
                    del argv[at]
                else:
                    argv[at:at] = rng.choice(_FUZZ_WORDS)
        else:
            argv = list(rng.choice(_FUZZ_HEADS))
            for _ in range(rng.randrange(7)):
                argv += rng.choice(_FUZZ_WORDS)
        argvs.append(argv)
    return argvs


def _outcome(capsys, argv) -> tuple[int, str, str]:
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_commands_are_the_full_parsers_subcommands():
    actions = cli._build_parser()._actions
    (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(sub.choices) == cli._COMMANDS


def test_cli_grammar_fuzz(capsys, monkeypatch, tmp_path):
    # the single-subcommand parser answers every argv exactly as the
    # full one does: same exit code, same stdout, same stderr
    monkeypatch.chdir(tmp_path)
    build = cli._build_parser
    codes = []
    for argv in _fuzz_argvs(300):
        got = _outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", lambda argv=(): build())
            assert _outcome(capsys, argv) == got, argv
        codes.append(got[0])
    assert set(codes) <= {0, 1, 2}
    assert codes.count(0) >= 20 and codes.count(1) >= 100
