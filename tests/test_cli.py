"""Tests for the batch front end."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from qscreen import cli, uqsl2
from qscreen.cli import (
    RunConfig,
    _parse_ints,
    cmd_eval,
    format_rows,
    load_config,
    main,
    vector_from_spec,
)
from qscreen.correspondence import F_hwv, default_anchor, phi
from qscreen.coulomb import ChamberPoint, eval_stats
from qscreen.uqsl2 import TensorSpace, hwv_pair, hwv_space_basis, is_hwv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(text, fmt):
    """Read back rows emitted by format_rows; floats are bit exact."""
    if fmt == "json":
        return [
            dict(r, dims=tuple(r["dims"]), x=tuple(r["x"])) for r in json.loads(text)
        ]
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return []
    n = len(header) - 10
    return [
        {
            "kappa": float(cells[0]),
            "dims": _parse_ints(cells[1]),
            "config": cells[2],
            "x0": None if cells[3] == "auto" else float(cells[3]),
            "x": tuple(float(c) for c in cells[4 : 4 + n]),
            "re": float(cells[4 + n]),
            "im": float(cells[5 + n]),
            "err_est": float(cells[6 + n]),
            "nodes": int(cells[7 + n]),
            "grids": int(cells[8 + n]),
            "passes": int(cells[9 + n]),
        }
        for cells in reader
    ]


# -- configuration ---------------------------------------------------------


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# two point run\n"
        "kappa = 8.0\n"
        "dims = 2,2\n"
        "\n"
        "x = 0,1 ; 0.3,2.1   # two rows\n"
        "x0 = auto\n"
        "format = json\n",
        encoding="utf-8",
    )
    values = load_config(path, cli._COMMAND_KEYS["eval"])
    assert values == {
        "kappa": 8.0,
        "dims": (2, 2),
        "x": ((0.0, 1.0), (0.3, 2.1)),
        "x0": None,
        "format": "json",
    }


def test_load_config_reports_position(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("kappa = 8\nplume = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.cfg:2: unknown key 'plume'"):
        load_config(path, cli._COMMAND_KEYS["eval"])
    path.write_text("dims 2,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.cfg:1: expected key=value"):
        load_config(path, cli._COMMAND_KEYS["eval"])
    path.write_text("seed = soon\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.cfg:1: bad value for 'seed'"):
        load_config(path, cli._COMMAND_KEYS["verify"])


def test_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "kappa = 8.0\nvector = hwv_pair:2,2,1\nx = 0,1\nformat = json\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "eval", "--config", str(path), "--kappa", "10")
    assert code == 0
    rows = parse_rows(out, "json")
    assert rows[0]["kappa"] == 10.0


# a valid value of every key that some command does not read, and each
# command's argv before its flags
_SAMPLE = {
    "kappa": "8", "dims": "2,2", "vector": "hwv_pair:2,2,1", "l": "0,1", "x": "0,1",
    "x0": "-1", "d": "1", "rel_tol": "1e-9", "tol": "1", "seed": "1", "format": "json",
}
_COMMAND = {"eval": ("eval",), "verify": ("verify", "cyclic"), "dump-basis": ("dump-basis",)}


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command", list(cli._COMMAND_KEYS))
def test_help_lists_exactly_the_keys_a_command_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert listed == {"--help", "--config"} | {_flag(k) for k in cli._COMMAND_KEYS[command]}


def test_top_level_help_lists_the_three_commands(capsys):
    # main builds only the subparser its first argument names, and all of
    # them when it names none
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{eval,verify,dump-basis}" in out
    for command in ("eval", "verify", "dump-basis"):
        assert re.search(rf"^\s+{command}\s+\w", out, re.M), command


def test_an_unknown_command_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--kappa", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument command: invalid choice: 'evaluate'" in err
    assert "'eval', 'verify', 'dump-basis'" in err


def test_verify_help_lists_the_suites(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(cli.SUITES) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("command, key", [
    (command, key) for command, keys in cli._COMMAND_KEYS.items()
    for key in cli._PARSERS if key not in keys
])
def test_commands_refuse_the_keys_they_do_not_read(tmp_path, capsys, command, key):
    # as a flag (no abbreviation either: eval's --dims would take a --d)
    # and as a line of a config file; both exit 2
    with pytest.raises(SystemExit) as exc:
        main([*_COMMAND[command], _flag(key), _SAMPLE[key]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {_flag(key)}" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text(f"# {command}\n{key} = {_SAMPLE[key]}\n", encoding="utf-8")
    code, out, err = run(capsys, *_COMMAND[command], "--config", str(path))
    assert code == 2
    assert out == ""
    assert f"run.cfg:2: unknown key '{key}'" in err


def _outcome(capsys, argv):
    # the exit status, whether main returns it or exits with it, and the
    # text written to stdout and stderr
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_PAIR = ("eval", "--dims", "2,2", "--l", "0,1", "--format", "json")
# (argv, an argv it must read exactly as, or None; its exit status; a
# fragment of what it writes)
_GRAMMAR = {
    "key=value": (("dump-basis", "--dims=2,2", "--format=json"),
                  ("dump-basis", "--dims", "2,2", "--format", "json"), 0, '"count": 1'),
    "negative-values": ((*_PAIR, "--x0", "-2", "--x", "0,1"), (*_PAIR, "--x0=-2", "--x=0,1"),
                        0, '"x0": -2.0'),
    "negative-points": ((*_PAIR, "--x", "-1.5,0.3"), (*_PAIR, "--x=-1.5,0.3"),
                        0, '"x": [\n      -1.5,\n      0.3\n    ]'),
    "last-one-wins": (("dump-basis", "--dims", "2,2", "--dims", "2,2,2,2", "--format", "json"),
                      ("dump-basis", "--dims", "2,2,2,2", "--format", "json"), 0, '"count": 2'),
    "trailing-flag": (("eval", "--x", "0,1", "--kappa"), None, 2,
                      "qscreen eval: error: argument --kappa: expected one argument"),
    "flag-for-value": (("eval", "--kappa", "--x", "0,1"), None, 2,
                       "qscreen eval: error: argument --kappa: expected one argument"),
    "short-help": (("verify", "-h"), ("verify", "--help"), 0, "usage: qscreen verify"),
    "short-top-help": (("-h",), ("--help",), 0, "usage: qscreen [-h]"),
    "second-suite": (("verify", "cyclic", "cyclic"), None, 2, "unrecognized arguments: cyclic"),
    "no-suite": (("verify", "--seed", "1"), None, 2, "the following arguments are required: suite"),
    "no-command": ((), None, 2, "the following arguments are required: command"),
}


@pytest.mark.parametrize("argv, same, status, fragment", _GRAMMAR.values(), ids=list(_GRAMMAR))
def test_the_flag_grammar(capsys, argv, same, status, fragment):
    outcome = _outcome(capsys, argv)
    assert outcome[0] == status
    assert fragment in outcome[1] + outcome[2]
    # an error writes the usage and its message to stderr alone; help and
    # output go to stdout alone
    assert not outcome[1 if status == 2 else 2]
    if same is not None:
        assert _outcome(capsys, same) == outcome


def _values(out):
    return [(r["re"], r["im"], r["err_est"]) for r in json.loads(out)]


def _measures(out):
    # the seed a report echoes and the seconds are left out
    return [(c["name"], c["tolerance"], c["measured"]) for c in json.loads(out)["checks"]]


def _basis_read(out):
    # a dump-basis output read as the format it claims: JSON, or CSV rows
    # under the header vector,index,coefficient; the number of vectors
    if out.startswith("{"):
        return "json", json.loads(out)["count"]
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["vector", "index", "coefficient"]
    return "csv", len({r[0] for r in rows})


def _written(out):
    # stdout and every file written to the working directory, which is
    # then emptied
    files = {}
    for path in sorted(os.listdir()):
        with open(path, encoding="utf-8") as handle:
            files[path] = handle.read()
        os.remove(path)
    return out, files


_VECTOR = ("--vector", "hwv_pair:2,2,1", "--x", "0,1", "--format", "json")
_COUNTS = ("--dims", "2,2", "--l", "1,0", "--x", "0,1", "--format", "json")
# (argv before the key, key, two values, what the key moves)
_MOVES = [
    (("eval", *_VECTOR), "kappa", "8", "10", _values),
    (("eval", "--kappa", "10", "--l", "0,1", "--x", "0,1", "--format", "json"), "dims", "2,2", "2,3",
     _values),
    (("eval", "--x", "0,1", "--format", "json"), "vector", "hwv_pair:2,2,1", "hwv_pair:2,2,0",
     _values),
    (("eval", "--dims", "2,2", "--x", "0,1", "--format", "json"), "l", "1,0", "0,1", _values),
    (("eval", "--vector", "hwv_pair:2,2,1", "--format", "json"), "x", "0,1", "0,2", _values),
    (("eval", *_COUNTS), "x0", "-1", "-2", _values),
    (("eval", *_VECTOR, "--kappa", "8"), "rel_tol", "1e-9", "1e-4", _values),
    (("eval", *_VECTOR), "out", "a.json", "b.json", _written),
    (("eval", "--vector", "hwv_pair:2,2,1", "--x", "0,1"), "format", "csv", "json", _written),
    (("verify", "reduction"), "rel_tol", "1e-9", "1e-6", _measures),
    (("verify", "infinity"), "tol", "1", "2", _measures),
    (("verify", "cov"), "seed", "1", "2", _measures),
    (("verify", "cyclic"), "out", "a.json", "b.json", _written),
    (("dump-basis", "--dims", "2,2"), "d", "1", "3", _written),
    (("dump-basis", "--d", "1"), "dims", "2,2", "2,2,2,2", _written),
    (("dump-basis", "--dims", "2,2"), "out", "a.txt", "b.txt", _written),
    (("dump-basis", "--dims", "2,2"), "format", "csv", "json", _basis_read),
]


def test_the_moves_cover_every_key():
    covered = {}
    for argv, key, *_ in _MOVES:
        covered.setdefault(argv[0], set()).add(key)
    assert covered == {c: set(keys) for c, keys in cli._COMMAND_KEYS.items()}
    # --config aside, 17 settable keys across the three commands
    assert sum(map(len, cli._COMMAND_KEYS.values())) == len(_MOVES) == 17


@pytest.mark.parametrize("argv, key, a, b, moved", _MOVES,
                         ids=[f"{argv[0]}-{key}" for argv, key, *_ in _MOVES])
def test_every_key_a_command_reads_moves_its_output(tmp_path, monkeypatch, capsys,
                                                    argv, key, a, b, moved):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for value in (a, b):
        code, out, _ = run(capsys, *argv, f"{_flag(key)}={value}")
        assert code == 0
        outputs.append(moved(out))
    assert outputs[0] != outputs[1]


# -- vector specs ----------------------------------------------------------


def test_vector_spec_forms():
    assert vector_from_spec("hwv_pair:2,2,1") == hwv_pair(2, 2, 1)
    v = vector_from_spec("trivial:0", (2, 2, 2, 2))
    assert is_hwv(v, 1)
    v = vector_from_spec("hwv:2,0", (2, 2, 2))
    assert is_hwv(v, 2)
    v = vector_from_spec("basis:1,0", (2, 3))
    assert set(v.coeffs) == {(1, 0)}
    v = vector_from_spec("coeffs:0,1=2;1,0=-1", (2, 2))
    assert len(v.coeffs) == 2


def test_vector_spec_rejections():
    with pytest.raises(ValueError, match="kind"):
        vector_from_spec("spiral:1", (2, 2))
    with pytest.raises(ValueError, match="needs dims"):
        vector_from_spec("basis:0,0")
    with pytest.raises(ValueError, match="disagree"):
        vector_from_spec("hwv_pair:2,2,1", (2, 3))
    with pytest.raises(ValueError, match="basis vectors"):
        vector_from_spec("hwv:2,5", (2, 2))
    with pytest.raises(ValueError, match="must be a positive integer"):
        vector_from_spec("hwv:0,0", (2, 2))
    with pytest.raises(ValueError, match="form kind"):
        vector_from_spec("hwv_pair")


# -- eval ------------------------------------------------------------------


def test_eval_two_point_closed_form(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--vector", "hwv_pair:2,2,1",
        "--kappa", "8",
        "--x", "0,1",
        "--format", "json",
    )
    assert code == 0
    row = parse_rows(out, "json")[0]
    assert row["re"] == pytest.approx(math.pi, abs=1e-8)
    assert abs(row["im"]) <= 1e-10
    assert row["err_est"] <= 1e-8
    assert row["dims"] == (2, 2)
    assert row["x0"] is None


def test_eval_rows_report_what_they_summed(capsys):
    # each row carries the node, grid and pass counts of its own
    # eval_stats() block, under CSV columns after err_est and the same
    # JSON keys; a kept result counts the grids it summed at every read,
    # so the counts of a fresh block around the same evaluation are the
    # row's
    argv = ("eval", "--dims", "2,3", "--l", "1,1", "--kappa", "9.4", "--x", "0.2,1.9;0.5,1.7")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header = next(csv.reader(io.StringIO(out)))
    assert header == ["kappa", "dims", "config", "x0", "x_1", "x_2", "re", "im", "err_est",
                      "nodes", "grids", "passes"]
    rows = parse_rows(out, "csv")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and parse_rows(out, "json") == rows
    for row in rows:
        with eval_stats() as stats:
            phi(ChamberPoint(row["x0"] if row["x0"] is not None else default_anchor(row["x"]),
                             row["x"]), (2, 3), (1, 1), 9.4)
        assert (row["nodes"], row["grids"], row["passes"]) == (
            stats.nodes, stats.grid_evals, stats.passes), row
        assert row["nodes"] > 0 and row["passes"] > 0


def test_eval_prefactor_only(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--dims", "2,3",
        "--l", "0,0",
        "--kappa", "10",
        "--x", "0.2,1.4",
        "--format", "json",
    )
    assert code == 0
    row = parse_rows(out, "json")[0]
    assert row["re"] == pytest.approx(1.2 ** 0.4, rel=1e-12)
    assert row["im"] == 0.0
    assert row["config"] == "l=0,0"


def test_eval_saturated_counts_give_zero(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--dims", "2,2",
        "--l", "2,0",
        "--kappa", "10",
        "--x", "0,1;2,5",
        "--format", "json",
    )
    assert code == 0
    for row in parse_rows(out, "json"):
        assert row["re"] == 0.0
        assert row["im"] == 0.0
        assert row["err_est"] == 0.0


def test_eval_refuses_a_row_that_vanishes_within_its_estimate(capsys):
    # the trivial vector's function nearly vanishes here (the row was
    # 1.95e-9+3.38e-9i against an err_est of 1.06e-7 when the plans started
    # from steps of 1/2); the message gives the value and estimate that F
    # returns at the point
    dims, x = (2,) * 6, (0.0, 1.3, 2.0, 3.3, 4.0, 5.3)
    with eval_stats() as stats:
        value = complex(F_hwv(vector_from_spec("trivial:0", dims), x, 6.0, 1e-9))
    assert 0 < abs(value) <= stats.err_est
    code, out, err = run(
        capsys,
        "eval",
        "--kappa", "6",
        "--dims", ",".join(map(str, dims)),
        "--vector", "trivial:0",
        "--x", ",".join(map(str, x)),
    )
    assert code == 3
    assert out == ""
    assert "vanishes within its error estimate" in err
    assert f"|value| = {abs(value):.2e}" in err and f"estimate {stats.err_est:.2e}" in err


def test_eval_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "eval", "--x", "0,1")
    assert code == 2
    assert "vector spec or screening counts" in err
    code, _, err = run(capsys, "eval", "--vector", "hwv_pair:2,2,1")
    assert code == 2
    assert "no evaluation points" in err


def test_eval_tells_no_function_from_two(capsys):
    # neither a vector nor screening counts, and both, each exit 2 with
    # their own message
    code, out, err = run(capsys, "eval", "--x", "0,1")
    assert code == 2 and out == ""
    assert err == "error: give a vector spec or screening counts l\n"
    code, out, err = run(
        capsys, "eval", "--x", "0,1", "--vector", "hwv_pair:2,2,1", "--dims", "2,2", "--l", "0,1"
    )
    assert code == 2 and out == ""
    assert err == "error: give either a vector spec or screening counts l, not both\n"


def test_eval_refuses_an_anchor_for_a_vector(capsys):
    # a highest weight vector's F does not depend on the anchor; an l row
    # takes one and prints it
    code, out, err = run(
        capsys, "eval", "--vector", "hwv_pair:2,2,1", "--kappa", "8", "--x", "0,1", "--x0", "-2"
    )
    assert code == 2
    assert out == ""
    assert "--x0 applies to --l rows only" in err and "does not depend on the anchor" in err
    code, out, _ = run(
        capsys, "eval", "--dims", "2,2", "--l", "0,1", "--kappa", "8", "--x", "0,1", "--x0", "-2",
        "--format", "json",
    )
    assert code == 0
    assert parse_rows(out, "json")[0]["x0"] == -2.0


def test_eval_round_trip_is_exact(tmp_path):
    config = RunConfig(
        kappa=8.0,
        vector="hwv_pair:2,2,1",
        x=((0.0, 1.0), (0.3, 2.1)),
        out=str(tmp_path / "rows.csv"),
        format="csv",
    )
    rows = cmd_eval(config)
    for fmt in ("csv", "json"):
        assert parse_rows(format_rows(rows, fmt), fmt) == rows
    text = (tmp_path / "rows.csv").read_text(encoding="utf-8")
    assert parse_rows(text, "csv") == rows


def test_eval_builds_the_vector_once(monkeypatch, capsys):
    calls = []
    build = cli.hwv_space_basis

    def counted(space, d):
        calls.append((space.dims, d))
        return build(space, d)

    monkeypatch.setattr(cli, "hwv_space_basis", counted)
    code, out, _ = run(
        capsys,
        "eval",
        "--dims", "2,2,2,2",
        "--vector", "trivial:0",
        "--kappa", "10",
        "--x", "0,1,2,4;0,1,2,5;0,1,3,5",
        "--format", "json",
    )
    assert code == 0
    assert len(parse_rows(out, "json")) == 3
    assert calls == [((2, 2, 2, 2), 1)]


# -- verify ----------------------------------------------------------------


@pytest.mark.parametrize(
    "suite", ["qg", "reduction", "pde", "cov", "asy", "infinity", "cyclic"]
)
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == suite
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for check in report["checks"]:
        assert check["passed"] is True


def test_verify_all_collects_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    report = json.loads(out)
    prefixes = {c["name"].split(".")[0] for c in report["checks"]}
    assert prefixes == {"qg", "reduction", "pde", "cov", "asy", "infinity", "cyclic"}


def test_verify_reports_evaluator_calls_and_seconds(capsys):
    # every check reports its seconds; every operator check asks its
    # evaluator once for a jet
    report = {}
    for suite in ("pde", "cov"):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0
        report.update({c["name"]: c for c in json.loads(out)["checks"]})
    costed = {name for name in report
              if name.startswith("pde.") or name.endswith("_generator")}
    assert costed == {
        "pde.bsa_at_d3_points",
        "pde.bsa_at_d4_point",
        "pde.growth_process_equation",
        "pde.operator_proportionality",
        "pde.vertex_prefactor_null",
        "cov.translation_generator",
        "cov.euler_generator",
        "cov.special_conformal_generator",
    }
    for name, check in report.items():
        assert check["seconds"] >= 0.0
        if name in costed:
            assert isinstance(check["evals"], int)
        else:
            assert "evals" not in check
    assert report["pde.growth_process_equation"]["evals"] == 2
    assert report["pde.bsa_at_d3_points"]["evals"] == 3
    assert report["pde.bsa_at_d4_point"]["evals"] == 1
    assert report["cov.translation_generator"]["evals"] == 1
    assert report["cov.euler_generator"]["evals"] == 1
    assert report["cov.special_conformal_generator"]["evals"] == 1
    # 20 random functions, each through the direct equation and the composed
    # operator
    assert report["pde.operator_proportionality"]["evals"] == 40
    assert report["pde.vertex_prefactor_null"]["evals"] == 1


def test_verify_tol_scales_every_upper_tolerance(capsys):
    checks = []
    for flags in ((), ("--tol", "2")):
        code, out, _ = run(capsys, "verify", "cov", *flags)
        assert code == 0
        checks.append({c["name"]: c for c in json.loads(out)["checks"]})
    default, doubled = checks
    assert doubled.keys() == default.keys()
    for name, check in default.items():
        if check["direction"] == "below":
            assert doubled[name]["tolerance"] == 2.0 * check["tolerance"], name
    # a lower bound is not loosened by scaling it
    sensitivity = "cov.rational_identity_sensitivity"
    assert doubled[sensitivity]["direction"] == "above"
    assert doubled[sensitivity]["tolerance"] == default[sensitivity]["tolerance"] == 1e-4


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
def test_verify_bad_tol_exits_2(tmp_path, capsys, bad):
    # inf passes every check whatever it measures; 0, a negative T or nan
    # fails every check that measures anything; 0*inf and 0*nan are nan
    code, out, err = run(capsys, "verify", "cyclic", f"--tol={bad}")
    assert code == 2
    assert out == ""
    assert "--tol" in err
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 1\ntol = {bad}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "cyclic", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "run.cfg:2: bad value for 'tol'" in err


def test_verify_failure_gives_nonzero_exit(capsys):
    code, out, _ = run(capsys, "verify", "reduction", "--tol", "1e-30")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False


def test_verify_reports_no_kappa(capsys):
    # every suite fixes its own kappa, so the report carries none and
    # verify refuses the flag
    code, out, _ = run(capsys, "verify", "cyclic")
    assert code == 0
    assert "kappa" not in json.loads(out)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "cyclic", "--kappa", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kappa 6" in capsys.readouterr().err


def test_verify_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "cyclic", "--out", str(out_path))
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["passed"] is True


# -- dump-basis ------------------------------------------------------------


def test_dump_basis_counts(capsys):
    for dims, d, count in (("2,2", "1", 1), ("2,2,2,2", "1", 2), ("2,2", "4", 0)):
        code, out, _ = run(capsys, "dump-basis", "--dims", dims, "--d", d)
        assert code == 0
        assert _basis_read(out) == ("csv", count), (dims, d)


def test_dump_basis_csv_rows_are_the_coefficients(capsys):
    # one row per nonzero coefficient, (vector, index, coefficient), in
    # the forms that hwv:d,k and basis:l_1,..,l_n read
    code, out, _ = run(capsys, "dump-basis", "--dims", "2,3,2", "--d", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    basis = hwv_space_basis(TensorSpace((2, 3, 2)), 3)
    assert len(basis) == 2
    assert len(rows) == sum(len(v.coeffs) for v in basis)
    for k, v in enumerate(basis):
        mine = {r[1]: r[2] for r in rows if r[0] == str(k)}
        assert mine == {",".join(map(str, idx)): repr(c) for idx, c in v.coeffs.items()}
        assert vector_from_spec(f"hwv:3,{k}", (2, 3, 2)) == v


def test_dump_basis_refuses_a_nonpositive_d(capsys):
    for bad in ("0", "-1"):
        code, out, err = run(capsys, "dump-basis", "--dims", "2,2", f"--d={bad}")
        assert code == 2, bad
        assert out == ""
        assert "must be a positive integer" in err
    code, out, err = run(capsys, "eval", "--dims", "2,2", "--vector", "hwv:0,0", "--x", "0,1")
    assert code == 2
    assert out == ""
    assert "must be a positive integer" in err


def test_dump_basis_json(capsys):
    code, out, _ = run(
        capsys, "dump-basis", "--dims", "2,2,2,2", "--d", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert len(payload["basis"]) == 2


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("dims,d,name", [
    ("3,3,3,3", "3", "dump_basis_3333_d3.json"),
    ("2,2,2,3,3", "2", "dump_basis_22233_d2.json"),
    ("3,3,3,3,3", "1", "dump_basis_33333_d1.json"),
    ("2,2,2,2,2,2,2,2", "1", "dump_basis_22222222_d1.json"),
    ("3,2,2,3,2", "2", "dump_basis_32232_d2.json"),
])
def test_dump_basis_json_is_pinned(capsys, dims, d, name):
    # the first two were recorded from the elimination kernel the fusion
    # basis replaced, the next two from the fusion basis when its final
    # normalization still reduced every entry by a gcd, and the last, in
    # which 26 of the 57 entries have a denominator, from the fusion basis
    # when it still raised its vectors with act("F") on QScalars
    code, out, _ = run(capsys, "dump-basis", "--dims", dims, "--d", d,
                       "--format", "json")
    assert code == 0
    with open(os.path.join(DATA, name), "rb") as handle:
        assert out.encode("utf-8") == handle.read()


def test_cached_fusion_maps_are_never_changed(capsys):
    # the fusion cache hands every caller the same maps: (3,)^4 with d = 3
    # reads the head maps (3,)^5 with d = 1 was built from, and a change
    # to them would show in the second build of (3,)^5
    uqsl2._fused_hwvs.cache_clear()
    builds = []
    for dims, d, name in (("3,3,3,3,3", "1", "dump_basis_33333_d1.json"),
                          ("3,3,3,3", "3", "dump_basis_3333_d3.json"),
                          ("3,3,3,3,3", "1", "dump_basis_33333_d1.json")):
        code, out, _ = run(capsys, "dump-basis", "--dims", dims, "--d", d,
                           "--format", "json")
        assert code == 0
        with open(os.path.join(DATA, name), "rb") as handle:
            assert out.encode("utf-8") == handle.read()
        builds.append(out)
    assert builds[0] == builds[2]
    assert uqsl2._fused_hwvs.cache_info().hits > 0


# -- error paths -----------------------------------------------------------


def test_bad_flag_value_reports_and_exits(capsys):
    code, _, err = run(capsys, "eval", "--format", "xml", "--x", "0,1")
    assert code == 2
    assert "error:" in err
    assert "--format" in err


def test_eval_unreachable_rel_tol_exits_3(capsys):
    code, out, err = run(
        capsys,
        "eval",
        "--dims", "4,4",
        "--l", "0,3",
        "--kappa", "12.5",
        "--x", "0.37,1.61",
        "--rel-tol", "1e-15",
    )
    assert code == 3
    assert out == ""
    assert "numeric failure" in err
    assert "l=3" in err


def test_eval_bad_rel_tol_exits_2(capsys):
    # (2, 0) on dims (2, 2) vanishes exactly and runs no integral, so the
    # flag itself must be refused
    for bad in ("0", "-1e-9", "nan", "inf"):
        code, out, err = run(
            capsys, "eval", "--dims", "2,2", "--l", "2,0", "--x", "0,1", f"--rel-tol={bad}"
        )
        assert code == 2, bad
        assert out == ""
        assert "--rel-tol" in err


def test_eval_bad_kappa_exits_2(capsys):
    # at kappa = inf the exact weights sit at q = 1 and the integrals at
    # zero exponents: the flag is refused, not evaluated to 0
    for bad in ("inf", "0", "-8", "nan"):
        code, out, err = run(
            capsys, "eval", "--kappa", bad, "--dims", "2,2", "--l", "0,1", "--x", "0,1"
        )
        assert code == 2, bad
        assert out == ""
        assert "--kappa" in err


def test_cli_import_leaves_scipy_unloaded():
    # and an eval, flags read and all, loads neither argparse nor the
    # gettext it imports
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import contextlib, io, sys, qscreen.cli\n"
        "print('scipy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = qscreen.cli.main(['eval', '--vector', 'hwv_pair:2,2,1', '--kappa', '8',"
        " '--x', '0,1'])\n"
        "print(status, 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "0", "False", "False"]


def test_removed_quadrature_flags_are_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--quad-order", "4", "--x", "0,1"])
