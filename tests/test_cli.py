"""Tests for the batch front end."""

import csv
import io
import json
import math

import pytest

from qscreen import cli
from qscreen.cli import (
    RunConfig,
    _parse_ints,
    cmd_eval,
    format_rows,
    load_config,
    main,
    vector_from_spec,
)
from qscreen.uqsl2 import hwv_pair, is_hwv


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
    n = len(header) - 7
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
    values = load_config(path)
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
        load_config(path)
    path.write_text("dims 2,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.cfg:1: expected key=value"):
        load_config(path)
    path.write_text("seed = soon\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.cfg:1: bad value for 'seed'"):
        load_config(path)


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


def test_eval_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "eval", "--x", "0,1")
    assert code == 2
    assert "vector spec or screening counts" in err
    code, _, err = run(capsys, "eval", "--vector", "hwv_pair:2,2,1")
    assert code == 2
    assert "no evaluation points" in err


def test_eval_round_trip_is_exact(tmp_path):
    config = RunConfig(
        command="eval",
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


def test_verify_failure_gives_nonzero_exit(capsys):
    code, out, _ = run(capsys, "verify", "reduction", "--tol", "1e-30")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False


def test_verify_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "cyclic", "--out", str(out_path))
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["passed"] is True


# -- dump-basis ------------------------------------------------------------


def test_dump_basis_counts(capsys):
    code, out, _ = run(capsys, "dump-basis", "--dims", "2,2", "--d", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    code, out, _ = run(capsys, "dump-basis", "--dims", "2,2,2,2", "--d", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, out, _ = run(capsys, "dump-basis", "--dims", "2,2", "--d", "4")
    assert code == 0
    assert out.strip() == ""


def test_dump_basis_json(capsys):
    code, out, _ = run(
        capsys, "dump-basis", "--dims", "2,2,2,2", "--d", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert len(payload["basis"]) == 2


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


def test_removed_quadrature_flags_are_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--quad-order", "4", "--x", "0,1"])
