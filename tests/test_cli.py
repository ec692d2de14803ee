"""End-to-end tests of the command-line interface via run(argv)."""

import io
import json
import math
import warnings

import numpy as np
import pytest

import quditorbits.cli as cli
from quditorbits.cli import run
from quditorbits.orbit_space import ANGLE_CONVENTION
from quditorbits.state_space import check_state_bloch, sample_states, to_bloch


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_maximally_mixed(capsys):
    code, out, _ = invoke(capsys, "check", "--N", "3", "--xi", ",".join(["0"] * 8))
    assert code == 0
    record = json.loads(out)
    assert record["is_state"] is True
    assert record["rank"] == 3
    assert record["stratum"] == "interior"


def test_check_non_state_exits_2(capsys):
    xi = ["0"] * 8
    xi[2] = "1.2"
    code, out, _ = invoke(capsys, "check", "--N", "3", "--xi", ",".join(xi))
    assert code == 2
    assert json.loads(out)["is_state"] is False


def test_check_bad_xi_exits_1(capsys):
    code, _, err = invoke(capsys, "check", "--N", "3", "--xi", "0,0,nope")
    assert code == 1
    assert err


def test_check_xi_length_disagreeing_with_n_exits_1(capsys):
    code, out, err = invoke(capsys, "check", "--N", "4", "--xi", ",".join(["0"] * 8))
    assert code == 1
    assert out == ""
    assert "--N 4 disagrees with input dimension 3" in err


def test_batch_check_counts_wrong_dimension_as_parse_failure(capsys, monkeypatch):
    lines = [
        json.dumps({"xi": [0.0] * 8}),
        json.dumps({"xi": [0.0] * 3}),
        json.dumps({"rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}),
        json.dumps({"N": 4, "xi": [0.0] * 8}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = invoke(capsys, "check", "--N", "3")
    assert code == 1
    assert [json.loads(line)["rank"] for line in out.strip().splitlines()] == [3]
    assert "line 2: --N 3 disagrees with input dimension 2" in err
    assert "line 3: --N 3 disagrees with input dimension 2" in err
    assert 'line 4: record field "N" 4 disagrees with input dimension 3' in err


def test_batch_check_reports_malformed_rho_cells(capsys, monkeypatch):
    lines = [
        json.dumps({"rho": [[[0.5]]]}),
        json.dumps({"rho": [[[0.5, 0.0, 9.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]]}),
        json.dumps({"rho": [[["a", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}),
        json.dumps({"xi": [0.0] * 8}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = invoke(capsys, "check")
    assert code == 1
    assert [json.loads(line)["rank"] for line in out.strip().splitlines()] == [3]
    assert err.splitlines() == [
        "line 1: rho must be N x N [re, im] cells, got shape (1, 1, 1)",
        "line 2: rho must be N x N [re, im] cells, got shape (2, 2, 3)",
        "line 3: rho cells must hold numbers",
    ]


def _state_record(N, rng, kind):
    rho = sample_states(N, 1, seed=int(rng.integers(2**31)))[0]
    if kind == "xi":
        return {"xi": to_bloch(rho).tolist()}
    return {"rho": np.stack([rho.real, rho.imag], -1).tolist()}


def test_batch_check_keeps_input_order_across_chunks(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CHECK_CHUNK", 7)
    rng = np.random.default_rng(31)
    lines, expected, bad_lines = [], [], []
    for k in range(40):
        lineno = len(lines) + 1
        if k % 9 == 4:
            lines.append(json.dumps({"xi": [0.0] * 5}))
            bad_lines.append(f"line {lineno}: Bloch vector length 5 is not N^2 - 1 for any N >= 2")
        elif k % 9 == 7:
            lines.append('{"rho": ')
            bad_lines.append(f"line {lineno}: ")
        else:
            record = _state_record(2 + k % 3, rng, "xi" if k % 2 else "rho")
            if k % 5 == 0:  # not a state: push one Bloch component out
                record = {"xi": (np.asarray(_state_record(3, rng, "xi")["xi"]) * 3.0).tolist()}
            lines.append(json.dumps(record))
            if "xi" in record:
                expected.append(check_state_bloch(np.asarray(record["xi"])))
            else:
                cells = np.asarray(record["rho"])
                rho = np.zeros(cells.shape[:2], dtype=complex)
                rho.real, rho.imag = cells[..., 0], cells[..., 1]
                expected.append(check_state_bloch(to_bloch(rho)))
        if k % 6 == 0:
            lines.append("")  # blank lines are skipped but counted
    assert len(lines) > 3 * cli.CHECK_CHUNK
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = invoke(capsys, "check")
    assert code == 1
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert [(v["is_state"], v["rank"], v["stratum"], v["margin"]) for v in verdicts] == [
        (e.is_state, e.rank, e.stratum, e.margin) for e in expected
    ]
    assert not all(v["is_state"] for v in verdicts)
    errors = err.splitlines()
    assert len(errors) == len(bad_lines)
    assert all(got.startswith(want) for got, want in zip(errors, bad_lines))


def test_check_huge_record_matches_single_shot_without_warning(capsys, monkeypatch):
    xi = [1e300] + [0.0] * 7
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"xi": xi}) + "\n"))
        batch = invoke(capsys, "check")
        single = invoke(capsys, "check", "--xi", ",".join(repr(x) for x in xi))
    assert caught == []
    assert batch == single
    code, out, err = batch
    assert code == 2
    assert err == ""
    assert json.loads(out)["is_state"] is False


def test_unknown_command_exits_1(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 1


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_missing_required_flag_exits_1(capsys):
    code, _, _ = invoke(capsys, "basis")
    assert code == 1


def test_batch_check_stdin(capsys, monkeypatch):
    lines = [
        json.dumps({"N": 3, "xi": [0.0] * 8}),
        json.dumps({"N": 2, "rho": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, _ = invoke(capsys, "check")
    assert code == 0
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert [v["rank"] for v in verdicts] == [3, 2]


def test_batch_check_flags_non_state(capsys, monkeypatch):
    xi = [0.0] * 8
    xi[0] = 1.5
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"N": 3, "xi": xi}) + "\n"))
    code, out, _ = invoke(capsys, "check")
    assert code == 2
    assert json.loads(out)["is_state"] is False


def test_batch_check_malformed_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("this is not json\n"))
    code, _, err = invoke(capsys, "check")
    assert code == 1
    assert "line 1" in err


def test_param_forward_and_inverse_round_trip(capsys):
    code, out, _ = invoke(capsys, "param", "--N", "4", "--spectrum", "0.4,0.3,0.2,0.1")
    assert code == 0
    record = json.loads(out)
    assert record["N"] == 4
    assert len(record["angles"]) == 2
    assert record["convention"] == ANGLE_CONVENTION

    code, out, _ = invoke(
        capsys,
        "param",
        "--N",
        "4",
        "--inverse",
        "--r",
        repr(record["radius"]),
        "--angles",
        ",".join(repr(a) for a in record["angles"]),
    )
    assert code == 0
    back = json.loads(out)
    assert back["valid"] is True
    assert np.max(np.abs(np.array(back["spectrum"]) - [0.4, 0.3, 0.2, 0.1])) < 1e-10


def test_param_requires_input(capsys):
    code, _, err = invoke(capsys, "param", "--N", "3")
    assert code == 1
    assert "spectrum" in err


def test_invariants_record_fields(capsys):
    code, out, _ = invoke(capsys, "invariants", "--spectrum", "0.5,0.3,0.2")
    assert code == 0
    record = json.loads(out)
    assert record["N"] == 3
    assert record["t"][0] == pytest.approx(1.0)
    assert record["t"][1] == pytest.approx(0.25 + 0.09 + 0.04)
    assert record["S"][0] == pytest.approx(1.0)
    assert record["bezoutian_rank"] == 3
    assert set(record["casimirs"]) == {"c2", "c3", "c4", "c5", "c6"}
    assert record["disc"] == pytest.approx(
        (0.5 - 0.3) ** 2 * (0.5 - 0.2) ** 2 * (0.3 - 0.2) ** 2, rel=1e-8
    )


def test_invariants_from_xi_matches_spectrum(capsys):
    # diag(0.6, 0.4) = I/2 + 0.1 sigma_z and the N=2 scale is 1/2, so xi_3 = 0.2
    code, out_spec, _ = invoke(capsys, "invariants", "--spectrum", "0.6,0.4")
    code2, out_xi, _ = invoke(capsys, "invariants", "--xi", "0,0,0.2")
    assert code == code2 == 0
    a, b = json.loads(out_spec), json.loads(out_xi)
    assert a["t"] == pytest.approx(b["t"], abs=1e-12)
    assert a["disc"] == pytest.approx(b["disc"], abs=1e-12)


def test_invariants_requires_exactly_one_input(capsys):
    code, _, err = invoke(capsys, "invariants", "--spectrum", "0.6,0.4", "--xi", "0,0,0.2")
    assert code == 1


def test_boundary_qutrit(capsys):
    code, out, _ = invoke(capsys, "boundary", "--N", "3", "--r", "0.8")
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "arc truncated by r_3 = 0"
    assert record["rank2_phi"] == pytest.approx(3.0 * math.asin(1.0 / 1.6))
    assert record["effective_qubit_radius"] == pytest.approx(
        (2.0 / math.sqrt(3.0)) * math.sqrt(0.64 - 0.25)
    )


def test_boundary_quatrit(capsys):
    code, out, _ = invoke(capsys, "boundary", "--N", "4", "--r", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["n_vertices"] == 4
    assert record["rank3_cos_theta"] == pytest.approx(2.0 / 3.0)
    assert "effective_qubit_radius" not in record  # r < 1/sqrt(3)
    assert record["transition_radii"][0] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_sample_json_deterministic(capsys):
    code, out1, _ = invoke(capsys, "sample", "--N", "3", "--count", "4", "--seed", "9")
    code2, out2, _ = invoke(capsys, "sample", "--N", "3", "--count", "4", "--seed", "9")
    assert code == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(records) == 4
    assert all(len(r["xi"]) == 8 for r in records)


def test_sample_csv_shape(capsys):
    code, out, _ = invoke(
        capsys, "sample", "--N", "2", "--count", "3", "--seed", "1", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi_1,xi_2,xi_3"
    assert len(lines) == 4


def test_sample_pipes_into_batch_check(capsys, monkeypatch):
    code, out, _ = invoke(capsys, "sample", "--N", "3", "--count", "5", "--seed", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = invoke(capsys, "check")
    assert code == 0
    assert all(json.loads(line)["is_state"] for line in out2.strip().splitlines())


def test_figure_triangle_header_and_membership(capsys):
    code, out, _ = invoke(
        capsys, "figure", "--name", "qutrit-triangle", "--samples", "200", "--seed", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# figure=qutrit-triangle")
    assert ANGLE_CONVENTION in lines[0]
    assert lines[1] == "I3,I8"
    pts = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert len(pts) == 200
    tol = 1e-9
    assert np.all(pts[:, 0] >= -tol)
    assert np.all(pts[:, 0] <= math.sqrt(3.0) / 2.0 + tol)
    assert np.all(pts[:, 1] >= pts[:, 0] / math.sqrt(3.0) - tol)
    assert np.all(pts[:, 1] <= 0.5 + tol)


def test_figure_rank2_curve(capsys):
    code, out, _ = invoke(
        capsys, "figure", "--name", "qutrit-rank2-curve", "--samples", "50"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "phi,r"
    first = [float(x) for x in lines[2].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first == pytest.approx([math.pi / 2.0, 1.0])
    assert last == pytest.approx([3.0 * math.pi / 2.0, 0.5])


def test_figure_arc_columns(capsys):
    code, out, _ = invoke(
        capsys, "figure", "--name", "qutrit-arc", "--samples", "20", "--r", "0.8"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "phi,r1,r2,r3"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert np.all(np.abs(rows[:, 1:].sum(axis=1) - 1.0) < 1e-12)


def test_figure_quatrit_slice(capsys):
    code, out, _ = invoke(
        capsys, "figure", "--name", "quatrit-slice", "--samples", "50", "--seed", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "I3,I8,I15"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert np.all(np.abs(rows[:, 2] - 1.0 / 3.0) < 1e-12)


def test_figure_polyhedron_json(capsys):
    code, out, _ = invoke(capsys, "figure", "--name", "quatrit-polyhedron", "--r", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["figure"] == "quatrit-polyhedron"
    assert record["convention"] == ANGLE_CONVENTION
    assert record["n_vertices"] == 4


def test_figure_polyhedron_csv(capsys):
    code, out, _ = invoke(
        capsys, "figure", "--name", "quatrit-polyhedron", "--r", "0.5", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "vertex,r1,r2,r3,r4"
    assert len(lines) == 2 + 4


def test_figure_unknown_name(capsys):
    code, _, err = invoke(capsys, "figure", "--name", "nope")
    assert code == 1
    assert "unknown figure" in err


def test_figure_deterministic(capsys):
    args = ("figure", "--name", "qutrit-triangle", "--samples", "64", "--seed", "11")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "basis.json"
    code, out, _ = invoke(capsys, "basis", "--N", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text())
    assert record["N"] == 2
    assert record["cartan_indices"] == [3]


def test_basis_json(capsys):
    code, out, _ = invoke(capsys, "basis", "--N", "3")
    assert code == 0
    record = json.loads(out)
    assert len(record["elements"]) == 8
    # lambda_1 row-major: entries (1,2) and (2,1) are 1
    assert record["elements"][0][1] == [1.0, 0.0]


def test_tensors_json_and_csv(capsys):
    code, out, _ = invoke(capsys, "tensors", "--N", "3")
    assert code == 0
    record = json.loads(out)
    d338 = [e for e in record["d"] if (e["i"], e["j"], e["k"]) == (3, 3, 8)]
    assert len(d338) == 1
    assert d338[0]["value"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    code, out, _ = invoke(capsys, "tensors", "--N", "2", "--csv")
    lines = out.strip().splitlines()
    assert lines[0] == "kind,i,j,k,value"
    assert lines[1].startswith("f,1,2,3,")
