"""End-to-end tests of the command-line interface via run(argv)."""

import gc
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import quditorbits.cli as cli
from quditorbits.cli import run
from quditorbits.orbit_space import ANGLE_CONVENTION
from quditorbits.state_space import (
    bloch_scale,
    check_state_bloch,
    from_bloch,
    haar_unitary,
    sample_states,
    to_bloch,
)
from quditorbits.su_algebra import gell_mann_basis


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("N", [3, 10])
def test_check_maximally_mixed(capsys, N):
    code, out, _ = invoke(capsys, "check", "--N", str(N), "--xi", ",".join(["0"] * (N * N - 1)))
    assert code == 0
    record = json.loads(out)
    assert record["is_state"] is True
    assert record["rank"] == N
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


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["check", "--xi", "0,0,inf"], None, "error: Bloch component xi_3 = inf is not finite"),
        (["check"], '{"xi": [NaN, 0, 0]}', "line 1: Bloch component xi_1 = nan is not finite"),
        (
            ["check"],
            '{"rho": [[[0.5, 0], [Infinity, 0]], [[Infinity, 0], [0.5, 0]]]}',
            "line 1: matrix is not Hermitian: defect nan",
        ),
        (["invariants", "--xi", "nan,0,0"], None, "error: Bloch component xi_1 = nan is not finite"),
        (["invariants", "--spectrum", "nan,0.5,0.5"], None, "error: matrix trace (nan+0j) is not 1"),
        (["param", "--spectrum", "nan,0.5,0.5"], None, "error: spectrum sums to nan, expected 1"),
        (
            ["param", "--N", "3", "--inverse", "--angles", "2", "--r", "inf"],
            None,
            "error: orbit radius must be finite, got inf",
        ),
        (
            ["param", "--N", "3", "--inverse", "--angles", "inf", "--r", "0.5"],
            None,
            "error: orbit angles must be finite, got [inf]",
        ),
        (["check", "--tol", "nan", "--xi", "0,0,0"], None, "error: positivity tolerance nan is not finite"),
        # refused before stdin is read: an empty stream is refused too
        (["check", "--tol", "inf"], "", "error: positivity tolerance inf is not finite"),
        (
            ["param", "--inverse", "--N", "3", "--r", "1.7e308", "--angles", "2"],
            None,
            "error: eigenvalue r_1 of orbit radius 1.7e+308 leaves the float64 range",
        ),
        # finite entries whose differences and sums leave float64
        (["param", "--spectrum", "1e308,-1e308,1"], None, "error: spectrum must be sorted in descending order"),
        (["param", "--spectrum", "1e308,1e308,-1e308"], None, "error: spectrum sums to inf, expected 1"),
    ],
)
def test_non_finite_input_is_refused(capsys, monkeypatch, argv, stdin, message):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin + "\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message)


@pytest.mark.parametrize("enabled", [True, False])
def test_batch_check_pauses_the_collector_per_chunk(capsys, monkeypatch, enabled):
    # each chunk is classified with the cyclic collector paused, and the
    # caller's setting is back between chunks and after the run
    monkeypatch.setattr(cli, "CHECK_CHUNK", 2)
    monkeypatch.setattr("sys.stdin", io.StringIO('{"xi": [0.1, 0, 0]}\n' * 5))
    check_chunk, seen = cli._check_chunk, []

    def spy(*args):
        seen.append(gc.isenabled())
        return check_chunk(*args)

    monkeypatch.setattr(cli, "_check_chunk", spy)
    (gc.enable if enabled else gc.disable)()
    try:
        code, out, _ = invoke(capsys, "check")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert (code, len(out.splitlines())) == (0, 5)
    assert seen == [False] * 3


@pytest.mark.parametrize("enabled", [True, False])
def test_batch_check_restores_the_collector_when_a_chunk_raises(capsys, monkeypatch, enabled):
    def failing(*args):
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(cli, "_check_chunk", failing)
    monkeypatch.setattr("sys.stdin", io.StringIO('{"xi": [0.1, 0, 0]}\n'))
    (gc.enable if enabled else gc.disable)()
    try:
        result = invoke(capsys, "check")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert result == (1, "", "error: chunk failed\n")


def test_check_xi_length_disagreeing_with_n_exits_1(capsys):
    code, out, err = invoke(capsys, "check", "--N", "4", "--xi", ",".join(["0"] * 8))
    assert code == 1
    assert out == ""
    assert "--N 4 disagrees with input dimension 3" in err


def test_check_takes_negative_tolerance_in_exponent_form(capsys):
    # S_2 = 0.9995 * 0.0005 = 5e-4: a state under the default slack, not
    # under --tol -1e-3, which asks for S_k >= 1e-3
    xi = "0,0,0.999"
    assert invoke(capsys, "check", "--xi", xi)[0] == 0
    code, out, err = invoke(capsys, "check", "--tol", "-1e-3", "--xi", xi)
    assert (code, err) == (2, "")
    expected = check_state_bloch(np.array([0.0, 0.0, 0.999]), -1e-3)
    assert json.loads(out) == {
        "is_state": False,
        "rank": expected.rank,
        "stratum": None,
        "margin": expected.margin,
    }


def test_check_takes_bloch_vector_with_negative_first_component(capsys):
    xi = np.zeros(8)
    xi[0] = -0.1
    code, out, err = invoke(capsys, "check", "--xi", "-0.1,0,0,0,0,0,0,0")
    assert (code, err) == (0, "")
    assert json.loads(out)["margin"] == check_state_bloch(xi).margin


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["check", "--xi", "0.1,0,0"], "--tol", "-1e-3"),
        (["check"], "--xi", "-0.1,0,0,0,0,0,0,0"),
        (["check"], "--xi", "-.1,0,0"),
        (["invariants"], "--xi", "-0.2,0,0"),
        (["invariants"], "--spectrum", "-1e-2,0.51,0.5"),
        (["param", "--N", "3", "--inverse", "--r", "0.5"], "--angles", "-1e-1"),
        (["param", "--N", "3", "--inverse", "--angles", "2.0"], "--r", "-1e-1"),
        (["boundary", "--N", "3"], "--r", "-1e-3"),
    ],
)
def test_option_value_may_start_with_minus(capsys, argv, option, value):
    # "--opt value" reads as "--opt=value", which argparse always took
    spaced = invoke(capsys, *argv, option, value)
    assert spaced == invoke(capsys, *argv, f"{option}={value}")
    assert "expected one argument" not in spaced[2]


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


def test_batch_check_counts_float_overflow_as_parse_failure(capsys, monkeypatch):
    # a JSON integer past the float range, followed by a valid record
    lines = ['{"xi": [1' + "0" * 400 + ", 0, 0]}", json.dumps({"xi": [0.0] * 3})]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = invoke(capsys, "check")
    assert code == 1
    assert [json.loads(line)["rank"] for line in out.strip().splitlines()] == [2]
    assert err.splitlines() == ["line 1: int too large to convert to float"]


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


def test_check_huge_record_is_refused_like_single_shot_without_warning(capsys, monkeypatch):
    # t_2 ~ 1e600 leaves float64: an explicit refusal, not a -Infinity margin
    xi = [1e300] + [0.0] * 7
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"xi": xi}) + "\n"))
        batch = invoke(capsys, "check")
        single = invoke(capsys, "check", "--xi", ",".join(repr(x) for x in xi))
        invariants = invoke(capsys, "invariants", "--xi", ",".join(repr(x) for x in xi))
    assert caught == []
    message = "trace of power 2 leaves the float64 range\n"
    assert batch == (1, "", "line 1: " + message)
    assert single == (1, "", "error: " + message)
    assert invariants == (1, "", "error: " + message)


def _s4_overflow_xi() -> list:
    """The Bloch vector of diag(a, -a, a, -a), a^4 = 2.5e307: its t_k are
    finite (t_4 = 1e308), but S_2 t_2 = -8 a^4 overflows in S_4."""
    a = 2.5e307**0.25
    lam = gell_mann_basis(4).elements
    return (np.einsum("ijj,j->i", lam, [a, -a, a, -a]).real / (2 * bloch_scale(4))).tolist()


@pytest.mark.parametrize(
    "xi, message",
    [
        (_s4_overflow_xi(), "characteristic coefficient S_4 leaves the float64 range"),
        ([0, 0, 1.7e308, 0, 0, 0, 0, 1.7e308], "the matrix of the Bloch vector leaves the float64 range"),
    ],
)
def test_check_refuses_a_record_that_leaves_float64(capsys, monkeypatch, xi, message):
    # refused alike in batch, by --xi and by invariants, and under the
    # suite's error::RuntimeWarning, without one
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"xi": xi}) + "\n"))
    assert invoke(capsys, "check") == (1, "", f"line 1: {message}\n")
    csv = ",".join(repr(float(x)) for x in xi)
    assert invoke(capsys, "check", "--xi", csv) == (1, "", f"error: {message}\n")
    assert invoke(capsys, "invariants", "--xi", csv) == (1, "", f"error: {message}\n")


def test_invariants_refuses_a_discriminant_that_leaves_float64(capsys):
    # N = 4: every t_k, S_k and t_k of the extension is finite, det B is not;
    # no "disc": Infinity token is printed
    xi = "0,0,1e30,0,0,0,0,1e30,0,0,0,0,0,0,0"
    assert invoke(capsys, "invariants", "--xi", xi) == (
        1,
        "",
        "error: discriminant leaves the float64 range\n",
    )


def test_invariants_refuses_a_casimir_that_leaves_float64(capsys):
    # N = 3, xi_8 = 1e52: c6 ~ xi^6 overflows in casimirs' matmul; refused,
    # naming it, with no "c6": Infinity token and, under the suite's
    # error::RuntimeWarning, without a warning
    assert invoke(capsys, "invariants", "--xi", "0,0,0,0,0,0,0,1e52") == (
        1,
        "",
        "error: invariant c6 = inf leaves the float64 range\n",
    )


# a verdict's margin is finite: S_k that leave float64 are refused
_EDGE_MARGINS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 0.1, 1.7976931348623157e308]


@pytest.mark.parametrize("is_state", [True, False])
@pytest.mark.parametrize(
    "stratum", [None, "pure", "interior", "boundary-rank-2", "boundary-rank-12"]
)
@settings(max_examples=60, deadline=None)
@given(margin=hst.floats(allow_nan=False, allow_infinity=False), rank=hst.integers(0, 64))
def test_verdict_line_is_json_dumps(is_state, stratum, margin, rank):
    for m in [margin, *_EDGE_MARGINS]:
        fields = {"is_state": is_state, "rank": rank, "stratum": stratum, "margin": m}
        assert cli._verdict_line(is_state, rank, stratum, m) == json.dumps(fields)


def _reference_check(text, N=None):
    """`check`'s (exit code, stdout, stderr) built record by record:
    json.loads, _group_key for the kind, _read_states on a group of one
    (scanning every entry for true and false), check_state_bloch and
    json.dumps."""
    lines, errors = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
            kind = cli._group_key(record)[0]
            stack, _ = cli._read_states(kind, [record], N, literals=True)
            v = check_state_bloch(stack[0] if kind == "xi" else to_bloch(stack[0]))
        except (ValueError, OverflowError, RecursionError) as exc:
            errors.append(f"line {lineno}: {exc}\n")
            continue
        fields = {"is_state": v.is_state, "rank": v.rank, "stratum": v.stratum, "margin": v.margin}
        lines.append(json.dumps(fields))
    out = "\n".join(lines) + "\n" if lines or not errors else ""
    code = 1 if errors else 0 if all(json.loads(line)["is_state"] for line in lines) else 2
    return code, out, "".join(errors)


def _mixed_chunk():
    """Valid records of both kinds at N = 2..5, with every way a record can
    break a group build mixed in."""
    rng = np.random.default_rng(13)
    records = [_state_record(2 + k % 4, rng, "xi" if k % 3 else "rho") for k in range(24)]
    records.append({"xi": (np.asarray(_state_record(3, rng, "xi")["xi"]) * 3.0).tolist()})
    records.append({"N": 4, "xi": _state_record(3, rng, "xi")["xi"]})  # disagreeing "N"
    records.append({"N": 3.0, "xi": _state_record(3, rng, "xi")["xi"]})  # a float "N", refused
    records.append({"xi": [True, 0, 0.5]})  # a bool that numpy would turn into 1.0
    records.append({"rho": [[[1, 0], [0, 0]], [[0, 0], [False, 0]]]})  # int cells and a bool
    records.append({"rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]})  # ragged
    records.append({"rho": [[["a", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]})  # string cell
    records.append({"xi": ["0.1", 0, 0]})  # a numeric string, which numpy would convert
    records.append({"xi": ["a", 0, 0, 0, 0, 0, 0, 0]})
    records.append({"xi": 3})
    records.append([1, 2])
    records.append("x")
    records.append({"xi": [[0.0, 0.0, 0.0]]})  # nested
    records.append({"xi": [None, 0, 0]})  # which numpy would turn into NaN
    records.extend([5, None])
    records.append({"rho": [[[1.0, 0.0]]]})  # N = 1
    records.append({"xi": [0.0] * 5})
    lines = [json.dumps(record) for record in records]
    lines.append('{"xi": [1' + "0" * 400 + ", 0, 0]}")
    lines.append("not json")
    # lines the scanner cannot read whole, which json.loads then refuses
    good = json.dumps(_state_record(2, rng, "xi"))
    lines.append("\ufeff" + good)  # a UTF-8 BOM
    lines.append(good + " x")  # trailing data
    lines.append(good + " " + good)  # two records on one line
    lines.append("[" * 100000)  # nested too deep
    # lines it reads whole, as json.loads does
    lines.append('{"xi": [0.1, 0, 0], "xi": [0.2, 0.1, 0]}')  # the last key wins
    lines.append('{ "xi" :[ 0.1 ,\t0.0 , 0.2 ] }')  # whitespace between the tokens
    lines.append('{"xi": [-Infinity, 0, 0]}')
    order = np.random.default_rng(14).permutation(len(lines))
    return [lines[i] for i in order]


@pytest.mark.parametrize("argv", [[], ["--N", "3"]])
@pytest.mark.parametrize("one_chunk", [True, False])
def test_batch_check_matches_record_by_record_reference(capsys, monkeypatch, argv, one_chunk):
    lines = _mixed_chunk()
    monkeypatch.setattr(cli, "CHECK_CHUNK", len(lines) if one_chunk else 9)
    text = "\n".join(lines) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    N = int(argv[1]) if argv else None
    got = invoke(capsys, "check", *argv)
    assert got == _reference_check(text, N)
    assert got[1].count("\n") >= 5


@pytest.mark.parametrize("one_chunk", [True, False])
def test_batch_check_heads_match_reference_at_every_rank(capsys, monkeypatch, one_chunk):
    # each group holds every (is_state, rank) pair of its N several times,
    # so that most verdict lines are built from a cached head
    rng = np.random.default_rng(22)
    records = []
    for N in range(2, 9):
        for copy in range(4):
            rhos = [np.eye(N) / N]  # the centre I/N
            for r in range(1, N + 1):
                u = haar_unitary(N, rng)
                rhos.append((u * np.r_[rng.dirichlet(np.ones(r)), np.zeros(N - r)]) @ u.conj().T)
            xis = [to_bloch(rho) for rho in rhos]
            xis.append(3.0 * xis[-1])  # not a state
            for xi in xis:
                if copy % 2:
                    rho = from_bloch(xi)
                    records.append({"rho": np.stack([rho.real, rho.imag], -1).tolist()})
                else:
                    records.append({"xi": xi.tolist()})
    text = "\n".join(json.dumps(record) for record in records) + "\n"
    monkeypatch.setattr(cli, "CHECK_CHUNK", len(records) if one_chunk else 9)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    got = invoke(capsys, "check")
    assert got == _reference_check(text)
    strata = {json.loads(line)["stratum"] for line in got[1].splitlines()}
    assert {None, "pure", "interior"} | {f"boundary-rank-{r}" for r in range(2, 8)} <= strata


_XI_ROWS = [  # N = 2 Bloch rows: 3 numbers
    ('["0.1", 0, 0]', 'Bloch component xi_1 = "0.1" is not a number'),
    ("[0, null, 0]", "Bloch component xi_2 = null is not a number"),
    ("[0.1, 0, true]", "Bloch component xi_3 = true is not a number"),
    ("[true, false, false]", "Bloch component xi_1 = true is not a number"),
    ("[0.1, [0, 0], 0]", "xi must be a rectangular list of numbers"),
]
_RHO_ROWS = [  # N = 2 matrices: 2 x 2 [re, im] cells
    ('[[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]', "rho cells must hold numbers"),
    ("[[[0.5, 0], [null, 0]], [[0, 0], [0.5, 0]]]", "rho cells must hold numbers"),
    ("[[[0.5, 0], [0, false]], [[0, 0], [0.5, 0]]]", "rho cells must hold numbers"),
    ("[[[true, false], [false, false]], [[false, false], [true, false]]]", "rho cells must hold numbers"),
    ("[[[0.5, 0], [0, 0]], [[0, 0]]]", "rho must be a rectangular list of numbers"),
]
_N_FIELDS = [  # a record's own "N" beside an N = 2 Bloch row
    ('"2"', 'must be an integer, got "2"'),
    ("true", "must be an integer, got true"),
    ("2.0", "must be an integer, got 2.0"),
    ("[2]", "must be an integer, got [2]"),
    ('{"N": 2}', "must be an integer, got {...}"),
    ("3", "3 disagrees with input dimension 2"),
]


@pytest.mark.parametrize("argv", [[], ["--N", "2"]])
@pytest.mark.parametrize("in_group", [False, True])
@pytest.mark.parametrize(
    "bad, message",
    [('{"xi": %s}' % row, message) for row, message in _XI_ROWS]
    + [('{"rho": %s}' % cells, message) for cells, message in _RHO_ROWS]
    + [('{"N": %s, "xi": [0.1, 0, 0]}' % n, f'record field "N" {message}')
       for n, message in _N_FIELDS]
    + [(line, "state record needs an 'xi' or 'rho' field") for line in ("5", "null", '"xi"')],
)
def test_batch_check_refuses_entries_that_are_not_numbers(
    capsys, monkeypatch, argv, in_group, bad, message
):
    rng = np.random.default_rng(3)
    kind = "rho" if "rho" in bad else "xi"
    valid = [_state_record(2, rng, kind) for _ in range(4)] if in_group else []
    lines = [json.dumps(record) for record in valid[:2]] + [bad]
    lines += [json.dumps(record) for record in valid[2:]]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = invoke(capsys, "check", *argv)
    assert (code, err) == (1, f"line {3 if in_group else 1}: {message}\n")
    expected = []
    for record in valid:
        data = np.asarray(record[kind])
        v = check_state_bloch(data if kind == "xi" else to_bloch(data[..., 0] + 1j * data[..., 1]))
        expected.append(json.dumps(
            {"is_state": v.is_state, "rank": v.rank, "stratum": v.stratum, "margin": v.margin}
        ))
    assert out.splitlines() == expected


def test_batch_check_reports_a_line_nested_too_deep(capsys, monkeypatch):
    lines = ['{"xi": [0.1, 0, 0]}', "[" * 200000, '{"xi": [0.2, 0, 0]}']
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = invoke(capsys, "check")
    assert code == 1
    assert [json.loads(line)["rank"] for line in out.splitlines()] == [2, 2]
    assert len(err.splitlines()) == 1
    assert err.startswith("line 2: maximum recursion depth exceeded")


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
        json.dumps({"N": None, "xi": [0.0] * 3}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, _ = invoke(capsys, "check")
    assert code == 0
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert [v["rank"] for v in verdicts] == [3, 2, 2]


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


def test_param_inverse_refuses_a_negative_radius(capsys):
    # a negative r is no orbit coordinate: refused as boundary refuses it
    code, out, err = invoke(capsys, "param", "--N", "3", "--inverse", "--angles", "2.0", "--r=-0.1")
    assert (code, out) == (1, "")
    assert "orbit radius must be nonnegative, got -0.1" in err
    code, out, err = invoke(capsys, "param", "--N", "3", "--inverse", "--angles", "2.0", "--r", "nan")
    assert (code, out) == (1, "")
    assert "orbit radius must be nonnegative, got nan" in err
    assert invoke(capsys, "boundary", "--N", "3", "--r=-1e-3")[0] == 1

    # a radius beyond the ball is an orbit coordinate whose spectrum is no state
    code, out, _ = invoke(capsys, "param", "--N", "3", "--inverse", "--angles", "2.0", "--r", "1.5")
    assert code == 0
    assert json.loads(out)["valid"] is False


def test_param_requires_input(capsys):
    code, _, err = invoke(capsys, "param", "--N", "3")
    assert code == 1
    assert "spectrum" in err
    code, out, err = invoke(capsys, "param", "--inverse", "--N", "3", "--angles", "2.0")
    assert (code, out, err) == (1, "", "error: param --inverse needs --r\n")


def test_param_inverse_needs_n(capsys):
    code, out, err = invoke(capsys, "param", "--inverse", "--angles", "2.0", "--r", "0.5")
    assert (code, out, err) == (1, "", "error: param --inverse needs --N\n")


def test_spectrum_commands_share_the_unit_trace_tolerance(capsys):
    # TRACE_TOL = 1e-10: a 5e-10 excess is refused by both, a 5e-11 one taken by both
    for command in ("invariants", "param"):
        code, out, err = invoke(capsys, command, "--spectrum", "0.6,0.4000000005")
        assert (code, out) == (1, "")
        assert "1.0000000005" in err
        assert invoke(capsys, command, "--spectrum", "0.6,0.40000000005")[0] == 0
    code, _, err = invoke(capsys, "param", "--N", "3", "--spectrum", "0.6,0.4")
    assert (code, err) == (1, "error: --N 3 disagrees with input dimension 2\n")


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
    # at r = 0 the report is the point I/3, on no rank-deficient stratum:
    # no rank2_phi and no effective radius
    code, out, err = invoke(capsys, "boundary", "--N", "3", "--r", "0")
    assert (code, err) == (0, "")
    third = 1.0 / 3.0
    assert json.loads(out) == {
        "N": 3,
        "r": 0.0,
        "circle_radius": 0.0,
        "center": [third] * 3,
        "kind": "point",
        "phi_range": None,
        "arc_angle": 0.0,
        "endpoints": [[third] * 3],
    }


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


@pytest.mark.parametrize("r", ["0", "-0"])
def test_figure_arc_at_the_centre_is_refused(capsys, r):
    # at r = 0 the arc is the point I/3, which has no angle phi: one error
    # line, no output, no traceback
    code, out, err = invoke(capsys, "figure", "--name", "qutrit-arc", "--r", r)
    assert code == 1
    assert out == ""
    assert err == "error: qutrit-arc at r = 0 is the point I/3, which has no angle phi\n"


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


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize(
    "argv, stdin, expected",
    [
        (["check"], "", ""),
        (["check"], "\n  \n", ""),
        (["check", "--N", "3"], "", ""),
        (["sample", "--N", "3", "--count", "0"], "", ""),
        # a CSV header is a line of its own
        (["sample", "--N", "2", "--count", "0", "--csv"], "", "xi_1,xi_2,xi_3\n"),
    ],
    ids=["check", "check-blank-lines", "check-N", "sample", "sample-csv"],
)
def test_zero_records_print_nothing(tmp_path, capsys, monkeypatch, argv, stdin, expected, to_file):
    # no record is no line, not one blank line
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    target = tmp_path / "out.txt"
    code, out, err = invoke(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (code, err) == (0, "")
    if to_file:
        assert (out, target.read_text()) == ("", expected)
    else:
        assert out == expected


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
