"""Command-line surface for the library.

Subcommands: basis, tensors, check, invariants, param, boundary, sample,
figure.  Output is JSON on stdout unless --csv selects CSV (figure data
defaults to CSV, the polyhedron report to JSON).  Exit codes: 0 success,
1 parse or input error, 2 "valid run but the input is not a state" for
`check`.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import invariants as inv
from . import orbit_space as orb
from . import state_space as st
from .su_algebra import (
    algebra_tensors,
    basis_to_json,
    gell_mann_basis,
    tensors_to_json,
)

DEFAULT_SEED = 0

# Records that batch `check` reads before it classifies them together.
CHECK_CHUNK = 512


def _dumps(payload) -> str:
    # default sees only what json cannot encode: numpy arrays, and numpy
    # scalars other than np.float64, which subclasses float
    return json.dumps(payload, default=lambda o: o.tolist())


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {what} {text!r}: {exc}") from None
    return np.array(values)


def _emit(lines, out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return repr(float(x))


def _verdict_line(is_state: bool, rank: int, stratum: str | None, margin: float) -> str:
    """The bytes of json.dumps({"is_state": ..., "rank": ..., "stratum": ...,
    "margin": ...}), formatted without building the dict."""
    text = float.__repr__(margin)
    if text[-1] in "nf":  # json.dumps spells nan, inf and -inf its own way
        text = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text]
    return '{"is_state": %s, "rank": %d, "stratum": %s, "margin": %s}' % (
        "true" if is_state else "false",
        rank,
        "null" if stratum is None else f'"{stratum}"',
        text,
    )


def _cmd_basis(args) -> int:
    basis = gell_mann_basis(args.N)
    _emit([_dumps(basis_to_json(basis))], args.out)
    return 0


def _cmd_tensors(args) -> int:
    tensors = algebra_tensors(args.N)
    if args.csv:
        lines = ["kind,i,j,k,value"]
        payload = tensors_to_json(tensors)
        for kind in ("d", "f"):
            for entry in payload[kind]:
                lines.append(
                    f"{kind},{entry['i']},{entry['j']},{entry['k']},{_fmt(entry['value'])}"
                )
        _emit(lines, args.out)
    else:
        _emit([_dumps(tensors_to_json(tensors))], args.out)
    return 0


def _require_dim(expected, N: int, source: str = "--N") -> None:
    if expected is not None and expected != N:
        raise ValueError(f"{source} {expected!r} disagrees with input dimension {N}")


def _require_numbers(kind: str, fields: list) -> None:
    """Raise for the first entry of the fields that is no JSON number."""
    for row in np.array(fields, dtype=object).reshape(len(fields), -1).tolist():
        for k, v in enumerate(row):
            if type(v) is not float and type(v) is not int:  # bool subclasses int
                if kind == "rho":
                    raise ValueError("rho cells must hold numbers")
                shown = "{...}" if type(v) is dict else json.dumps(v)
                raise ValueError(f"Bloch component xi_{k + 1} = {shown} is not a number")


def _read_states(kind: str, records: list, N: int | None, literals: bool = False) -> tuple:
    """(stack, dimension) from the kind ("xi" or "rho") fields of B records,
    in one np.array call: the (B, N^2 - 1) Bloch rows or (B, N, N)
    matrices that st._stack_columns takes.  Owns every rule about a field,
    checked in this order: one rectangular array, of the kind's shape;
    JSON numbers only (numpy turns true and false into numbers beside
    other numbers, so they are looked for only if the caller saw such a
    literal in the records' text); floats; N agreeing with --N and each
    record's "N"; N >= 2.  The first broken rule raises (ValueError, or
    OverflowError past the float range), worded for one record: a group
    that fails is read again one record at a time."""
    fields = [record[kind] for record in records]
    try:
        cells = np.array(fields)
    except ValueError:  # ragged, or nested past numpy's limit
        raise ValueError(f"{kind} must be a rectangular list of numbers") from None
    shape = cells.shape[1:]  # each record's
    if kind == "xi":
        dim = st.dim_from_bloch(cells[0, ...])  # an array even for a scalar field
    elif len(shape) != 3 or shape[1:] != (shape[0], 2):
        raise ValueError(f"rho must be N x N [re, im] cells, got shape {shape}")
    else:
        dim = shape[0]
    if literals or cells.dtype.kind not in "iuf":
        _require_numbers(kind, fields)
    stack = np.ascontiguousarray(cells, dtype=float)
    _require_dim(N, dim)
    for record in records:
        _require_dim(record.get("N"), dim, 'record field "N"')
    if kind == "xi":
        return stack, dim
    if dim < 2:
        raise ValueError("need N >= 2")
    return stack.view(complex)[..., 0], dim


def _group_key(record) -> tuple:
    """(kind, list length) of a state record, or (kind, None) if its field
    is no list: a group the reader refuses by shape, so that each of its
    records is read alone.  Raises if the record is no JSON object with an
    "xi" or "rho" field."""
    if type(record) is dict:
        for kind in ("xi", "rho"):
            if kind in record:
                field = record[kind]
                return kind, len(field) if type(field) is list else None
    raise ValueError("state record needs an 'xi' or 'rho' field")


def _check_chunk(chunk: list, N: int | None, tol: float) -> tuple:
    """Verdict lines, in input order, and (line number, error) failures for
    one chunk of (line number, text) records.

    Each line is parsed with one json.loads; a line that does not parse,
    nested too deep included, or is no state record is a failure.  The
    records are grouped by kind and list length (_group_key); _read_states
    reads each group into one array, classified in one stacked pass.  A
    group the reader refuses is read again one record at a time: its bad
    records become failures with the reader's message, and its good ones
    are classified together.
    """
    failures = []
    groups = {}
    for i, (lineno, raw) in enumerate(chunk):
        try:
            record = json.loads(raw)
            key = _group_key(record)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            failures.append((lineno, exc))
            continue
        groups.setdefault(key, []).append((i, record))
    # Each true holds a "u" and each false an "l", and no number or key of a
    # state record holds either: two one-character searches, a few us a chunk.
    text = "\n".join([raw for _, raw in chunk])
    literals = "u" in text or "l" in text
    lines = [None] * len(chunk)
    any_invalid = False
    for (kind, _), members in groups.items():
        try:
            stack, dim = _read_states(kind, [record for _, record in members], N, literals)
        except (ValueError, OverflowError):
            parsed = []
            for i, record in members:
                try:
                    one, dim = _read_states(kind, [record], N, literals)
                except (ValueError, OverflowError) as exc:
                    failures.append((chunk[i][0], exc))
                else:
                    parsed.append((i, one))
            if not parsed:
                continue
            members = parsed
            stack = np.concatenate([one for _, one in parsed])
        is_state, rank, margin, errors = st._stack_columns(stack, dim, tol)
        for b, (i, _) in enumerate(members):
            if b in errors:
                failures.append((chunk[i][0], errors[b]))
                continue
            s, r, m = is_state[b], rank[b], margin[b]
            any_invalid = any_invalid or not s
            lines[i] = _verdict_line(s, r, st._stratum(s, r, dim, m, tol), m)
    failures.sort(key=lambda failure: failure[0])
    return [line for line in lines if line is not None], failures, any_invalid


def _stdin_chunks():
    """(line number, text) of the non-blank stdin lines, CHECK_CHUNK at a time."""
    chunk = []
    for lineno, raw in enumerate(sys.stdin, start=1):
        raw = raw.strip()
        if raw:
            chunk.append((lineno, raw))
        if len(chunk) == CHECK_CHUNK:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _cmd_check(args) -> int:
    tol = args.tol if args.tol is not None else st.POSITIVITY_TOL
    if args.xi is not None:
        xis, _ = _read_states("xi", [{"xi": _parse_floats(args.xi, "--xi")}], args.N)
        # a finite xi whose powers overflow is judged by its values, as in
        # batch mode, without a RuntimeWarning
        with np.errstate(all="ignore"):
            v = st.check_state_bloch(xis[0], tol)
        _emit([_verdict_line(v.is_state, v.rank, v.stratum, v.margin)], args.out)
        return 0 if v.is_state else 2

    # batch mode: one JSON state record per stdin line
    lines = []
    any_invalid = False
    parse_failures = 0
    for chunk in _stdin_chunks():
        chunk_lines, failures, chunk_invalid = _check_chunk(chunk, args.N, tol)
        lines += chunk_lines
        any_invalid = any_invalid or chunk_invalid
        for lineno, exc in failures:
            print(f"line {lineno}: {exc}", file=sys.stderr)
        parse_failures += len(failures)
    if lines or not parse_failures:
        _emit(lines, args.out)
    if parse_failures:
        return 1
    return 2 if any_invalid else 0


def _cmd_invariants(args) -> int:
    if (args.xi is None) == (args.spectrum is None):
        raise ValueError("invariants needs exactly one of --xi or --spectrum")
    if args.xi is not None:
        xi = _parse_floats(args.xi, "--xi")
        rho = st.from_bloch(xi)
    else:
        rho = np.diag(_parse_floats(args.spectrum, "--spectrum")).astype(complex)
        xi = st.to_bloch(rho)
    N = rho.shape[0]
    _require_dim(args.N, N)
    t = inv.trace_invariants(rho)
    S = inv.char_coefficients(t)
    record = {
        "N": N,
        "t": [t.t(k) for k in range(1, N + 1)],
        "S": list(S),
        "disc": inv.discriminant(t),
        "bezoutian_rank": inv.bezoutian_rank(inv.bezoutian(t)),
        "casimirs": inv.casimirs(xi, algebra_tensors(N)).as_dict(),
    }
    _emit([_dumps(record)], args.out)
    return 0


def _cmd_param(args) -> int:
    if args.inverse:
        if args.N is None:
            raise ValueError("param --inverse needs --N")
        if args.r is None:
            raise ValueError("param --inverse needs --r")
        angles = _parse_floats(args.angles, "--angles") if args.angles else np.array([])
        coords = orb.OrbitCoordinates(dim=args.N, radius=args.r, angles=angles)
        spec = orb.spectrum_from_orbit(coords)
        record = {
            "N": args.N,
            "spectrum": list(spec.raw),
            "ordered": list(spec.ordered),
            "valid": spec.valid,
            "convention": orb.ANGLE_CONVENTION,
        }
    else:
        if args.spectrum is None:
            raise ValueError("param needs --spectrum (or --inverse with --r/--angles)")
        spectrum = _parse_floats(args.spectrum, "--spectrum")
        _require_dim(args.N, len(spectrum))
        coords = orb.orbit_from_spectrum(spectrum)
        record = {
            "N": coords.dim,
            "radius": coords.radius,
            "angles": list(coords.angles),
            "degenerate_angles": coords.degenerate_angles,
            "convention": coords.convention,
        }
    _emit([_dumps(record)], args.out)
    return 0


def _cmd_boundary(args) -> int:
    N, r = args.N, args.r
    report = orb.intersection_polyhedron(N, r)
    radii = orb.embedded_radii(N, r)  # empty short of every rank-deficient stratum
    if N == 3 and radii:  # where the sphere meets the rank-2 curve
        report["rank2_phi"] = report["phi_range"][1]
    if N == 4 and radii:  # where it meets the rank-3 surface
        report["rank3_cos_theta"] = orb.quatrit_rank3_cos_theta(r)
    for kind, radius in radii.items():
        report[f"effective_{kind.split('-in-')[0]}_radius"] = radius
    _emit([_dumps(report)], args.out)
    return 0


def _cmd_sample(args) -> int:
    states = st.sample_states(args.N, args.count, mode=args.mode, seed=args.seed)
    if args.csv:
        n = args.N * args.N - 1
        lines = [",".join(f"xi_{i}" for i in range(1, n + 1))]
        for rho in states:
            xi = st.to_bloch(rho)
            lines.append(",".join(_fmt(x) for x in xi))
    else:
        lines = [
            _dumps({"N": args.N, "xi": list(st.to_bloch(rho))}) for rho in states
        ]
    _emit(lines, args.out)
    return 0


def _figure_rows(name: str, samples: int, seed: int, r: float):
    """(columns, rows) for the CSV figures; polyhedron handled separately."""
    rng = np.random.default_rng(seed)
    if name == "qutrit-triangle":
        spectra = np.sort(rng.dirichlet(np.ones(3), size=samples), axis=1)[:, ::-1]
        rows = [orb.cartan_moduli(s) for s in spectra]
        return ["I3", "I8"], rows
    if name == "quatrit-slice":
        spectra3 = np.sort(rng.dirichlet(np.ones(3), size=samples), axis=1)[:, ::-1]
        rows = [orb.cartan_moduli(np.append(s3, 0.0)) for s3 in spectra3]
        return ["I3", "I8", "I15"], rows
    if name == "qutrit-rank2-curve":
        phis = np.linspace(np.pi / 2.0, 3.0 * np.pi / 2.0, samples)
        return ["phi", "r"], [[p, orb.rank2_curve_radius(p)] for p in phis]
    if name == "qutrit-arc":
        report = orb.intersection_polyhedron(3, r)
        phi_lo, phi_hi = report["phi_range"]
        phis = np.linspace(phi_lo, phi_hi, samples)
        rows = []
        for p in phis:
            coords = orb.OrbitCoordinates(dim=3, radius=r, angles=np.array([p]))
            rows.append([p, *orb.spectrum_from_orbit(coords).raw])
        return ["phi", "r1", "r2", "r3"], rows
    raise ValueError(
        "unknown figure; expected one of qutrit-triangle, qutrit-rank2-curve, "
        "qutrit-arc, quatrit-slice, quatrit-polyhedron"
    )


def _cmd_figure(args) -> int:
    tag = f"# figure={args.name} convention={orb.ANGLE_CONVENTION}"
    if args.name == "quatrit-polyhedron":
        report = orb.intersection_polyhedron(4, args.r)
        if args.csv:
            lines = [tag, "vertex,r1,r2,r3,r4"]
            for k, v in enumerate(report["vertices"], start=1):
                lines.append(f"{k}," + ",".join(_fmt(x) for x in v))
            _emit(lines, args.out)
        else:
            report["figure"] = args.name
            report["convention"] = orb.ANGLE_CONVENTION
            _emit([_dumps(report)], args.out)
        return 0
    columns, rows = _figure_rows(args.name, args.samples, args.seed, args.r)
    lines = [tag, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _emit(lines, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every word opening with "-" and a digit
    (or "-." and a digit) for a value, not an option, so that --tol -1e-3
    and --xi -0.1,0,... parse.  argparse's own negative-number pattern
    knows neither exponents nor comma lists; no option here looks like a
    number, so nothing else changes.  Subparsers are of the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quditorbits",
        description="su(N) algebra, positivity tests, and orbit-space geometry "
        "of qudit density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_required=True):
        p.add_argument("--N", type=int, required=n_required, help="Hilbert space dimension")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("basis", help="emit the orthogonal Hermitian basis of su(N)")
    add_common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("tensors", help="emit symmetric and antisymmetric structure constants")
    add_common(p)
    p.add_argument("--csv", action="store_true", help="CSV rows kind,i,j,k,value")
    p.set_defaults(func=_cmd_tensors)

    p = sub.add_parser("check", help="decide whether a Bloch vector is a state")
    add_common(p, n_required=False)
    p.add_argument("--xi", help="comma-separated Bloch components (length N^2-1)")
    p.add_argument("--tol", type=float, help="positivity tolerance override")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="trace invariants, coefficients, discriminant, Casimirs")
    add_common(p, n_required=False)
    p.add_argument("--xi", help="comma-separated Bloch components")
    p.add_argument("--spectrum", help="comma-separated eigenvalues summing to 1")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("param", help="spectrum -> (radius, angles) and back with --inverse")
    add_common(p, n_required=False)
    p.add_argument("--spectrum", help="descending eigenvalues summing to 1")
    p.add_argument("--inverse", action="store_true", help="map (r, angles) to a spectrum")
    p.add_argument("--r", type=float, help="orbit radius (with --inverse)")
    p.add_argument("--angles", help="comma-separated angles, phi first (with --inverse)")
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("boundary", help="simplex-sphere intersection and boundary strata")
    add_common(p)
    p.add_argument("--r", type=float, required=True, help="orbit radius in [0, 1]")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("sample", help="draw random states")
    add_common(p)
    p.add_argument("--count", type=int, default=10, help="number of states")
    p.add_argument(
        "--mode",
        default="spectrum-haar",
        choices=["spectrum-haar", "bloch-rejection"],
        help="sampling distribution",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--csv", action="store_true", help="CSV rows of Bloch components")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("figure", help="emit figure data (CSV with header and convention tag)")
    p.add_argument(
        "--name",
        required=True,
        help="qutrit-triangle | qutrit-rank2-curve | qutrit-arc | quatrit-slice | quatrit-polyhedron",
    )
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--r", type=float, default=0.8, help="radius for arc/polyhedron figures")
    p.add_argument("--csv", action="store_true", help="force CSV for the polyhedron report")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_figure)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; map failures to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
