"""Command-line surface for the library.

Subcommands: basis, tensors, check, invariants, param, boundary, sample,
figure.  Output is JSON on stdout unless --csv selects CSV (figure data
defaults to CSV, the polyhedron report to JSON).  Exit codes: 0 success,
1 parse or input error, 2 "valid run but the input is not a state" for
`check`.
"""

from __future__ import annotations

import argparse
import json
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


class _NumpyEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.bool_):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def _dumps(payload) -> str:
    return json.dumps(payload, cls=_NumpyEncoder)


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


def _verdict_record(c: st.StateClassification) -> dict:
    return {
        "is_state": bool(c.is_state),
        "rank": int(c.rank),
        "stratum": c.stratum,
        "margin": float(c.margin),
    }


def _rho_from_record(record: dict) -> np.ndarray:
    data = record["rho"]
    rho = np.array([[complex(cell[0], cell[1]) for cell in row] for row in data])
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    return rho


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


def _require_dims(record: dict, N: int | None, dim: int) -> None:
    _require_dim(N, dim)
    _require_dim(record.get("N"), dim, 'record field "N"')


def _check_one_record(record: dict, tol: float, N: int | None) -> st.StateClassification:
    if "xi" in record:
        xi = np.asarray(record["xi"], dtype=float)
        # check_state_bloch itself rejects an xi that is not one-dimensional
        if xi.ndim == 1:
            _require_dims(record, N, st.dim_from_bloch(xi))
        return st.check_state_bloch(xi, tol=tol)
    if "rho" in record:
        rho = _rho_from_record(record)
        _require_dims(record, N, rho.shape[0])
        return st.check_state_bloch(st.to_bloch(rho), tol=tol)
    raise ValueError("state record needs an 'xi' or 'rho' field")


def _cmd_check(args) -> int:
    tol = args.tol if args.tol is not None else st.POSITIVITY_TOL
    if args.xi is not None:
        verdict = _check_one_record({"xi": _parse_floats(args.xi, "--xi")}, tol, args.N)
        _emit([_dumps(_verdict_record(verdict))], args.out)
        return 0 if verdict.is_state else 2

    # batch mode: one JSON state record per stdin line
    lines = []
    any_invalid = False
    parse_failures = 0
    for lineno, raw in enumerate(sys.stdin, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
            verdict = _check_one_record(record, tol, args.N)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            parse_failures += 1
            continue
        if not verdict.is_state:
            any_invalid = True
        lines.append(_dumps(_verdict_record(verdict)))
    if lines or not parse_failures:
        _emit(lines if lines else [], args.out)
    if parse_failures:
        return 1
    return 2 if any_invalid else 0


def _diagonal_bloch(spectrum: np.ndarray) -> np.ndarray:
    """Bloch vector of diag(spectrum): Cartan components only."""
    N = len(spectrum)
    basis = gell_mann_basis(N)
    xi = np.zeros(N * N - 1)
    moduli = orb.cartan_moduli(spectrum)
    for a, idx in enumerate(basis.cartan_indices):
        xi[idx - 1] = moduli[a]
    return xi


def _cmd_invariants(args) -> int:
    if (args.xi is None) == (args.spectrum is None):
        raise ValueError("invariants needs exactly one of --xi or --spectrum")
    if args.xi is not None:
        xi = _parse_floats(args.xi, "--xi")
        N = st.dim_from_bloch(len(xi))
        rho = st.from_bloch(xi)
    else:
        spectrum = _parse_floats(args.spectrum, "--spectrum")
        N = len(spectrum)
        if abs(spectrum.sum() - 1.0) > 1e-9:
            raise ValueError(f"spectrum sums to {spectrum.sum()}, expected 1")
        rho = np.diag(spectrum.astype(complex))
        xi = _diagonal_bloch(spectrum)
    _require_dim(args.N, N)
    t = inv.trace_invariants(rho)
    S = inv.char_coefficients(t)
    B = inv.bezoutian(t)
    record = {
        "N": N,
        "t": [t.t(k) for k in range(1, N + 1)],
        "S": list(S),
        "disc": float(np.linalg.det(B)),
        "bezoutian_rank": inv.bezoutian_rank(B),
        "casimirs": inv.casimirs(xi, algebra_tensors(N)).as_dict(),
    }
    _emit([_dumps(record)], args.out)
    return 0


def _cmd_param(args) -> int:
    if args.inverse:
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
        if args.N is not None and args.N != len(spectrum):
            raise ValueError(f"--N {args.N} disagrees with spectrum length {len(spectrum)}")
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
    report = orb.intersection_polyhedron(args.N, args.r)
    if args.N == 3 and args.r >= 0.5:
        report["rank2_phi"] = 3.0 * np.arcsin(1.0 / (2.0 * args.r))
        report["effective_qubit_radius"] = orb.effective_radius("qubit-in-qutrit", args.r)
    if args.N == 4:
        if args.r >= 1.0 / 3.0:
            report["rank3_cos_theta"] = orb.quatrit_rank3_cos_theta(args.r)
            report["effective_qutrit_radius"] = orb.effective_radius(
                "qutrit-in-quatrit", args.r
            )
        if args.r >= 1.0 / np.sqrt(3.0):
            report["effective_qubit_radius"] = orb.effective_radius(
                "qubit-in-qutrit-in-quatrit", args.r
            )
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
        rows = []
        for s3 in spectra3:
            s4 = np.concatenate([s3, [0.0]])
            rows.append(orb.cartan_moduli(s4))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditorbits",
        description="su(N) algebra, positivity tests, and orbit-space geometry "
        "of qudit density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_required=True, n_default=None):
        if n_required:
            p.add_argument("--N", type=int, required=True, help="Hilbert space dimension")
        else:
            p.add_argument("--N", type=int, default=n_default, help="Hilbert space dimension")
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
