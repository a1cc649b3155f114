"""Command line front end.

Subcommands: eval, decompose, mesh {build,validate,curves,export}, verify,
table {derive,show}.  Structured output under --json is deterministic for
fixed flags and seed.  Exit codes: 0 success, 1 check failure or a domain
error of the surface oracle or the derivation, 2 usage error.  Commands raise
usage and domain errors; ``main`` alone turns each into one stderr line and
its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import words as W
from . import rep3
from .mesh import (
    SampleOnSurfaceError,
    build_surface,
    export_off,
    load_off_counts,
    validate_surface,
)
from .mesh.curves import TUBE_RADIUS, DegeneracyError, TransversalityError
from .mesh.curves import plane_section
from .mesh.homology import CurveRef, build_homology, crossings
from .mesh.surface import MAX_RESOLUTION
from .rep6 import INPUT_LIMIT, GeneratorTable6, HandednessError, derive_table, word_image6
from .verifier import run_suite


class UsageError(Exception):
    """Bad input or an unusable file: exit code 2."""


def power_of_two_resolution(text: str) -> int:
    """Resolutions with an odd factor put grid samples on the surface."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"resolution must be an integer, got {text!r}")
    if not 8 <= n <= MAX_RESOLUTION or n & (n - 1):
        raise argparse.ArgumentTypeError(
            f"resolution must be a power of two from 8 to {MAX_RESOLUTION}, got {n}"
        )
    return n


def default_table_path(resolution: int) -> str:
    return f"t3mcg-table-n{resolution}.json"


def matrix_text(m) -> str:
    width = max(len(str(x)) for row in m for x in row)
    return "\n".join(" ".join(f"{x:>{width}}" for x in row) for row in m)


def read_table(path: str) -> GeneratorTable6:
    """A persisted table; an unreadable or malformed file is a usage error."""
    try:
        return GeneratorTable6.load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise UsageError(f"cannot read table {path}: {exc}") from exc


def write_table(table: GeneratorTable6, path: str):
    """Persist a derived table; an unwritable path is a usage error."""
    try:
        table.save(path)
    except OSError as exc:
        raise UsageError(f"cannot write table {path}: {exc}") from exc


def check_writable(path: str, kind: str = ""):
    """Refuse a path that cannot be written before any work is spent on it.  A path
    that exists is tested itself, so a writable file or device passes; a new one is
    tested by its directory.  Symbolic links are resolved first, so a link whose
    target's directory is missing is refused too.  ``kind`` names the file in the
    message, as in ``cannot write table t.json``."""
    lead = f"cannot write {kind} {path}" if kind else f"cannot write {path}"
    real = os.path.realpath(path)
    directory = os.path.dirname(real)
    if not os.path.isdir(directory):
        raise UsageError(f"{lead}: no directory {directory}")
    if os.path.isdir(real):
        raise UsageError(f"{lead}: it is a directory")
    if os.path.exists(real):
        if not os.access(real, os.W_OK):
            raise UsageError(f"{lead}: it is not writable")
    elif not os.access(directory, os.W_OK):
        raise UsageError(f"{lead}: directory {directory} is not writable")


def derive_and_write_table(resolution: int, path: str):
    """Derive the table at ``resolution`` and persist it; returns it with its homology."""
    check_writable(path, "table")
    h = build_homology(build_surface(resolution))
    table = derive_table(h)
    write_table(table, path)
    return table, h


def load_or_derive_table(args, derive_if_missing: bool):
    path = args.table or default_table_path(args.resolution)
    if os.path.exists(path):
        table = read_table(path)
        if table.resolution != args.resolution:
            raise UsageError(
                f"table {path} was derived at resolution {table.resolution}, "
                f"not {args.resolution}"
            )
        if not table.tube_radius or Fraction(table.tube_radius) != TUBE_RADIUS:
            raise UsageError(
                f"table {path} records tube radius {table.tube_radius!r}, not {TUBE_RADIUS}"
            )
        return table, None
    if not derive_if_missing:
        raise UsageError(f"no generator table at {path}; run `t3mcg table derive` first")
    return derive_and_write_table(args.resolution, path)


def digit_limit_text() -> str:
    limit = sys.get_int_max_str_digits()  # only the environment can raise it for the CLI
    return f"an integer exceeds the limit ({limit} digits); set PYTHONINTMAXSTRDIGITS to raise it"


def cmd_eval(args) -> int:
    word = W.parse_word(args.word)
    if args.level == 3:
        m = rep3.word_image3(word)
    else:
        table, _ = load_or_derive_table(args, derive_if_missing=False)
        m = word_image6(word, table)
    try:  # the whole text first, so a refusal prints nothing
        text = json.dumps([list(r) for r in m]) if args.json else matrix_text(m)
    except ValueError as exc:  # an entry past Python's int-to-str digit limit
        raise UsageError(f"cannot print the matrix: {digit_limit_text()}") from exc
    print(text)
    return 0


def cmd_decompose(args) -> int:
    text = args.matrix
    if text == "-":  # an argument is already held whole; stdin may never end
        text = sys.stdin.read(INPUT_LIMIT + 1)
        if len(text) > INPUT_LIMIT:
            raise UsageError(f"cannot read stdin: it is longer than {INPUT_LIMIT} characters")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, deep nesting, too many digits
        reason = digit_limit_text() if type(exc) is ValueError else exc  # not JSONDecodeError
        raise UsageError(f"cannot read the matrix JSON: {reason}") from exc
    if isinstance(data, list) and len(data) == 9:  # flat row-major form
        data = [data[0:3], data[3:6], data[6:9]]
    try:
        m = rep3.mat3(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    word = rep3.decompose_sl3(m)
    if rep3.word_image3(word) != m:
        print("error: decomposition failed its own round-trip", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"word": W.render(word), "letters": len(word)}))
    else:
        print(W.render(word))
    return 0


def cmd_mesh_validate(args) -> int:
    report = validate_surface(build_surface(args.resolution))
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for k, v in sorted(report.items()):
            print(f"{k}: {v}")
    return 0 if report["orientable"] and report["genus"] == 3 else 1


def cmd_mesh_curves(args) -> int:
    mesh = build_surface(args.resolution)
    half = Fraction(1, 2)
    names = [f"{side}{axis}" for side in "AB" for axis in (1, 2, 3)]
    levels = (half, Fraction(0))
    refs = [plane_section(mesh, axis, level) for level in levels for axis in (1, 2, 3)]
    out = {"resolution": args.resolution, "curves": {}, "pairwise": {}}
    for name, sec in zip(names, refs):
        loops = []
        for loop in sec.loops:
            points = []
            for va, vb, p, q in loop.steps.ends[:, 0].tolist():
                # each step enters at t = p/q on the edge from vertex va to vb; both
                # ends lie in one cell box, at most 1/n apart along each axis, so the
                # edge runs from x by the short difference (y - x + 1/2) mod 1 - 1/2
                t, ends = Fraction(p, q), zip(mesh.vertices[va], mesh.vertices[vb])
                points.append([float((x + t * ((y - x + half) % 1 - half)) % 1) for x, y in ends])
            loops.append({"displacement": list(loop.displacement), "points": points})
        out["curves"][name] = loops
    for i in range(6):
        for j in range(i + 1, 6):
            alg, geo = crossings(CurveRef(refs[i], 0), CurveRef(refs[j], 0))
            out["pairwise"][f"{names[i]},{names[j]}"] = {"algebraic": alg, "geometric": geo}
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for name in names:
            loops = out["curves"][name]
            print(f"{name}: {len(loops)} loop(s), displacement {loops[0]['displacement']}")
        for key, val in sorted(out["pairwise"].items()):
            print(f"{key}: algebraic {val['algebraic']}, geometric {val['geometric']}")
    return 0


def cmd_mesh_export(args) -> int:
    check_writable(args.out)
    mesh = build_surface(args.resolution)
    try:
        export_off(mesh, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    try:
        report = load_off_counts(args.out)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read back {args.out}: {exc}") from exc
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"wrote {args.out}: {report}")
    return 0


def cmd_verify(args) -> int:
    table, h = load_or_derive_table(args, derive_if_missing=True)
    if h is None:
        h = build_homology(build_surface(args.resolution))
    report = run_suite(table, h, seed=args.seed)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for line in report.summary_lines():
            print(line)
        print(f"result: {'all checks passed' if report.passed else 'FAILURES PRESENT'}")
    return 0 if report.passed else 1


def cmd_table_derive(args) -> int:
    path = args.table or default_table_path(args.resolution)
    table, _ = derive_and_write_table(args.resolution, path)
    if args.json:
        print(json.dumps({"path": path, "handedness": table.handedness}, sort_keys=True))
    else:
        print(f"wrote {path} (handedness: {table.handedness})")
    return 0


def cmd_table_show(args) -> int:
    table = read_table(args.table or default_table_path(args.resolution))
    if args.json:
        print(json.dumps(table.to_json(), sort_keys=True))
    else:
        print(f"resolution {table.resolution}, handedness {table.handedness}")
        for tok in sorted(table.matrices):
            print(f"\n{tok}:")
            print(matrix_text(table.matrices[tok]))
            note = table.provenance.get(tok)
            if note:
                print(f"  ({note})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t3mcg",
        description="Words, integer representations and the PL surface oracle "
        "for the mapping class group of the genus-3 splitting of the 3-torus.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--resolution",
        type=power_of_two_resolution,
        default=32,
        help=f"grid resolution (a power of two from 8 to {MAX_RESOLUTION})",
    )
    parser.add_argument("--json", action="store_true", help="structured JSON output")
    parser.add_argument("--table", default=None, help="path to a persisted generator table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a word in a representation")
    p.add_argument("--level", type=int, choices=(3, 6), default=3)
    p.add_argument("word")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decompose", help="write an integer matrix as a shear word")
    p.add_argument("matrix", help="JSON 3x3 matrix (row-major), or - for stdin")
    p.set_defaults(func=cmd_decompose)

    mesh = sub.add_parser("mesh", help="surface reconstruction commands")
    msub = mesh.add_subparsers(dest="mesh_command", required=True)
    p = msub.add_parser("build", help="build the surface and print counts")
    p.set_defaults(func=cmd_mesh_validate)
    p = msub.add_parser("validate", help="build and validate the surface")
    p.set_defaults(func=cmd_mesh_validate)
    p = msub.add_parser("curves", help="extract the six distinguished curves")
    p.set_defaults(func=cmd_mesh_curves)
    p = msub.add_parser("export", help="write the surface as an OFF file")
    p.add_argument("out")
    p.set_defaults(func=cmd_mesh_export)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.set_defaults(func=cmd_verify)

    table = sub.add_parser("table", help="generator table derivation and display")
    tsub = table.add_subparsers(dest="table_command", required=True)
    p = tsub.add_parser("derive", help="derive and persist the generator table")
    p.set_defaults(func=cmd_table_derive)
    p = tsub.add_parser("show", help="display a persisted generator table")
    p.set_defaults(func=cmd_table_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (UsageError, W.ParseError, rep3.DeterminantError, rep3.WordTooLongError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegeneracyError, TransversalityError, HandednessError, SampleOnSurfaceError) as exc:
        # the surface oracle or the derivation gave up: a domain error, not a bug
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
