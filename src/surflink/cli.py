"""Command-line interface.

Exit codes: 0 all requested checks pass, 1 a checked property fails,
2 malformed input or violated precondition, 3 an internal error (a broken
InternalInvariant or an exception that is not a SurflinkError), reported
on one stderr line.

Each command imports the layers it runs inside its own body, so one
``surflink`` process loads only those; importing this module loads nothing
of the package but ``errors``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import GenusTooSmall, InternalInvariant, MonodromyActsTrivially, ParseError, SurflinkError

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

INCONCLUSIVE_NOTE = (
    "note: the monodromy acts trivially on the homology classes supplied; "
    "homology certificates cannot distinguish such mapping classes (the "
    "genus-2 hyperelliptic involution is the standard example) and no "
    "word-level fallback is attempted here"
)


def _emit(report: dict, as_json: bool) -> None:
    """Write the report as JSON, or as text: one `name: pass|FAIL` line per
    check and one `key: value` line per other entry, the value as its JSON
    text, or bare when it is a string."""
    from . import io as sio

    if as_json:
        sys.stdout.write(sio.dumps_json(report))
        return
    lines = []
    for key, value in report.items():
        if key == "checks":
            lines += (f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in value.items())
        else:
            lines.append(f"{key}: {value if isinstance(value, str) else sio.json_text(value)}")
    # Every line is made before any is written, so a refusal leaves stdout empty.
    sys.stdout.write("".join(line + "\n" for line in lines))


def _report(args, body: dict, holds: bool = True) -> int:
    """Emit a report and return its exit code.

    Every report starts with `command`, which for `curves` names the action
    too, and, for a command that reads a file, `input_digest`, the file's
    SHA-256. The exit code is 1 when `holds`, the property the command
    checks, is false: a failed `validate` check, a `family` whose diagram
    filled by `s` is not WGA, `curves intersect` with geometric below
    |algebraic|, or `curves conjugate` on words that are not equal. It is 0
    otherwise."""
    from . import io as sio

    if args.command == "curves":
        head = {"command": f"curves {args.action}"}
    else:
        head = {"command": args.command, "input_digest": sio.file_digest(args.path)}
    _emit({**head, **body}, args.json)
    return EXIT_PASS if holds else EXIT_PROPERTY


def _write_diagram(diagram, output) -> int:
    from . import io as sio

    if output is not None:
        sio.dump_diagram(diagram, output)
    else:
        sys.stdout.write(sio.dumps_json(sio.diagram_to_json_dict(diagram)))
    return EXIT_PASS


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SLK_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ParseError(f"SLK_SEED must be an integer, got {env!r}") from exc


def cmd_validate(args) -> int:
    from . import io as sio
    from .fal_diagram import check_weakly_prime, validate_fal
    from .surface_map import checkerboard_coloring

    diagram = sio.load_diagram(args.path)
    report = validate_fal(diagram)
    weakly_prime, witness = check_weakly_prime(diagram)
    properties = {
        "checkerboard": checkerboard_coloring(diagram.map) is not None,
        "weakly_prime": weakly_prime,
        "weakly_prime_witness": witness,
    }
    counts = {"g": diagram.genus, "c": diagram.c, "l": diagram.l}
    body = {"checks": report._asdict(), "properties": properties, "counts": counts}
    return _report(args, body, report.ok)


def cmd_augment(args) -> int:
    from . import io as sio
    from .fal_diagram import augment

    return _write_diagram(augment(sio.load_diagram(args.path)), args.output)


def cmd_fill(args) -> int:
    from . import io as sio
    from .fal_diagram import fill_all

    diagram = sio.load_diagram(args.path)
    try:
        coefficients = [int(x) for x in args.t.split(",")] if args.t else []
    except ValueError as exc:
        raise ParseError(f"--t coefficients must be integers: {exc}") from exc
    if len(coefficients) != diagram.c:
        raise ParseError(
            f"expected {diagram.c} coefficients for {diagram.c} circles, "
            f"got {len(coefficients)}"
        )
    return _write_diagram(fill_all(diagram, dict(zip(diagram.circles, coefficients))), args.output)


def cmd_decompose(args) -> int:
    from . import io as sio
    from .bowtie import build_nerve, decompose, prism_triangulation

    diagram = sio.load_diagram(args.path)
    table = args.export_gluing
    if table is not None:
        sio.require_output_path(table)
        if os.path.exists(table) and os.path.samefile(table, args.path):
            raise ParseError(f"{table}: the gluing table would overwrite the input diagram")
    d = decompose(diagram)
    nerve = build_nerve(d)
    body = {
        "counts": {
            "g": d.genus,
            "c": d.c,
            "white_faces": d.white_count,
            "shaded_triangles": d.shaded_count,
            "nerve": [nerve.node_count, nerve.edge_count, nerve.face_count],
            "nerve_euler": nerve.chi,
            "boundary_triangles": d.boundary.triangle_count,
        },
        # decompose raises InternalInvariant when the white-face law fails,
        # so a report that reaches here prints the proved value.
        "checks": {"white_face_law": True},
    }
    if table is not None:
        pt = prism_triangulation(d)
        sio.write_text(table, pt.export_gluing_table())
        body["counts"]["tetrahedra"] = pt.tetrahedron_count
        body["gluing_table"] = table
    return _report(args, body)


def cmd_bounds(args) -> int:
    from . import io as sio
    from .bowtie import volume_bounds
    from .fal_diagram import require_cellular

    diagram = sio.load_diagram(args.path)
    require_cellular(diagram)
    cusps = diagram.l + diagram.c + 2 * args.m
    # A diagram with crossings is a filling: no prism bound is claimed for it.
    lower, upper = volume_bounds(cusps, diagram.c, diagram.genus, args.m, args.kind, bool(diagram.crossings))
    counts = {"g": diagram.genus, "c": diagram.c, "l": diagram.l, "m": args.m}
    body = {"counts": counts, "lower": lower.value, "upper": upper and upper.value, "kind": args.kind}
    return _report(args, body)


def cmd_family(args) -> int:
    from . import io as sio
    from .bowtie import volume_bounds

    spec = sio.load_family_spec(args.path)
    link = sio.build_link_from_spec(spec)
    base = link.family.base
    filled = bool(link.annular_coefficients or link.circle_coefficients or base.crossings)
    lower, upper = volume_bounds(link.cusp_count, base.c, base.genus, link.family.m, link.kind, filled)
    body = {
        "kind": link.kind,
        "cusp_count": link.cusp_count,
        "counts": {"g": base.genus, "c": base.c, "l": base.l, "m": link.family.m},
        "bounds": {"lower": lower.value, "upper": upper and upper.value},
        "certificates": {
            "intersection": [link.family.certificate.kind, link.family.certificate.value],
            "monodromy": list(link.certificates),
        },
        "hyperbolic_assumed": link.hyperbolic_assumed,
    }
    wga = link.wga_report
    if wga is not None:
        body["wga"] = {
            "alternating": wga.alternating,
            "checkerboard": wga.checkerboard,
            "weakly_prime": wga.weakly_prime,
            "weakly_prime_witness": wga.weakly_prime_witness,
            "wga_positive": wga.wga_positive,
            "twist_regions": link.twist_region_count,
        }
    return _report(args, body, wga is None or wga.wga_positive)


def cmd_generate(args) -> int:
    from .generator import generate_fal

    diagram = generate_fal(
        args.genus,
        args.circles,
        seed=_seed(args),
        half_twist_probability=args.half_twist_probability,
        require_checkerboard=args.require_checkerboard,
    )
    return _write_diagram(diagram, args.output)


_CURVES_WORD_COUNT = {"intersect": 2, "reduce": 1, "conjugate": 2}
# `curves intersect` builds dense homology vectors of 2g entries and a
# direction order of 4g; at this cap it still runs, in about 2 s on a
# shared 2-core x86-64 host.
MAX_CURVES_GENUS = 10**6


def cmd_curves(args) -> int:
    from .curves_mcg import (
        algebraic_intersection,
        conjugacy_equal,
        dehn_reduce,
        format_curve_word,
        geometric_intersection_oracle,
        parse_curve_word,
        word_to_homology,
    )

    g = args.genus
    if g > MAX_CURVES_GENUS:
        raise ParseError(
            f"--genus {g} is above the cap of {MAX_CURVES_GENUS}: curve computations "
            f"build dense vectors of 2g entries"
        )
    if g < 2:
        raise GenusTooSmall("surface-group reduction needs genus >= 2")
    expected = _CURVES_WORD_COUNT[args.action]
    if len(args.words) != expected:
        raise ParseError(
            f"curves {args.action} takes {expected} word(s), got {len(args.words)}"
        )
    words = [parse_curve_word(w, g) for w in args.words]
    # The library functions own the default budgets.
    budget = {} if args.budget is None else {"budget": args.budget}
    if args.action == "intersect":
        w1, w2 = words
        alg = algebraic_intersection(word_to_homology(w1, g), word_to_homology(w2, g))
        geo = geometric_intersection_oracle(w1, w2, g, **budget)
        return _report(args, {"algebraic": alg, "geometric": geo}, geo >= abs(alg))
    if args.action == "reduce":
        return _report(args, {"reduced": format_curve_word(dehn_reduce(words[0], g))})
    equal = conjugacy_equal(*words, g, up_to_inverse=args.up_to_inverse, **budget)
    return _report(args, {"equal": equal}, equal)


def probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a probability in [0, 1]")
    return value


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    from .io import KINDS

    parser = argparse.ArgumentParser(
        prog="surflink",
        description="Fully augmented link diagrams on higher-genus surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = with_common(sub.add_parser("validate", help="structural checks on a diagram"))
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("augment", help="replace twist regions by crossing circles")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("fill", help="Dehn fill the crossing circles")
    p.add_argument("path")
    p.add_argument("--t", required=True, help="comma-separated coefficients, one per circle")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fill)

    p = with_common(sub.add_parser("decompose", help="bowtie decomposition and counts"))
    p.add_argument("path")
    p.add_argument("--export-gluing", metavar="FILE")
    p.set_defaults(func=cmd_decompose)

    p = with_common(sub.add_parser("bounds", help="triangulation volume bounds"))
    p.add_argument("path")
    p.add_argument("--m", type=nonnegative, default=0)
    p.add_argument("--kind", default="TrivialMappingTorus", choices=KINDS)
    p.set_defaults(func=cmd_bounds)

    p = with_common(sub.add_parser("family", help="build a link family from a spec"))
    p.add_argument("path")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("generate", help="random cellular FAL diagram")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--circles", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--half-twist-probability", type=probability, default=0.0)
    p.add_argument("--require-checkerboard", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = with_common(sub.add_parser("curves", help="curve-word computations"))
    p.add_argument("action", choices=["intersect", "reduce", "conjugate"])
    p.add_argument("words", nargs="+")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument(
        "--budget", type=nonnegative, default=None, help="search budget (reduce ignores it)"
    )
    p.add_argument(
        "--up-to-inverse",
        action="store_true",
        help="also match the second word's inverse (only conjugate reads it)",
    )
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariant as exc:
        print(f"error: internal: InternalInvariant: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SurflinkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, MonodromyActsTrivially):
            print(INCONCLUSIVE_NOTE, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
