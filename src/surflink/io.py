"""JSON serialization for diagrams and family specifications.

Diagram files extend the plain map format (``vertices`` rotation lists and
``opposite`` dart pairs) with the surface genus and per-vertex decoration.
Family specifications bundle a base diagram (inline or by path), the two
layer curve classes, a layer count, an optional monodromy word, and
optional filling coefficients.  All emitted JSON is deterministic: sorted
keys, fixed indentation.

The layers a function needs are imported inside it, so a caller that only
formats JSON loads none of them.
"""

from __future__ import annotations

import json
import os

from .errors import InternalInvariant, ParseError

__all__ = [
    "diagram_to_json_dict",
    "diagram_from_json_dict",
    "dump_diagram",
    "write_text",
    "load_diagram",
    "dumps_json",
    "json_text",
    "file_digest",
    "load_family_spec",
    "build_link_from_spec",
]

KINDS = ("DoubledThickenedSurface", "MappingTorus", "TrivialMappingTorus")


def diagram_to_json_dict(diagram) -> dict:
    """The JSON object of a FalDiagram."""
    from .fal_diagram import CrossingCircle

    data = map_to_json_dict(diagram.map)
    data["genus"] = diagram.genus
    kinds, over, twist, twist_sign = [], [], [], []
    for k in diagram.vertex_kind:
        if isinstance(k, CrossingCircle):
            kinds.append("circle")
            over.append(None)
            twist.append(k.half_twist)
            twist_sign.append(k.half_twist_sign)
        else:
            kinds.append("crossing")
            over.append(k.over_pair)
            twist.append(None)
            twist_sign.append(None)
    data["vertex_kind"] = kinds
    data["over_pair"] = over
    data["half_twist"] = twist
    data["half_twist_sign"] = twist_sign
    return data


def map_to_json_dict(m) -> dict:
    """The `vertices` and `opposite` fields of a CombinatorialMap."""
    pairs = [[d, m.opposite[d]] for d in m.edges()]
    return {"vertices": [list(c) for c in m.rotation], "opposite": pairs}


def map_from_json_dict(data: dict):
    """The CombinatorialMap of the `vertices` and `opposite` fields.

    Every dart is type-checked before any pair is unpacked, so a non-integer
    dart is reported as such even after a pair of the wrong length.  Other
    faults raise KeyError, TypeError or ValueError, which
    `diagram_from_json_dict` reports as a ParseError.
    """
    from .surface_map import CombinatorialMap

    for field in ("vertices", "opposite"):
        for group in data[field]:
            for dart in group:
                _json_int(dart, field)
    opposite: dict[int, int] = {}
    for a, b in data["opposite"]:
        opposite[a] = b
        opposite[b] = a
    return CombinatorialMap(data["vertices"], opposite)


def diagram_from_json_dict(data: dict):
    """The FalDiagram of a JSON object; a malformed object is a ParseError."""
    from .fal_diagram import Crossing, CrossingCircle, FalDiagram

    try:
        m = map_from_json_dict(data)
        genus = _json_int(data["genus"], "genus")
        kinds = []
        for i, name in enumerate(data["vertex_kind"]):
            if name == "circle":
                # null is the documented default: no half-twist, sign +1.
                twist = data["half_twist"][i]
                twist = False if twist is None else _json_bool(twist, "half_twist")
                sign = data["half_twist_sign"][i]
                sign = 1 if sign is None else _json_int(sign, "half_twist_sign", (1, -1))
                _json_null(data["over_pair"][i], "over_pair", name)
                kinds.append(CrossingCircle(half_twist=twist, half_twist_sign=sign))
            elif name == "crossing":
                over_pair = _json_int(data["over_pair"][i], "over_pair", (0, 1))
                _json_null(data["half_twist"][i], "half_twist", name)
                _json_null(data["half_twist_sign"][i], "half_twist_sign", name)
                kinds.append(Crossing(over_pair=over_pair))
            else:
                raise ParseError(f"vertex {i}: unknown kind {name!r}")
        return FalDiagram(m, genus, tuple(kinds))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed diagram object: {exc}") from exc


def json_text(data, **options) -> str:
    """json.dumps(data, **options), except that a NaN or infinite float,
    which JSON cannot hold, raises InternalInvariant."""
    try:
        return json.dumps(data, allow_nan=False, **options)
    except ValueError as exc:
        raise InternalInvariant(f"a report value is not JSON: {exc}") from exc


def dumps_json(data) -> str:
    return json_text(data, sort_keys=True, indent=2) + "\n"


def require_output_path(path: str) -> None:
    """An empty output path names no file: it is bad input."""
    if not path:
        raise ParseError("the output path is empty")


def write_text(path: str, text: str) -> None:
    """Write `text` to `path`; a path that cannot be written is bad input."""
    require_output_path(path)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_diagram(diagram, path: str) -> None:
    write_text(path, dumps_json(diagram_to_json_dict(diagram)))


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    # Not UTF-8, nested past the recursion limit, or an integer literal
    # past the interpreter's digit limit.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_diagram(path: str):
    """Read a FalDiagram from a JSON file."""
    return diagram_from_json_dict(_load_json(path))


def file_digest(path: str) -> str:
    """SHA-256 of the file's bytes, in hex."""
    # The interpreter's builtin SHA-256 spares a one-file hash the cost of
    # loading OpenSSL through hashlib, as the stdlib's random does for sha512.
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12+
        except ImportError:
            from hashlib import sha256

    with open(path, "rb") as fh:
        return sha256(fh.read()).hexdigest()


def _resolve_diagram(entry, spec_dir: str):
    if isinstance(entry, str):
        return load_diagram(os.path.join(spec_dir, entry))
    if isinstance(entry, dict):
        return diagram_from_json_dict(entry)
    raise ParseError(f"diagram entry must be a path or an object, got {type(entry)}")


def load_family_spec(path: str) -> dict:
    spec = _load_json(path)
    if not isinstance(spec, dict) or spec.get("kind") not in KINDS:
        raise ParseError(f"spec field 'kind' must be one of {KINDS}")
    for required in ("base", "gamma_odd", "gamma_even", "m"):
        if required not in spec:
            raise ParseError(f"spec is missing required field {required!r}")
    spec["_dir"] = os.path.dirname(os.path.abspath(path))
    return spec


def _json_int(value, field: str, allowed: tuple = ()) -> int:
    # JSON integers only: int() would truncate 2.5 and read true as 1.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"field {field!r}: {value!r} is not an integer")
    if allowed and value not in allowed:
        raise ParseError(f"field {field!r}: {value!r} is not one of {allowed}")
    return value


def _json_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"field {field!r}: {value!r} is not true or false")
    return value


def _json_null(value, field: str, kind: str) -> None:
    if value is not None:
        raise ParseError(f"field {field!r}: {value!r} on a {kind} vertex is not null")


def _json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"field {field!r} must be a list, got {value!r}")
    return value


def _json_ints(value, field: str) -> tuple:
    return tuple(_json_int(x, field) for x in _json_list(value, field))


def _parse_curve_entry(entry, field: str):
    if isinstance(entry, str):
        return entry  # word text; split_curve parses it
    if isinstance(entry, list):
        return _json_ints(entry, field)
    raise ParseError(f"curve entry must be a word string or a list, got {type(entry)}")


def _parse_phi(entries, g: int):
    from .curves_mcg import MappingClassWord, parse_curve_word

    letters = []
    for item in _json_list(entries, "phi"):
        try:
            curve, exp = item
        except (TypeError, ValueError) as exc:
            raise ParseError(f"phi letters must be [curve, exponent] pairs: {item!r}") from exc
        if isinstance(curve, str):
            curve = parse_curve_word(curve, g)
        else:
            curve = _json_ints(curve, "phi")
        letters.append((curve, _json_int(exp, "phi")))
    return MappingClassWord(tuple(letters), g)


def build_link_from_spec(spec: dict):
    """Assemble a ManifoldLink from a parsed family spec, applying any
    annular (t) and crossing-circle (s) fillings it requests.  Each base
    diagram must be cellular on its declared surface."""
    from .constructions import (
        annular_fill,
        build_doubled,
        build_layered,
        build_mapping_torus,
        build_trivial_torus,
        fill_to_wga,
    )
    from .fal_diagram import require_cellular

    spec_dir = spec.get("_dir", ".")
    base = _resolve_diagram(spec["base"], spec_dir)
    require_cellular(base)
    g = base.genus
    gamma_odd = _parse_curve_entry(spec["gamma_odd"], "gamma_odd")
    gamma_even = _parse_curve_entry(spec["gamma_even"], "gamma_even")
    m = _json_int(spec["m"], "m")
    if m < 0:
        raise ParseError(f"spec field 'm' must be nonnegative, got {m}")
    assert_intersection = _json_bool(spec.get("assert_intersection", False), "assert_intersection")
    family = build_layered(base, gamma_odd, gamma_even, m, assert_intersection=assert_intersection)
    kind = spec["kind"]
    if kind == "DoubledThickenedSurface":
        base2 = base
        if "base2" in spec:
            base2 = _resolve_diagram(spec["base2"], spec_dir)
            require_cellular(base2)
        link = build_doubled(base, base2, family)
    elif kind == "MappingTorus":
        if "phi" not in spec:
            raise ParseError("mapping-torus specs require a 'phi' word")
        phi = _parse_phi(spec["phi"], g)
        link = build_mapping_torus(base, phi, family)
    else:
        link = build_trivial_torus(base, family)
    if "t" in spec:
        link = annular_fill(link, _json_ints(spec["t"], "t"))
    if "s" in spec:
        link = fill_to_wga(link, _json_ints(spec["s"], "s"))
    return link
