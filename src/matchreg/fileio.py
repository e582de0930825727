"""ASCII PLY point-cloud I/O, and the reading and key checks of JSON documents.

Only the PLY subset needed here is supported: ``vertex`` elements with
``x y z`` properties (float or double). The writer emits full-precision
float64 so a write/read round trip is lossless.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import PlyParseError
from .geometry import Points, as_points


def write_ply(path, pc: Points) -> None:
    pts = as_points(pc)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    for p in pts:
        lines.append(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_ply(path) -> Points:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise PlyParseError(path, 1, "missing 'ply' magic")

    n_vertices = None
    props: list[str] = []
    in_vertex_element = False
    body_start = None
    for ln, raw in enumerate(lines[1:], start=2):
        tok = raw.split()
        if not tok:
            continue
        if tok[0] == "comment":
            continue
        if tok[0] == "format":
            if tok[1:2] != ["ascii"]:
                raise PlyParseError(path, ln, f"unsupported format {raw.strip()!r}")
        elif tok[0] == "element":
            in_vertex_element = tok[1] == "vertex"
            if in_vertex_element:
                try:
                    n_vertices = int(tok[2])
                except (IndexError, ValueError):
                    raise PlyParseError(path, ln, "bad vertex count") from None
        elif tok[0] == "property" and in_vertex_element:
            if len(tok) != 3 or tok[1] not in ("float", "float32", "double", "float64"):
                raise PlyParseError(path, ln, f"unsupported property {raw.strip()!r}")
            props.append(tok[2])
        elif tok[0] == "end_header":
            body_start = ln
            break
    if body_start is None:
        raise PlyParseError(path, len(lines), "missing end_header")
    if n_vertices is None:
        raise PlyParseError(path, body_start, "no vertex element declared")
    if props[:3] != ["x", "y", "z"]:
        raise PlyParseError(path, body_start, f"vertex properties must start with x y z, got {props}")

    pts = np.zeros((n_vertices, 3))
    row = 0
    for ln, raw in enumerate(lines[body_start:], start=body_start + 1):
        if not raw.strip():
            continue
        if row >= n_vertices:
            raise PlyParseError(path, ln, "more data rows than declared vertices")
        tok = raw.split()
        if len(tok) < len(props):
            raise PlyParseError(path, ln, f"expected {len(props)} values, got {len(tok)}")
        try:
            pts[row] = [float(tok[0]), float(tok[1]), float(tok[2])]
        except ValueError:
            raise PlyParseError(path, ln, f"non-numeric coordinate in {raw.strip()!r}") from None
        row += 1
    if row != n_vertices:
        raise PlyParseError(path, len(lines), f"declared {n_vertices} vertices, found {row}")
    if not np.all(np.isfinite(pts)):
        raise PlyParseError(path, body_start, "non-finite coordinate")
    return pts


def read_json(path, error=ValueError):
    """The JSON document in file ``path``; text that is not JSON raises ``error`` naming it."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise error(f"{path}: not valid JSON: {err}") from None


def write_json(path, doc) -> None:
    """Write ``doc`` to file ``path`` as JSON, keys sorted: equal documents give equal bytes."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


NUMBER = (int, float)
_JSON_NAMES = {
    dict: "object", list: "array", str: "string", int: "integer", NUMBER: "number",
    float: "number", bool: "boolean", type(None): "null",
}


def require_keys(doc, keys: dict[str, type | tuple[type, ...]], where, error=ValueError) -> dict:
    """``doc``'s entries at ``keys``, in order; ``doc`` is a parsed JSON document.

    ``keys`` maps each key to the Python type its value must have, or a
    tuple of them (``NUMBER``); a JSON ``true`` is not an integer. Raises
    ``error`` naming ``where`` (a file, or a record in one) when ``doc`` is
    not a JSON object, lacks one of the keys, or holds a value of another
    type.
    """
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
    for key, kind in keys.items():
        if key not in doc:
            raise error(f"{where}: missing key {key!r}")
        got = type(doc[key])
        if got not in (kind if isinstance(kind, tuple) else (kind,)):
            raise error(
                f"{where}: key {key!r} must be a JSON {_JSON_NAMES[kind]}, "
                f"got {_JSON_NAMES.get(got, got.__name__)}"
            )
    return {key: doc[key] for key in keys}
