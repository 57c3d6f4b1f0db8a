"""Versioned textual surface files.

JSON with a format header; scalars are strings ("p/q" rationals,
"[c0,c1,c2]" cubic field elements, shortest round-trip decimals for
floats) so that exact surfaces round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
from typing import IO

from .numeric import Point, Scalar, scalar_from_str, scalar_to_str
from .surface import HALF_TRANSLATION, TRANSLATION, Gluing, Polygon, Surface, SurfaceError

FORMAT = "flatsurface/1"


def _vertex_literals(v: Point, i: int, j: int) -> list:
    """The literals of polygon i's vertex j, under the reader's rule that a
    float coordinate is finite."""
    if any(isinstance(x, float) and not math.isfinite(x) for x in v):
        raise SurfaceError(f"surface file: polygons[{i}][{j}]: non-finite coordinate in {v!r}")
    return [scalar_to_str(v[0]), scalar_to_str(v[1])]


def surface_to_dict(s: Surface) -> dict:
    """The file form of s; SurfaceError names a vertex the reader would reject."""
    return {
        "format": FORMAT,
        "kind": s.kind,
        "scalars": "exact" if s.is_exact() else "float",
        "polygons": [
            [_vertex_literals(v, i, j) for j, v in enumerate(p.vertices)] for i, p in enumerate(s.polygons)
        ],
        "gluings": [
            [[g.edge_a[0], g.edge_a[1]], [g.edge_b[0], g.edge_b[1]], g.kind] for g in s.gluings
        ],
    }


def _field(data: dict, name: str):
    if name not in data:
        raise SurfaceError(f"surface file: missing field {name!r}")
    return data[name]


def _list(x, where: str) -> list:
    if not isinstance(x, list):
        raise SurfaceError(f"surface file: {where} is not a list: {x!r}")
    return x


def _scalar(text, where: str) -> Scalar:
    if isinstance(text, str):
        try:
            x = scalar_from_str(text)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if not isinstance(x, float) or math.isfinite(x):
                return x
    raise SurfaceError(f"surface file: {where}: bad scalar literal {text!r}")


def _vertex(v, where: str) -> Point:
    if not (isinstance(v, list) and len(v) == 2):
        raise SurfaceError(f"surface file: {where} is not a pair of scalar literals: {v!r}")
    return (_scalar(v[0], where), _scalar(v[1], where))


def _gluing(g, where: str) -> Gluing:
    """A gluing [[p, e], [q, f], kind] with integer indices and a string kind."""
    if (isinstance(g, list) and len(g) == 3 and isinstance(g[2], str)
            and all(isinstance(ref, list) and len(ref) == 2
                    and all(type(i) is int for i in ref) for ref in g[:2])):
        (p, e), (q, f), kind = g
        return Gluing((p, e), (q, f), kind)
    raise SurfaceError(f"surface file: {where} is not [[p, e], [q, f], kind]: {g!r}")


def surface_from_dict(data) -> Surface:
    """The surface of a parsed file; SurfaceError names the first bad field."""
    if not isinstance(data, dict):
        raise SurfaceError(f"surface file: the top level is not an object: {data!r}")
    if data.get("format") != FORMAT:
        raise SurfaceError(f"unsupported surface format: {data.get('format')!r}")
    kind = _field(data, "kind")
    if kind not in (TRANSLATION, HALF_TRANSLATION):
        raise SurfaceError(f"surface file: kind is not {TRANSLATION!r} or {HALF_TRANSLATION!r}: {kind!r}")
    polygons = [
        Polygon([_vertex(v, f"polygons[{i}][{j}]") for j, v in enumerate(_list(poly, f"polygons[{i}]"))])
        for i, poly in enumerate(_list(_field(data, "polygons"), "polygons"))
    ]
    gluings = [_gluing(g, f"gluings[{i}]") for i, g in enumerate(_list(_field(data, "gluings"), "gluings"))]
    return Surface(polygons, gluings, kind)


def dump(s: Surface, fp: IO[str]) -> None:
    json.dump(surface_to_dict(s), fp, indent=1)
    fp.write("\n")


def dumps(s: Surface) -> str:
    return json.dumps(surface_to_dict(s), indent=1) + "\n"


def load(fp: IO[str]) -> Surface:
    return surface_from_dict(json.load(fp))


def loads(text: str) -> Surface:
    return surface_from_dict(json.loads(text))
