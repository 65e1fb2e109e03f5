"""Flat JSON serialization for lattice polytopes.

Format: {"name": str?, "ambient_dim": int, "vertices": [[int, ...], ...]}.
Vertices may be unordered or redundant; loading canonicalizes through the
hull constructor.
"""

from __future__ import annotations

import json
from pathlib import Path

from .polytope import LatticePolytope, from_vertices


class PolytopeFileError(ValueError):
    pass


def _parse(doc: object, where: str) -> LatticePolytope:
    if not isinstance(doc, dict):
        raise PolytopeFileError(f"{where}: expected a JSON object")
    if "ambient_dim" not in doc or "vertices" not in doc:
        raise PolytopeFileError(f"{where}: missing required field 'ambient_dim' or 'vertices'")
    n = doc["ambient_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PolytopeFileError(f"{where}: ambient_dim must be a positive integer, got {n!r}")
    verts = doc["vertices"]
    if not isinstance(verts, list) or not verts:
        raise PolytopeFileError(f"{where}: vertices must be a nonempty list")
    parsed = []
    for i, row in enumerate(verts):
        if not isinstance(row, list) or len(row) != n:
            raise PolytopeFileError(f"{where}: vertex {i}: expected a list of {n} integers")
        for j, x in enumerate(row):
            # bool is an int subclass; reject it explicitly
            if not isinstance(x, int) or isinstance(x, bool):
                raise PolytopeFileError(
                    f"{where}: vertex {i}, coordinate {j}: non-integer vertex ({x!r})"
                )
        parsed.append(tuple(row))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise PolytopeFileError(f"{where}: name must be a string when present")
    return from_vertices(parsed)


def load_polytope(path: str | Path) -> LatticePolytope:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PolytopeFileError(f"{path}: file not found")
    except OSError as e:
        raise PolytopeFileError(f"{path}: cannot read ({e.strerror})")
    except json.JSONDecodeError as e:
        raise PolytopeFileError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}")
    except UnicodeDecodeError:
        raise PolytopeFileError(f"{path}: not UTF-8 text")
    return _parse(doc, str(path))


def save_polytope(P: LatticePolytope, path: str | Path, name: str | None = None) -> None:
    doc: dict[str, object] = {}
    if name is not None:
        doc["name"] = name
    doc["ambient_dim"] = P.ambient_dim
    doc["vertices"] = [list(v) for v in P.vertices]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
