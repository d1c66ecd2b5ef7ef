"""File formats: matrix JSON, cloud CSV, grid CSV.

All floats are serialized with 17 significant digits so round-trips are
lossless and outputs are byte-deterministic.  Table rows are formatted in
bulk, one ``%`` per chunk of rows, and read back with numpy.  Writes go
through a temporary file followed by an atomic rename.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from io import BytesIO

import numpy as np

from .approx import TRAJECTORY, PointCloud, _layout
from .errors import BadParams
from .structures import is_member, pattern_from_dict, pattern_to_dict


# Rows per % operation in format_rows: bounds the Python floats alive at once.
FORMAT_CHUNK_ROWS = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_rows(fmt: str, *columns) -> str:
    """Parallel columns formatted row by row with the %-template ``fmt``.

    One ``%`` operation per chunk of ``FORMAT_CHUNK_ROWS`` rows, not one
    format call per value; ``%.17g`` writes the same text as
    ``format(x, ".17g")``.
    """
    parts = []
    for start in range(0, len(columns[0]), FORMAT_CHUNK_ROWS):
        chunk = [c[start : start + FORMAT_CHUNK_ROWS].tolist() for c in columns]
        values = tuple(itertools.chain.from_iterable(zip(*chunk)))
        parts.append((fmt * len(chunk[0])) % values)
    return "".join(parts)


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_to_json(A: np.ndarray, pattern=None, generator: dict | None = None) -> str:
    """The text of ``json.dumps(doc, indent=1, sort_keys=True)`` for a doc
    whose ``entries`` are ``[re, im]`` pairs of 17-digit strings.

    ``entries`` sorts first among the keys, so its block is formatted in
    bulk and put in front of the dump of the other keys.
    """
    A = np.asarray(A, dtype=complex)
    doc = {"n": A.shape[0]}
    if pattern is not None:
        doc["structure"] = pattern_to_dict(pattern)
    if generator is not None:
        doc["generator"] = generator
    rest = json.dumps(doc, indent=1, sort_keys=True)
    flat = A.ravel()
    rows = format_rows(',\n  [\n   "%.17g",\n   "%.17g"\n  ]', flat.real, flat.imag)
    entries = f"[\n{rows[2:]}\n ]" if rows else "[]"
    return f'{{\n "entries": {entries},\n{rest[2:]}\n'


def save_matrix(path: str, A, pattern=None, generator=None) -> None:
    atomic_write(path, matrix_to_json(A, pattern, generator))


def load_matrix(path: str):
    """Load a matrix file; returns ``(A, pattern_or_None)``.

    The document must be an object with an integer ``n`` and a list of
    n * n finite ``[re, im]`` entries; declared structure metadata is
    validated against the entries on load.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise BadParams("a matrix file must hold a JSON object")
    n, entries = doc.get("n"), doc.get("entries")
    if type(n) is not int or not isinstance(entries, list):
        raise BadParams("a matrix file needs an integer 'n' and a list of 'entries'")
    if n < 0:
        raise BadParams(f"'n' must be nonnegative, found {n}")
    if len(entries) != n * n:
        raise BadParams(f"expected {n * n} entries, found {len(entries)}")
    try:
        parts = np.array(entries, dtype=float).reshape(-1, 2)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"matrix entries must be [re, im] number pairs ({exc})") from exc
    if parts.shape[0] != n * n:
        raise BadParams("matrix entries must be [re, im] number pairs")
    if not np.all(np.isfinite(parts)):
        raise BadParams("matrix entries must be finite")
    A = parts.view(complex).reshape(n, n)
    pattern = None
    if "structure" in doc:
        pattern = pattern_from_dict(doc["structure"], n)
        if not is_member(A, pattern):
            raise BadParams(
                f"matrix does not satisfy its declared {pattern.kind} structure"
            )
    return A, pattern


def matrix_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Cloud header: the fixed lines, then keys with JSON values: the pattern
# (dim, real, support, n_half) and the meta entries without a fixed line.
# The meta entries with a fixed line read as _CLOUD_ABSENT where the meta lacks them.
_CLOUD_ABSENT = {"angles": "0", "samples": "0", "seed": ""}
_CLOUD_FIXED = ("epsilon", "pattern", "kind", *_CLOUD_ABSENT, "matrix_sha256")
_CLOUD_KEYS = ("dim", "real", "support", "n_half", "pair", "steps")
_CLOUD_COLUMNS = "re,im,source_eigen,angle_index,sample_index"
_CLOUD_ROW = np.dtype([(k, float if k in ("re", "im") else int) for k in _CLOUD_COLUMNS.split(",")])


def cloud_to_csv(cloud: PointCloud, matrix_sha: str) -> str:
    """The cloud's header, column line and rows, with the provenance columns
    of the layout rule of ``approx``; BadParams where the cloud breaks it.
    Provenance text is formatted once per layout row, floats by whole rows."""
    (starts, _), columns = _layout(cloud.kind, cloud.pattern, cloud.meta, len(cloud))
    extra = {"dim": cloud.pattern.dim, **pattern_to_dict(cloud.pattern), **cloud.meta}
    fixed = (_fmt(cloud.epsilon), cloud.pattern.kind, cloud.kind,
             *(cloud.meta.get(k, absent) for k, absent in _CLOUD_ABSENT.items()), matrix_sha)
    lines = [
        *(f"# {k}={v}" for k, v in zip(_CLOUD_FIXED, fixed)),
        *(f"# {k}={json.dumps(extra[k])}" for k in _CLOUD_KEYS if k in extra),
        _CLOUD_COLUMNS,
    ]
    m = len(cloud) // len(starts) if len(starts) else 1  # points per layout row
    steps = cloud.kind == TRAJECTORY  # along a row only a trajectory's step varies
    tails = [f",{k}\n" for k in columns[2][:m].tolist()] if steps else ["\n"] * m
    heads = ["%.17g,%.17g" + "".join(f",{v}" for v in row)
             for row in zip(*(c[::m].tolist() for c in columns[: 2 if steps else 3]))]
    size = max(1, FORMAT_CHUNK_ROWS // m)  # rows per chunk
    floats = np.ascontiguousarray(cloud.points, dtype=complex).view(float)
    rows = "".join("".join(h + h.join(tails) for h in heads[r : r + size])
                   % tuple(floats[2 * m * r : 2 * m * (r + size)].tolist())
                   for r in range(0, len(heads), size))
    return "\n".join(lines) + "\n" + rows


def save_cloud(path: str, cloud: PointCloud, matrix_sha: str) -> None:
    atomic_write(path, cloud_to_csv(cloud, matrix_sha))


def load_cloud(path: str, dim_hint: int = 0):
    """Read a cloud CSV as :func:`cloud_to_csv` writes it; returns
    ``(PointCloud, header_dict)``.

    The ``# key=value`` lines, with every fixed key and ``dim``, and the
    column line are required; each key must be one :func:`cloud_to_csv`
    writes, given once, with a value that parses, and every point must be
    finite.  The kind, its meta (a baseline's seed among it) and, unless
    the file has no rows, the provenance columns must follow the layout
    rule of ``approx``.  A nonzero ``dim_hint`` is the dimension of the
    matrix the cloud belongs to and must equal ``dim``.  Else BadParams.
    """
    with open(path, "rb") as fh:
        head, columns, body = fh.read().partition(f"\n{_CLOUD_COLUMNS}\n".encode())
    lines = head.decode().splitlines()
    if not columns or not all(line.startswith("# ") for line in lines):
        raise BadParams(f"a cloud file needs '# key=value' lines, then {_CLOUD_COLUMNS!r}")
    header = {}
    for key, value in (line[2:].partition("=")[::2] for line in lines):
        if key in header or key not in (*_CLOUD_FIXED, *_CLOUD_KEYS):
            raise BadParams(f"cloud header has an unknown or repeated {key!r} line")
        header[key] = value
    missing = [k for k in (*_CLOUD_FIXED, "dim") if k not in header]
    if missing:
        raise BadParams(f"cloud header lacks the {', '.join(missing)} line")

    def parse(key, convert, write=str):  # the line must be the writer's text
        try:
            value = convert(header[key])
        except ValueError as exc:  # json.JSONDecodeError included
            raise BadParams(f"cloud header line {key!r} does not parse ({exc})") from None
        if write(value) != header[key]:
            raise BadParams(f"cloud header line {key!r} is not written as {write(value)!r}")
        return value

    extra = {k: parse(k, json.loads, json.dumps) for k in _CLOUD_KEYS if k in header}
    structure = {k: v for k, v in extra.items() if k in ("real", "support", "n_half")}
    pattern = pattern_from_dict({"kind": header["pattern"], **structure}, extra["dim"])
    if dim_hint and pattern.dim != dim_hint:
        raise BadParams(f"cloud dim {pattern.dim} does not match the matrix dimension {dim_hint}")
    meta = {k: parse(k, int) for k, absent in _CLOUD_ABSENT.items() if header[k] != absent}
    meta.update((k, tuple(v) if type(v) is list else v)
                for k, v in extra.items() if k in ("pair", "steps"))
    rows = np.empty(0, dtype=_CLOUD_ROW)  # loadtxt warns on empty input
    if body:
        rows = np.loadtxt(BytesIO(body), dtype=_CLOUD_ROW, delimiter=",", ndmin=1)
    points = np.empty(rows.shape, dtype=complex)
    points.real, points.imag = rows["re"], rows["im"]
    if not np.all(np.isfinite(points)):
        raise BadParams("cloud points must be finite")
    cloud = PointCloud(points, parse("epsilon", float, _fmt), pattern, header["kind"], meta)
    if not all(np.array_equal(rows[name], getattr(cloud, name)) for name in _CLOUD_ROW.names[2:]):
        raise BadParams(f"cloud rows do not follow the {cloud.kind} layout of its header")
    return cloud, header


def grid_to_csv(field) -> str:
    re_min, re_max, im_min, im_max = field.bounds
    n_re, n_im = field.values.shape
    lines = [
        f"# bounds={_fmt(re_min)},{_fmt(re_max)},{_fmt(im_min)},{_fmt(im_max)}",
        f"# resolution={n_re}x{n_im}",
        "re,im,sigma_min",
    ]
    # Each cell centre is formatted once: row i of the grid is the template
    # "re_i,im_j,%.17g\n" over j, so only sigma_min goes through %.17g.
    cells = [f",{_fmt(im)},%.17g\n" for im in field.im_centers]
    rows = "".join(
        (re_s + re_s.join(cells)) % tuple(values.tolist())
        for re_s, values in zip(map(_fmt, field.re_centers), field.values)
    )
    return "\n".join(lines) + "\n" + rows


def save_grid(path: str, field) -> None:
    atomic_write(path, grid_to_csv(field))
