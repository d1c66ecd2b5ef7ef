"""File formats: matrix JSON, cloud CSV, grid CSV.

All floats are serialized with 17 significant digits so round-trips are
lossless and outputs are byte-deterministic.  Every text table (cloud and
grid rows, JSON arrays and the marks of an SVG plot) is filled in bulk by
one rule, :func:`format_rows`; tables are read back with numpy.  Writes go
through a temporary file followed by an atomic rename.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import tempfile
from io import BytesIO

import numpy as np

from .approx import TRAJECTORY, PointCloud, _layout
from .errors import BadParams
from .structures import is_member, pattern_from_dict, pattern_to_dict


# Floats per % operation in format_rows: bounds the Python floats alive at once.
FORMAT_CHUNK_VALUES = 8192


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_rows(templates, values) -> str:
    """The templates in turn, the ``%`` fields of each filled in order from
    the flat float array ``values``; every template takes the same number
    of floats.

    The one bulk text rule of every table: one ``%`` operation per chunk of
    whole templates of about ``FORMAT_CHUNK_VALUES`` floats, not one format
    call per value; ``%.17g`` writes the same text as ``format(x, ".17g")``.
    """
    values = np.ravel(values)
    per = len(values) // len(templates) if templates else 0  # floats per template
    size = max(1, FORMAT_CHUNK_VALUES // max(per, 1))  # templates per chunk
    return "".join("".join(templates[r : r + size])
                   % tuple(values[per * r : per * (r + size)].tolist())
                   for r in range(0, len(templates), size))


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


def _json_text(doc: dict, number: str = "%r") -> str:
    """The text of ``json.dumps(doc, indent=1, sort_keys=True)`` and a
    newline, for a doc whose arrays are finite floats, 1-D or 2-D (a list of
    rows).  json writes the doc with null in place of each array, and each
    null is replaced by its array's list, formatted in bulk with every float
    as the %-template ``number`` writes it (``%r`` writes json's text)."""
    arrays = {k: v for k, v in doc.items() if isinstance(v, np.ndarray)}
    text = json.dumps({**doc, **dict.fromkeys(arrays)}, indent=1, sort_keys=True)
    for key, value in arrays.items():
        item = number if value.ndim == 1 else "[\n   " + ",\n   ".join([number] * value.shape[1]) + "\n  ]"
        rows = format_rows([",\n  " + item] * len(value), value)
        head = f"\n {json.dumps(key)}: "  # only a top-level key follows "\n "
        text = text.replace(head + "null", head + (f"[\n{rows[2:]}\n ]" if rows else "[]"), 1)
    return text + "\n"


def matrix_to_json(A: np.ndarray, pattern=None, generator: dict | None = None) -> str:
    """The text of ``json.dumps(doc, indent=1, sort_keys=True)`` for a doc
    whose ``entries`` are ``[re, im]`` pairs of 17-digit strings."""
    A = np.asarray(A, dtype=complex)
    doc = {"n": A.shape[0], "entries": np.column_stack((A.real.ravel(), A.imag.ravel()))}
    if pattern is not None:
        doc["structure"] = pattern_to_dict(pattern)
    if generator is not None:
        doc["generator"] = generator
    return _json_text(doc, '"%.17g"')


def save_matrix(path: str, A, pattern=None, generator=None) -> None:
    atomic_write(path, matrix_to_json(A, pattern, generator))


@contextlib.contextmanager
def _collector_paused():
    """Pause Python's cyclic garbage collector for the block, and resume it
    only if it ran before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _matrix_doc(text: str):
    """``(doc, parts)``: the matrix file ``text`` parsed, its ``entries``
    taken out of ``doc`` as an (n * n, 2) float array, or BadParams."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise BadParams("a matrix file must hold a JSON object")
    n, entries = doc.get("n"), doc.pop("entries", None)
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
    return doc, parts


def load_matrix(path: str):
    """Load a matrix file; returns ``(A, pattern_or_None)``.

    The document must be an object with an integer ``n`` and a list of
    n * n finite ``[re, im]`` entries; declared structure metadata is
    validated against the entries on load.

    json builds one list per entry, n * n of them, all alive until the
    float array is made.  With the cyclic collector running, they would set
    off collections that find no cycle and age the program's long-lived
    objects towards a full collection; so the file is parsed with the
    collector paused, and reference counting frees the lists before it
    resumes.
    """
    with open(path) as fh:
        text = fh.read()
    with _collector_paused():
        doc, parts = _matrix_doc(text)
    if not np.all(np.isfinite(parts)):
        raise BadParams("matrix entries must be finite")
    n = doc["n"]
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
    floats = np.ascontiguousarray(cloud.points, dtype=complex).view(float)
    return "\n".join(lines) + "\n" + format_rows([h + h.join(tails) for h in heads], floats)


def save_cloud(path: str, cloud: PointCloud, matrix_sha: str) -> None:
    atomic_write(path, cloud_to_csv(cloud, matrix_sha))


def load_cloud(path: str, dim_hint: int):
    """Read a cloud CSV as :func:`cloud_to_csv` writes it; returns
    ``(PointCloud, header_dict)``.

    The ``# key=value`` lines, with every fixed key and ``dim``, and the
    column line are required; each key must be one :func:`cloud_to_csv`
    writes, given once, with a value that parses, and every point must be
    finite.  The kind, its meta (a baseline's seed among it) and, unless
    the file has no rows, the provenance columns must follow the layout
    rule of ``approx``.  ``dim_hint``, the dimension of the matrix the
    cloud belongs to, must equal ``dim``.  Else BadParams.
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
    if pattern.dim != dim_hint:
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
    epsilon = parse("epsilon", float, _fmt)
    _, columns = _layout(header["kind"], pattern, meta, len(points))
    if not all(map(np.array_equal, (rows[k] for k in _CLOUD_ROW.names[2:]), columns)):
        raise BadParams(f"cloud rows do not follow the {header['kind']} layout of its header")
    return PointCloud(points, epsilon, pattern, header["kind"], meta), header


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
    templates = [re_s + re_s.join(cells) for re_s in map(_fmt, field.re_centers)]
    return "\n".join(lines) + "\n" + format_rows(templates, field.values)


def save_grid(path: str, field) -> None:
    atomic_write(path, grid_to_csv(field))
