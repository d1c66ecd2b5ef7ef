"""File formats: matrix JSON, cloud CSV, grid CSV.

All floats are serialized with 17 significant digits so round-trips are
lossless and outputs are byte-deterministic.  Writes go through a temporary
file followed by an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .approx import PointCloud
from .errors import BadParams
from .families import pattern_from_dict, pattern_to_dict
from .structures import StructurePattern, is_member


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    doc = {
        "n": n,
        "entries": [[_fmt(v.real), _fmt(v.imag)] for v in A.ravel()],
    }
    if pattern is not None:
        doc["structure"] = pattern_to_dict(pattern)
    if generator is not None:
        doc["generator"] = generator
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


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
    if not isinstance(n, int) or not isinstance(entries, list):
        raise BadParams("a matrix file needs an integer 'n' and a list of 'entries'")
    if len(entries) != n * n:
        raise BadParams(f"expected {n * n} entries, found {len(entries)}")
    try:
        flat = np.array([float(re) + 1j * float(im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"matrix entries must be [re, im] number pairs ({exc})") from exc
    if not np.all(np.isfinite(flat)):
        raise BadParams("matrix entries must be finite")
    A = flat.reshape(n, n)
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


# Cloud header keys after the fixed lines, with JSON values: the pattern
# (dim, real, support, n_half) and the meta entries without a fixed line.
_CLOUD_KEYS = ("dim", "real", "support", "n_half", "pair", "steps")


def cloud_to_csv(cloud: PointCloud, matrix_sha: str) -> str:
    extra = {"dim": cloud.pattern.dim, **pattern_to_dict(cloud.pattern), **cloud.meta}
    lines = [
        f"# epsilon={_fmt(cloud.epsilon)}",
        f"# pattern={cloud.pattern.kind}",
        f"# kind={cloud.kind}",
        f"# angles={cloud.meta.get('angles', 0)}",
        f"# samples={cloud.meta.get('samples', 0)}",
        f"# seed={cloud.seed if cloud.seed is not None else ''}",
        f"# matrix_sha256={matrix_sha}",
        *(f"# {k}={json.dumps(extra[k])}" for k in _CLOUD_KEYS if k in extra),
        "re,im,source_eigen,angle_index,sample_index",
    ]
    for z, e, k, s in zip(
        cloud.points, cloud.source_eigen, cloud.angle_index, cloud.sample_index
    ):
        lines.append(f"{_fmt(z.real)},{_fmt(z.imag)},{int(e)},{int(k)},{int(s)}")
    return "\n".join(lines) + "\n"


def save_cloud(path: str, cloud: PointCloud, matrix_sha: str) -> None:
    atomic_write(path, cloud_to_csv(cloud, matrix_sha))


def load_cloud(path: str, dim_hint: int = 0):
    """Read a cloud CSV; returns ``(PointCloud, header_dict)``."""
    header = {}
    points, src, ang, smp = [], [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
                continue
            if line.startswith("re,"):
                continue
            re_s, im_s, e_s, k_s, s_s = line.split(",")
            points.append(float(re_s) + 1j * float(im_s))
            src.append(int(e_s))
            ang.append(int(k_s))
            smp.append(int(s_s))
    kind = header.get("kind", "wilkinson_sweep")
    pattern, meta = _pattern_and_meta(header, dim_hint)
    cloud = PointCloud(
        points=np.array(points, dtype=complex),
        source_eigen=np.array(src, dtype=int),
        angle_index=np.array(ang, dtype=int),
        sample_index=np.array(smp, dtype=int),
        epsilon=float(header.get("epsilon", "0") or 0),
        pattern=pattern,
        kind=kind,
        seed=int(header["seed"]) if header.get("seed") else None,
        meta=meta,
    )
    return cloud, header


def _pattern_and_meta(header: dict, dim_hint: int):
    """The cloud's pattern and meta.  Files without a dim line (older
    writers) carry neither and load with the full pattern at ``dim_hint``."""
    extra = {k: json.loads(header[k]) for k in _CLOUD_KEYS if k in header}
    if "dim" not in extra:
        return StructurePattern("full", max(dim_hint, 2)), {}
    pattern = pattern_from_dict({"kind": header.get("pattern", "full"), **extra}, extra["dim"])
    # The angles and samples lines read 0 where the meta lacks them; sweeps
    # and baselines always have at least one of each.
    meta = {k: int(header[k]) for k in ("angles", "samples") if header.get(k, "0") != "0"}
    if "pair" in extra:
        meta["pair"] = tuple(extra["pair"])
    if "steps" in extra:
        meta["steps"] = extra["steps"]
    return pattern, meta


def grid_to_csv(field) -> str:
    re_min, re_max, im_min, im_max = field.bounds
    n_re, n_im = field.resolution
    lines = [
        f"# bounds={_fmt(re_min)},{_fmt(re_max)},{_fmt(im_min)},{_fmt(im_max)}",
        f"# resolution={n_re}x{n_im}",
        "re,im,sigma_min",
    ]
    res = field.re_centers
    ims = field.im_centers
    for i in range(n_re):
        for j in range(n_im):
            lines.append(f"{_fmt(res[i])},{_fmt(ims[j])},{_fmt(field.values[i, j])}")
    return "\n".join(lines) + "\n"


def save_grid(path: str, field) -> None:
    atomic_write(path, grid_to_csv(field))
