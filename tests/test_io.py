"""The bulk writers against per-value ``format`` references, and exact
round trips through the numpy readers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec import GridField, PointCloud, approx, full, io, svg, toeplitz
from pseudospec.approx import RANDOM_BASELINE, TRAJECTORY, WILKINSON_SWEEP
from pseudospec.io import FORMAT_CHUNK_ROWS

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-307, 1e308, -3e307,
    1.0, -2.0, 3.0, 2.0**53, -(2.0**53) - 2.0, 1e16, 0.1, -1234.5,
]
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.0, max_value=2.0),
)


def _fmt(x):
    return format(float(x), ".17g")


def _bits(a):
    """Bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=complex).view(np.int64)


def _complex(pairs):
    z = np.empty(len(pairs), dtype=complex)
    z.real, z.imag = [p[0] for p in pairs], [p[1] for p in pairs]
    return z


def _body(text, column_line):
    return text.split(column_line + "\n", 1)[1]


def _per_point_rows(cloud):
    """The cloud's rows by the per-point rule, one ``%`` per point."""
    return "".join(
        "%.17g,%.17g,%d,%d,%d\n" % (z.real, z.imag, e, k, s)
        for z, e, k, s in zip(cloud.points, cloud.source_eigen, cloud.angle_index, cloud.sample_index)
    )


@st.composite
def laid_out_clouds(draw):
    """Clouds of every kind, with any points in the layout of their meta,
    or none."""
    kind = draw(st.sampled_from([WILKINSON_SWEEP, RANDOM_BASELINE, TRAJECTORY]))
    pattern = draw(st.sampled_from([full(3), toeplitz(3, {-1, 0})]))
    counts = st.integers(1, 3)
    if kind == WILKINSON_SWEEP:
        meta = {"pair": draw(st.sampled_from([(0, 1), (2, 0)])), "angles": draw(counts)}
    elif kind == RANDOM_BASELINE:
        meta = {"samples": draw(counts), "angles": draw(counts), "seed": draw(st.integers(0, 2**63))}
    else:
        meta = {"steps": draw(counts)}
    _, columns = approx._layout(kind, pattern, meta)
    m = draw(st.sampled_from([len(columns[0]), 0]))
    pairs = draw(st.lists(st.tuples(floats, floats), min_size=m, max_size=m))
    return PointCloud(_complex(pairs), draw(floats), pattern, kind, meta)


@settings(max_examples=80, deadline=None)
@given(cloud=laid_out_clouds(), chunk=st.sampled_from([1, 2, 3, 5, 7, FORMAT_CHUNK_ROWS]))
def test_cloud_rows_match_per_row_format_and_round_trip(tmp_path_factory, cloud, chunk):
    # The provenance the layout gives is written by the per-point rule,
    # whatever the chunk size: chunks shorter than a row, and chunk edges
    # that a point-wise split would put inside a row ...
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "FORMAT_CHUNK_ROWS", chunk)
        text = io.cloud_to_csv(cloud, "sha")
    assert _body(text, "re,im,source_eigen,angle_index,sample_index") == _per_point_rows(cloud)

    # ... and read back without loss.
    path = tmp_path_factory.mktemp("cloud") / "c.csv"
    io.save_cloud(str(path), cloud, "sha")
    loaded, header = io.load_cloud(str(path))
    assert np.array_equal(_bits(loaded.points), _bits(cloud.points))
    for name in ("source_eigen", "angle_index", "sample_index"):
        assert np.array_equal(getattr(loaded, name), getattr(cloud, name))
    assert (loaded.kind, loaded.meta, loaded.pattern) == (cloud.kind, cloud.meta, cloud.pattern)
    assert header["matrix_sha256"] == "sha"


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    data=st.data(),
    declared=st.booleans(),
)
def test_matrix_json_matches_json_dumps_and_round_trips(tmp_path_factory, n, data, declared):
    pairs = data.draw(st.lists(st.tuples(floats, floats), min_size=n * n, max_size=n * n))
    A = _complex(pairs).reshape(n, n)
    generator = {"family": "hand", "seed": 3, "params": {"a": [1.5, -0.0], "b": 2}}
    pattern = toeplitz(2, {0}) if declared else None
    doc = {"n": n, "entries": [[_fmt(v.real), _fmt(v.imag)] for v in A.ravel()]}
    if declared:
        doc["structure"] = {"kind": "toeplitz", "real": False, "support": [0]}
        doc["generator"] = generator
    expected = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert io.matrix_to_json(A, pattern, generator if declared else None) == expected

    path = tmp_path_factory.mktemp("matrix") / "m.json"
    io.save_matrix(str(path), A)
    B, loaded = io.load_matrix(str(path))
    assert loaded is None
    assert np.array_equal(_bits(B), _bits(A))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 4), data=st.data())
def test_json_text_matches_json_dumps(m, data):
    # The report of analyze --json-out: float arrays in bulk among json values.
    doc = {
        "eigenvalues": np.array(data.draw(st.lists(st.tuples(floats, floats), min_size=m, max_size=m)),
                                dtype=float).reshape(m, 2),
        "kappa": np.array(data.draw(st.lists(floats, min_size=m, max_size=m)), dtype=float),
        "epsilon": data.draw(floats),
        "pair": [0, 1],
        "pattern": {"kind": "toeplitz", "real": True, "support": [-1, 0]},
    }
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    assert io._json_text(doc) == json.dumps(plain, indent=1, sort_keys=True) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    bounds=st.sampled_from([(-1.0, 1.0, -2.0, 0.5), (1e-300, 3e-300, -1e300, 1e300)]),
    data=st.data(),
)
def test_grid_rows_match_per_row_format(shape, bounds, data):
    values = np.array(
        data.draw(st.lists(floats, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    ).reshape(shape)
    field = GridField(bounds=bounds, values=values)
    expected = "".join(
        f"{_fmt(field.re_centers[i])},{_fmt(field.im_centers[j])},{_fmt(values[i, j])}\n"
        for i in range(shape[0])
        for j in range(shape[1])
    )
    assert _body(io.grid_to_csv(field), "re,im,sigma_min") == expected


@pytest.mark.parametrize("shape", [(50, 50), (1, 7), (7, 1), (3, 4)])
def test_grid_csv_matches_the_three_column_formatter(shape):
    rng = np.random.default_rng(shape[0])
    values = rng.standard_normal(shape) ** 2
    values.flat[0] = 0.0
    values.flat[-1] = 1e-310
    field = GridField(bounds=(-1.3, 2.7, -1e-300, 3e300), values=values)
    text = io.grid_to_csv(field)
    rows = io.format_rows(
        "%.17g,%.17g,%.17g\n",
        np.repeat(field.re_centers, shape[1]),
        np.tile(field.im_centers, shape[0]),
        values.ravel(),
    )
    assert _body(text, "re,im,sigma_min") == rows


coordinates = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1.5, 1.5))


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(coordinates, coordinates), max_size=30))
def test_svg_circles_match_per_point_format(pairs):
    points = _complex(pairs)
    window = (-1.0, 1.0, -1.25, 0.75)
    text = svg.svg_render([("sweep", points)], np.array([0.5j]), window)
    re_min, re_max, im_min, im_max = window
    expected = []
    for z in points:
        if re_min <= z.real <= re_max and im_min <= z.imag <= im_max:
            cx = svg.MARGIN + (z.real - re_min) / (re_max - re_min) * (svg.WIDTH - 2 * svg.MARGIN)
            cy = svg.HEIGHT - svg.MARGIN - (z.imag - im_min) / (im_max - im_min) * (
                svg.HEIGHT - 2 * svg.MARGIN
            )
            expected.append(f'<circle cx="{format(cx, ".6g")}" cy="{format(cy, ".6g")}" r="1.5"/>')
    lines = text.split("\n")
    start = lines.index("<!-- cloud: sweep -->") + 1
    assert lines[start : lines.index("</g>", start)] == expected


def test_rows_are_formatted_in_bounded_chunks(monkeypatch):
    col = np.arange(10) * 0.1
    one = io.format_rows("%.17g,%d\n", col, np.arange(10))
    monkeypatch.setattr(io, "FORMAT_CHUNK_ROWS", 3)
    assert io.format_rows("%.17g,%d\n", col, np.arange(10)) == one
    assert one == "".join(f"{_fmt(x)},{i}\n" for i, x in enumerate(col))


@pytest.mark.parametrize("kind,pattern,meta,row", [
    (WILKINSON_SWEEP, full(5), {"pair": (3, 1), "angles": 500}, 5),
    (RANDOM_BASELINE, toeplitz(5, {-1, 0}), {"samples": 3, "angles": 300, "seed": 9}, 5),
    (TRAJECTORY, toeplitz(5, {0, 2}), {"steps": 419}, 419),
])
def test_cloud_longer_than_a_chunk(kind, pattern, meta, row):
    # More points than FORMAT_CHUNK_ROWS, in rows of a length that does not
    # divide it: a split every FORMAT_CHUNK_ROWS points would cut a row.
    count = len(approx._layout(kind, pattern, meta)[1][0])
    assert count > FORMAT_CHUNK_ROWS and FORMAT_CHUNK_ROWS % row
    rng = np.random.default_rng(count)
    points = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    cloud = PointCloud(points, 0.25, pattern, kind, meta)
    text = io.cloud_to_csv(cloud, "sha")
    assert _body(text, "re,im,source_eigen,angle_index,sample_index") == _per_point_rows(cloud)
