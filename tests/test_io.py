"""The bulk writers against per-value ``format`` references, exact round
trips through the numpy readers, and the matrix reader's pause of the
cyclic collector."""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec import GridField, PointCloud, approx, families, full, io, svg, toeplitz
from pseudospec.approx import RANDOM_BASELINE, TRAJECTORY, WILKINSON_SWEEP
from pseudospec.errors import BadParams, OutOfBounds
from pseudospec.io import FORMAT_CHUNK_VALUES

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
@given(cloud=laid_out_clouds(), chunk=st.sampled_from([1, 2, 3, 5, 7, FORMAT_CHUNK_VALUES]))
def test_cloud_rows_match_per_row_format_and_round_trip(tmp_path_factory, cloud, chunk):
    # The provenance the layout gives is written by the per-point rule,
    # whatever the chunk size: chunks shorter than a row, and chunk edges
    # that a point-wise split would put inside a row ...
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "FORMAT_CHUNK_VALUES", chunk)
        text = io.cloud_to_csv(cloud, "sha")
    assert _body(text, "re,im,source_eigen,angle_index,sample_index") == _per_point_rows(cloud)

    # ... and read back without loss.
    path = tmp_path_factory.mktemp("cloud") / "c.csv"
    io.save_cloud(str(path), cloud, "sha")
    loaded, header = io.load_cloud(str(path), dim_hint=cloud.pattern.dim)
    assert np.array_equal(_bits(loaded.points), _bits(cloud.points))
    for name in ("source_eigen", "angle_index", "sample_index"):
        assert np.array_equal(getattr(loaded, name), getattr(cloud, name))
    assert (loaded.kind, loaded.meta, loaded.pattern) == (cloud.kind, cloud.meta, cloud.pattern)
    assert header["matrix_sha256"] == "sha"


@pytest.mark.parametrize("kind,meta", [
    (WILKINSON_SWEEP, {"pair": (0, 2), "angles": 3}),
    (RANDOM_BASELINE, {"samples": 2, "angles": 3, "seed": 4}),
    (TRAJECTORY, {"steps": 3}),
])
def test_load_cloud_lays_out_the_rows_once(tmp_path, monkeypatch, kind, meta):
    pattern = toeplitz(3, {-1, 0})
    count = len(approx._layout(kind, pattern, meta)[1][0])
    path = tmp_path / "c.csv"
    io.save_cloud(str(path), PointCloud(np.arange(count) * (1 + 0.5j), 0.5, pattern, kind, meta), "sha")
    calls = []
    monkeypatch.setattr(io, "_layout", lambda *a: calls.append(a) or approx._layout(*a))
    cloud, _ = io.load_cloud(str(path), dim_hint=3)
    assert calls == [(kind, pattern, meta, count)] and len(cloud) == count


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
    cells = np.column_stack((
        np.repeat(field.re_centers, shape[1]),
        np.tile(field.im_centers, shape[0]),
        values.ravel(),
    ))
    rows = io.format_rows(["%.17g,%.17g,%.17g\n"] * values.size, cells)
    assert _body(text, "re,im,sigma_min") == rows


coordinates = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1.5, 1.5))
WINDOW = (-1.0, 1.0, -1.25, 0.75)


def _screen(points, window=WINDOW):
    """Screen (x, y) of each point inside the window, one point at a time."""
    re_min, re_max, im_min, im_max = window
    for z in points:
        if re_min <= z.real <= re_max and im_min <= z.imag <= im_max:
            yield (svg.MARGIN + (z.real - re_min) / (re_max - re_min) * (svg.WIDTH - 2 * svg.MARGIN),
                   svg.HEIGHT - svg.MARGIN - (z.imag - im_min) / (im_max - im_min) * (
                       svg.HEIGHT - 2 * svg.MARGIN))


def _group(text, first_line):
    """The lines of the SVG group opened by ``first_line``."""
    lines = text.split("\n")
    start = lines.index(first_line) + 1
    return lines[start : lines.index("</g>", start)]


def _circles(points):
    return [f'<circle cx="{format(x, ".6g")}" cy="{format(y, ".6g")}" r="1.5"/>'
            for x, y in _screen(points)]


def _squares(eigenvalues):
    return [f'<rect x="{format(x - 3, ".6g")}" y="{format(y - 3, ".6g")}" width="6" height="6"/>'
            for x, y in _screen(eigenvalues)]


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(coordinates, coordinates), max_size=30))
def test_svg_circles_match_per_point_format(pairs):
    points = _complex(pairs)
    text = svg.svg_render([("sweep", points)], np.array([0.5j]), WINDOW)
    assert _group(text, "<!-- cloud: sweep -->") == _circles(points)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(coordinates, coordinates), max_size=12))
def test_svg_markers_match_per_eigenvalue_format(pairs):
    eigenvalues = _complex(pairs)
    text = svg.svg_render([("sweep", np.array([0.5j]))], eigenvalues, WINDOW)
    assert _group(text, f'<g fill="{svg.EIGEN_COLOR}">') == _squares(eigenvalues)


@pytest.mark.parametrize("window", [WINDOW, (-3e-300, 1e-300, 2.0, 2.5), (0.1, 0.7, -1e300, 1e300)])
def test_svg_ticks_match_per_tick_format(window):
    # Tick by tick, as lo + (hi - lo) * i / (TICKS - 1) where that product
    # does not overflow.
    re_min, re_max, im_min, im_max = window
    expected = []
    for i in range(svg.TICKS):
        value = re_min + (re_max - re_min) * i / (svg.TICKS - 1)
        x = format(svg.MARGIN + (value - re_min) / (re_max - re_min) * (svg.WIDTH - 2 * svg.MARGIN), ".6g")
        expected += [
            f'<line x1="{x}" y1="{svg.HEIGHT - svg.MARGIN}" x2="{x}" '
            f'y2="{svg.HEIGHT - svg.MARGIN + 6}" stroke="black"/>',
            f'<text x="{x}" y="{svg.HEIGHT - svg.MARGIN + 20}" font-size="11" '
            f'text-anchor="middle">{format(value, ".6g")}</text>',
        ]
    for i in range(svg.TICKS):
        value = im_min + (im_max - im_min) * i / (svg.TICKS - 1)
        y = format(svg.HEIGHT - svg.MARGIN
                   - (value - im_min) / (im_max - im_min) * (svg.HEIGHT - 2 * svg.MARGIN), ".6g")
        expected += [
            f'<line x1="{svg.MARGIN - 6}" y1="{y}" x2="{svg.MARGIN}" y2="{y}" stroke="black"/>',
            f'<text x="{svg.MARGIN - 9}" y="{y}" font-size="11" '
            f'text-anchor="end">{format(value, ".6g")}</text>',
        ]
    lines = svg.svg_render([], np.array([0.0]), window).split("\n")
    assert lines[4 : 4 + 4 * svg.TICKS] == expected


def test_svg_ticks_of_a_window_near_the_float_maximum():
    # (hi - lo) * (TICKS - 1) overflows here, but no tick does.
    text = svg.svg_render([], np.array([0.0]), (-2.6e307, 2.6e307, -8e307, 8e307))
    assert "inf" not in text and "nan" not in text
    lines = text.split("\n")[4 : 4 + 4 * svg.TICKS]
    right, top = svg.WIDTH - svg.MARGIN, svg.MARGIN  # where the last ticks sit
    assert lines[2 * svg.TICKS - 2].startswith(f'<line x1="{right}" y1="{svg.HEIGHT - svg.MARGIN}" x2="{right}"')
    assert lines[2 * svg.TICKS - 1].endswith(">2.6e+307</text>")
    assert lines[-2] == f'<line x1="{svg.MARGIN - 6}" y1="{top}" x2="{svg.MARGIN}" y2="{top}" stroke="black"/>'
    assert lines[-1].endswith(">8e+307</text>")


@pytest.mark.parametrize("window", [
    (-np.inf, np.inf, -1.0, 1.0), (-1.7e308, 1.7e308, -1.0, 1.0), (0.0, 1.0, -1e308, 1e308),
    (0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 0.0, np.nan),
])
def test_svg_window_needs_finite_positive_spans(window):
    with pytest.raises(OutOfBounds, match="plot window"):
        svg.svg_render([("sweep", np.array([0.5]))], np.array([0.5]), window)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, FORMAT_CHUNK_VALUES])
def test_every_table_is_chunk_invariant(monkeypatch, chunk):
    # Grid rows, JSON arrays and SVG marks with chunks shorter than a row,
    # of a row and of many rows, each against its one-value-at-a-time text.
    monkeypatch.setattr(io, "FORMAT_CHUNK_VALUES", chunk)
    rng = np.random.default_rng(chunk)
    for shape in [(50, 50), (1, 7), (7, 1)]:
        field = GridField(bounds=(-1.3, 2.7, -0.5, 3e300), values=rng.standard_normal(shape) ** 2)
        expected = "".join(f"{_fmt(re)},{_fmt(im)},{_fmt(field.values[i, j])}\n"
                           for i, re in enumerate(field.re_centers)
                           for j, im in enumerate(field.im_centers))
        assert _body(io.grid_to_csv(field), "re,im,sigma_min") == expected

    doc = {"eigenvalues": rng.standard_normal((9, 2)), "kappa": rng.standard_normal(9),
           "empty": np.empty((0, 2)), "pair": [0, 1]}
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    assert io._json_text(doc) == json.dumps(plain, indent=1, sort_keys=True) + "\n"

    points = rng.uniform(-1.2, 1.2, 300) + 1j * rng.uniform(-1.4, 0.9, 300)
    text = svg.svg_render([("sweep", points), ("baseline", points[::-1])], points[:40], WINDOW)
    assert _group(text, "<!-- cloud: sweep -->") == _circles(points)
    assert _group(text, "<!-- cloud: baseline -->") == _circles(points[::-1])
    assert _group(text, f'<g fill="{svg.EIGEN_COLOR}">') == _squares(points[:40])


def test_rows_are_formatted_in_bounded_chunks(monkeypatch):
    col = np.arange(10) * 0.1
    table = np.column_stack((col, np.arange(10)))
    one = io.format_rows(["%.17g,%d\n"] * 10, table)
    monkeypatch.setattr(io, "FORMAT_CHUNK_VALUES", 3)
    assert io.format_rows(["%.17g,%d\n"] * 10, table) == one
    assert one == "".join(f"{_fmt(x)},{i}\n" for i, x in enumerate(col))


def test_templates_are_filled_in_turn(monkeypatch):
    # Each template takes the next floats in order, whatever its text, and
    # no template is split across chunks.
    templates = ["a%.17g;%.17g\n", "b%r,%r\n", "c%.6g %.6g\n"]
    values = np.array([0.1, -0.0, 1e300, 5e-324, 2.0 / 3.0, -7.0])
    expected = "a0.10000000000000001;-0\nb1e+300,5e-324\nc0.666667 -7\n"
    for chunk in (1, 2, 3, 4, 7, FORMAT_CHUNK_VALUES):
        monkeypatch.setattr(io, "FORMAT_CHUNK_VALUES", chunk)
        assert io.format_rows(templates, values) == expected
        assert io.format_rows(templates, values.reshape(3, 2)) == expected
    assert io.format_rows([], np.empty(0)) == ""


@pytest.mark.parametrize("kind,pattern,meta,row", [
    (WILKINSON_SWEEP, full(5), {"pair": (3, 1), "angles": 500}, 5),
    (RANDOM_BASELINE, toeplitz(5, {-1, 0}), {"samples": 3, "angles": 300, "seed": 9}, 5),
    (TRAJECTORY, toeplitz(5, {0, 2}), {"steps": 419}, 419),
])
def test_cloud_longer_than_a_chunk(kind, pattern, meta, row):
    # More floats than FORMAT_CHUNK_VALUES, in rows of a length that does
    # not divide it: a split every FORMAT_CHUNK_VALUES floats would cut a row.
    count = len(approx._layout(kind, pattern, meta)[1][0])
    assert 2 * count > FORMAT_CHUNK_VALUES and FORMAT_CHUNK_VALUES % (2 * row)
    rng = np.random.default_rng(count)
    points = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    cloud = PointCloud(points, 0.25, pattern, kind, meta)
    text = io.cloud_to_csv(cloud, "sha")
    assert _body(text, "re,im,source_eigen,angle_index,sample_index") == _per_point_rows(cloud)


@pytest.fixture
def hamiltonian_40(tmp_path):
    """A saved 40 x 40 hamiltonian_random matrix, declared Hamiltonian:
    1600 entries, so json builds 1600 two-element lists."""
    path = tmp_path / "h40.json"
    A, pattern, _ = families.generate("hamiltonian_random", 40, 0)
    io.save_matrix(str(path), A, pattern)
    return str(path)


def test_load_matrix_runs_no_collection(hamiltonian_40):
    # With the collector running, the entry lists set off a collection of
    # generation 0 every 100 allocations here.  A full collection empties
    # the list free list, whose refill leaves the generation-0 count about
    # 80 up; so one load refills it first, as any earlier list would in a
    # running program, and gc.collect(0) then zeroes the count.
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    io.load_matrix(hamiltonian_40)
    gc.collect(0)
    gc.set_threshold(100)
    gc.callbacks.append(count)
    try:
        io.load_matrix(hamiltonian_40)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert starts == []


def test_load_matrix_reads_the_entries_bit_for_bit(hamiltonian_40, tmp_path):
    edges = tmp_path / "edges.json"
    io.save_matrix(str(edges), _complex(list(zip(EDGE_FLOATS[:16], EDGE_FLOATS[3:]))).reshape(4, 4))
    for path in (hamiltonian_40, str(edges)):
        A, _ = io.load_matrix(path)
        with open(path) as fh:
            parts = np.array(json.load(fh)["entries"], dtype=float)
        assert A.view(float).ravel().tobytes() == parts.tobytes()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fault", [None, "entry-count", "non-numeric"])
def test_load_matrix_leaves_the_collector_as_it_found_it(tmp_path, enabled, fault):
    path = tmp_path / "m.json"
    io.save_matrix(str(path), np.eye(2))
    doc = json.loads(path.read_text())
    if fault == "entry-count":
        doc["entries"].pop()
    elif fault == "non-numeric":
        doc["entries"][1][0] = "one"
    path.write_text(json.dumps(doc))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fault is None:
            io.load_matrix(str(path))
        else:
            with pytest.raises(BadParams):
                io.load_matrix(str(path))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
