import csv
import logging

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kooba import (ConfigError, InputError, LorenzParams, NumericalError, data, gen_lorenz,
                   load_csv, normalize, save_csv, split_controls, window_count, windows)

from conftest import traced_peak

EQUILIBRIUM = (np.sqrt(72.0), np.sqrt(72.0), 27.0)


def _array_rk4(params):
    """The same RK4 steps as float64 array operations, in the same order."""
    sigma, rho, beta, dt = params.sigma, params.rho, params.beta, params.dt

    def deriv(v):
        x, y, z = v
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    out = np.empty((params.steps, 3))
    v = np.array(params.x0, dtype=float)
    for i in range(params.steps):
        k1 = deriv(v)
        k2 = deriv(v + dt / 2.0 * k1)
        k3 = deriv(v + dt / 2.0 * k2)
        k4 = deriv(v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = v
    return out


@pytest.mark.parametrize("params", [
    LorenzParams(),
    LorenzParams(steps=50, x0=(0.0, 0.0, 0.0)),
    LorenzParams(steps=10, x0=EQUILIBRIUM),
    LorenzParams(dt=0.005, steps=200),
    LorenzParams(dt=0.0025, steps=400),
], ids=["default", "origin", "equilibrium", "dt0.005", "dt0.0025"])
def test_lorenz_is_bit_identical_to_array_rk4(params):
    assert np.array_equal(gen_lorenz(params), _array_rk4(params))


@pytest.mark.parametrize("x0", [(1e7, 1e7, 1e7), (float("nan"), 1.0, 1.0),
                                (1.0, float("inf"), 1.0)])
def test_lorenz_divergence_is_rejected(x0):
    with pytest.raises(NumericalError, match="diverged at step 0"):
        gen_lorenz(LorenzParams(steps=5, x0=x0))


def test_lorenz_divergence_names_the_first_step_out_of_bounds():
    # from (100, -100, 100) at the largest dt the state leaves the bounded
    # region a few steps in; the error names the first such step
    params = LorenzParams(dt=0.05, steps=40, x0=(100.0, -100.0, 100.0))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _array_rk4(params)
    first = np.flatnonzero(~(np.abs(ref) <= 1e6).all(axis=1))[0]
    assert first > 0
    with pytest.raises(NumericalError, match=f"diverged at step {first}$"):
        gen_lorenz(params)


def test_lorenz_zero_is_a_fixed_point():
    out = gen_lorenz(LorenzParams(steps=50, x0=(0.0, 0.0, 0.0)))
    np.testing.assert_allclose(out, 0.0)


def test_lorenz_equilibrium_holds():
    # (sqrt(beta (rho-1)), sqrt(beta (rho-1)), rho - 1) is a fixed point
    out = gen_lorenz(LorenzParams(steps=10, x0=EQUILIBRIUM))
    np.testing.assert_allclose(out, np.tile(EQUILIBRIUM, (10, 1)), atol=1e-6)


def test_lorenz_integrator_is_fourth_order():
    def rhs(t, v):
        return [10.0 * (v[1] - v[0]), v[0] * (28.0 - v[2]) - v[1],
                v[0] * v[1] - 8.0 / 3.0 * v[2]]

    ref = solve_ivp(rhs, [0.0, 1.0], [1.0, 1.0, 1.0], rtol=1e-12, atol=1e-12,
                    dense_output=True).sol(1.0)
    errs = []
    for dt, steps in ((0.005, 200), (0.0025, 400)):
        out = gen_lorenz(LorenzParams(dt=dt, steps=steps))
        errs.append(np.linalg.norm(out[-1] - ref))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 24.0  # halving the step cuts the error ~2^4


def test_lorenz_stays_on_the_attractor():
    out = gen_lorenz(LorenzParams(steps=15000))
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) < 100.0


def test_lorenz_param_guards():
    with pytest.raises(ConfigError):
        LorenzParams(dt=0.2)
    with pytest.raises(ConfigError):
        LorenzParams(dt=-0.01)
    with pytest.raises(ConfigError):
        LorenzParams(steps=0)


def test_csv_round_trip(tmp_path):
    # bit for bit, signed zeros and subnormals included
    rng = np.random.default_rng(4)
    table = rng.normal(size=(12, 2)) * [1e-300, 1e300]
    table[:7, 0] = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-310, 1e308, -1e308]
    table[:2, 1] = [-0.0, np.nextafter(1.0, 2.0)]
    path = tmp_path / "t.csv"
    save_csv(path, ["a", "b"], table)
    names, loaded = load_csv(path)
    assert names == ["a", "b"]
    assert loaded.tobytes() == table.tobytes()


def test_csv_text_is_exact(tmp_path):
    # each cell is the shortest repr that reads back to the same float
    path = tmp_path / "t.csv"
    save_csv(path, ["a", "b"], np.array([[-0.0, 5e-324], [1e308, np.nextafter(1.0, 2.0)]]))
    assert path.read_bytes() == b"a,b\r\n-0.0,5e-324\r\n1e+308,1.0000000000000002\r\n"


# names that csv.writer must quote, and cells whose repr is at an edge of float64
QUOTED_NAMES = ["x,km", 'say "hi"', "two\nlines", "cr\rend", "crlf\r\nend"]
EDGE_CELLS = [-0.0, 5e-324, 1e308, np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)],
                         ids=["no-rows", "one-row", "block-minus-one", "one-block",
                              "block-plus-one"])
def test_save_csv_writes_what_one_csv_writer_call_writes(tmp_path, width, blocks, extra):
    rows = blocks * (data._CSV_BLOCK_CELLS // width) + extra
    table = np.random.default_rng(rows).normal(size=(rows, width)) * 1e3
    cells = table.reshape(-1)
    cells[:len(EDGE_CELLS)] = EDGE_CELLS[:cells.size]
    names = QUOTED_NAMES[:width]
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(table.tolist())
    path = tmp_path / "t.csv"
    save_csv(path, names, table)
    assert path.read_bytes() == reference.read_bytes()


def test_save_csv_memory_does_not_grow_with_the_table(tmp_path):
    # the rows go out one block at a time, so the whole table is never a list
    rng = np.random.default_rng(9)
    names = ["x_km", "y_km", "alt_m", "speed_mps", "climb_cmd_mps"]
    peaks = {rows: traced_peak(save_csv, tmp_path / f"{rows}.csv", names,
                               rng.normal(size=(rows, len(names))))
             for rows in (10_000, 40_000)}
    assert peaks[40_000] <= 1.1 * peaks[10_000]


@pytest.mark.parametrize("names, table, shape", [
    (["a"], np.ones(3), r"\(3,\)"),
    (["a", "b"], np.ones((2, 2, 2)), r"\(2, 2, 2\)"),
    (["a", "b"], np.ones((4, 3)), r"\(4, 3\)"),
], ids=["one-d", "three-d", "width-is-not-the-name-count"])
def test_save_csv_rejects_a_table_that_does_not_fit_its_names(tmp_path, names, table, shape):
    path = tmp_path / "t.csv"
    with pytest.raises(InputError, match=f"shape {shape} for {len(names)} names$"):
        save_csv(path, names, table)
    assert not path.exists()


TRACK = ("phase,x_km,squawk,alt_m\n"
         + "".join(f"{'climb' if i % 3 else 'cruise'},{0.25 * i - 1.0!r},7000,{3000.0 + 7.5 * i!r}\n"
                   for i in range(40)))
CELLS = {"underscore": "1_0", "arabic": "\u0661\u0662", "spaced": " 1.5 ", "tiny": "1e-400",
         "huge": "1e500", "-inf": "-inf", "empty": "", "hex": "0x10"}
ONLY_FLOAT_READS = {"underscore", "arabic"}     # np.loadtxt rejects these numbers
NOT_NUMBERS = {"empty", "hex"}

# file text -> whether np.loadtxt serves it (True) or the csv path (False)
CSV_CORPUS = {
    "track": (TRACK, True),
    "crlf-no-final-newline": (TRACK.replace("\n", "\r\n").removesuffix("\r\n"), True),
    "lone-cr": (TRACK.replace("\n", "\r"), False),
    "lone-cr-in-header": ("t\ra,b\n1,2\n3,4\n", False),
    "lone-cr-in-row": ("a,b\n1,2\r3,4\n5,6\n", False),
    "byte-order-mark": ("\ufeff" + TRACK, True),
    "blank-line-mid": (TRACK.replace("\n", "\n\n", 5).replace("\n\n", "\n", 4), False),
    "blank-line-end": (TRACK + "\n", False),
    "blank-line-crlf": ((TRACK + "\n" + TRACK.split("\n", 1)[1]).replace("\n", "\r\n"), False),
    "space-line": (TRACK.replace("\n", "\n \n", 3).replace("\n \n", "\n", 2), False),
    "short-row": (TRACK + "climb,1.5,7000\n" + TRACK.split("\n", 1)[1], False),
    "long-row": (TRACK + "climb,1.5,7000,1.0,2.0\n", False),
    "rows-wider-than-header": ("a,b\n1,2,3\n4,5,6\n", False),
    "rows-narrower-than-header": ("a,b,c\n1,2\n4,5\n", False),
    "quoted-number": (TRACK.replace(",7000,3150.0", ',7000,"3150.0"'), False),
    # split at the comma or the line break, each quoted cell would still
    # leave rows of the header's width
    "quoted-comma": ('p,q,a\nx,y,1\n"x,y",2\nx,y,3\n', False),
    "quoted-newline": ('a,t\n1,x\n2,"y\n3,z"\n4,w\n', False),
    "hash-first-cell": ("a,b\n#1,2\n3,4\n5,6\n", True),
    "hash-later-cell": ("a,b\n1,2\n#3,4\n5,6\n", False),
    # in the first data row a cell decides whether its column is text
    **{f"first-{k}": (f"a,b\n{v},1\n2,3\n4,5\n", k not in ONLY_FLOAT_READS)
       for k, v in CELLS.items()},
    **{f"later-{k}": (f"a,b\n1,2\n{v},3\n4,5\n", k not in ONLY_FLOAT_READS | NOT_NUMBERS)
       for k, v in CELLS.items()},
    "one-column": ("a\n1\n2\n3\n", True),
    "one-row": ("a,b\n1,2\n", True),
    "text-only": ("a\nx\ny\n", True),
    "header-only": ("a,b\n", False),
    "empty": ("", False),
}


def _load_outcome(path, caplog):
    caplog.clear()
    try:
        names, table = load_csv(path)
        result = (names, table.tobytes())
    except Exception as exc:
        result = (type(exc), str(exc))
    return result, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("case", CSV_CORPUS)
def test_load_csv_matches_the_csv_path_alone(tmp_path, caplog, monkeypatch, case):
    text, plain = CSV_CORPUS[case]
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (data._read_plain(text.removeprefix("\ufeff")) is not None) == plain
    with caplog.at_level(logging.INFO, logger="kooba.data"):
        served = _load_outcome(path, caplog)
        monkeypatch.setattr(data, "_read_plain", lambda text: None)
        assert served == _load_outcome(path, caplog)


def test_plain_csv_never_reaches_the_csv_path(tmp_path, monkeypatch):
    path = tmp_path / "track.csv"
    path.write_text(TRACK, encoding="utf-8")

    def refuse(path, text):
        raise AssertionError("the csv path parsed a plain file")

    monkeypatch.setattr(data, "_read_csv", refuse)
    names, table = load_csv(path)
    assert names == ["x_km", "alt_m"]
    np.testing.assert_array_equal(table, [[0.25 * i - 1.0, 3000.0 + 7.5 * i] for i in range(40)])


@pytest.mark.parametrize("plain", [True, False], ids=["loadtxt", "csv-module"])
def test_csv_byte_order_mark_is_not_part_of_the_first_name(tmp_path, monkeypatch, plain):
    # spreadsheet "CSV UTF-8" exports begin with one
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffx,y\n1,2\n3,5\n", encoding="utf-8")
    if not plain:
        monkeypatch.setattr(data, "_read_plain", lambda text: None)
    names, _ = load_csv(path)
    assert names == ["x", "y"]


def test_csv_cells_parse_as_python_floats(tmp_path, caplog):
    parsed = ["1_0", " 1.5 ", "\u0661\u0662", "nan", "1e-400", "-inf"]
    rejected = {"empty": "", "hex": "0x10", "comma": "1,5"}
    path = tmp_path / "cells.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ok", *rejected])
        for i, cell in enumerate(parsed):
            writer.writerow([cell, *(v if i == 0 else "1" for v in rejected.values())])
    with caplog.at_level(logging.INFO, logger="kooba.data"):
        names, table = load_csv(path)
    assert names == ["ok"]
    np.testing.assert_array_equal(table[:, 0], [float(c) for c in parsed])
    assert [r.getMessage() for r in caplog.records] == [
        f"dropped non-numeric column {name!r}" for name in rejected]


@pytest.mark.parametrize("cell", ["", "0x10", "n/a"])
def test_csv_rejects_a_later_non_numeric_cell_in_a_numeric_column(tmp_path, cell):
    # a column whose first cell is a number is numeric: a later cell that is
    # not one is an error, not a reason to drop the column
    path = tmp_path / "gap.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerows([["a", "b"], ["0.5", "1"], ["0.6", "2"], ["0.7", cell], ["0.8", "4"]])
    with pytest.raises(InputError) as info:
        load_csv(path)
    assert str(info.value) == (f"numeric column 'b' of {path} holds the cell {cell!r} on line 4, "
                               f"which is not a number")


def test_csv_drops_unusable_columns(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("id,x,label,const,y\n"
                    "0,1.5,up,7,0.1\n"
                    "1,2.5,down,7,0.2\n"
                    "2,3.5,up,7,0.3\n", encoding="utf-8")
    names, table = load_csv(path)
    assert names == ["id", "x", "y"]
    assert table.shape == (3, 3)


def test_csv_content_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv(empty)
    headed = tmp_path / "headed.csv"
    headed.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv(headed)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv(ragged)
    text_only = tmp_path / "text.csv"
    text_only.write_text("a\nx\ny\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv(text_only)
    with pytest.raises(OSError):
        load_csv(tmp_path / "missing.csv")


def test_normalize_uses_train_rows_only():
    table = np.column_stack([np.arange(10.0), np.arange(10.0) * -2.0 + 1.0])
    ds = normalize(["a", "b"], table)
    assert ds.split_index == 7
    # train rows span [0, 1]; later rows may fall outside and are not clipped
    assert ds.features[:7, 0].min() == 0.0
    assert ds.features[:7, 0].max() == 1.0
    assert ds.features[-1, 0] > 1.0
    assert ds.features[-1, 1] < 0.0


def test_normalize_round_trip():
    rng = np.random.default_rng(9)
    table = rng.normal(size=(40, 3)) * [2.0, 5.0, 0.1] + [1.0, -4.0, 0.0]
    ds = normalize(["a", "b", "c"], table)
    np.testing.assert_allclose(ds.features * (ds.col_max - ds.col_min) + ds.col_min, table,
                               atol=1e-12)


def test_normalize_guards():
    with pytest.raises(InputError):
        normalize(["a"], np.ones((1, 1)))
    with pytest.raises(InputError):
        normalize(["a", "b"], np.ones((4, 1)))
    with pytest.raises(InputError):
        normalize(["a"], np.ones((4, 1)))  # constant column
    # a column that varies only after the train split cannot be scaled either
    with pytest.raises(InputError) as info:
        normalize(["a", "b"], np.column_stack([np.arange(10.0), np.arange(10.0) > 6]))
    assert str(info.value) == ("column 'b' is constant over the train split (the first 7 rows), "
                               "so it cannot be scaled")
    # one non-finite cell, even in the test split, would poison its column
    for value in (np.nan, np.inf, -np.inf):
        table = np.column_stack([np.arange(10.0), np.arange(10.0) ** 2])
        table[8, 1] = table[9, 0] = value
        with pytest.raises(InputError, match=f"column 'b' holds the non-finite value "
                                             f"{value} at row 8"):
            normalize(["a", "b"], table)
    # the train split is the first 70% of the rows, rounded down
    assert normalize(["a"], np.arange(3.0)[:, None]).split_index == 2


def test_split_controls():
    table = np.arange(50.0).reshape(10, 5)
    ds = normalize([f"c{i}" for i in range(5)], table)
    states, controls = split_controls(ds, 2)
    assert states.shape == (10, 3)
    assert controls.shape == (10, 2)
    np.testing.assert_array_equal(controls, ds.features[:, 3:])
    with pytest.raises(ConfigError):
        split_controls(ds, 0)
    with pytest.raises(ConfigError):
        split_controls(ds, 5)


def test_window_counts():
    assert window_count(20, 8, 4, 8) == 2
    assert window_count(12, 8, 4, 8) == 1
    assert window_count(11, 8, 4, 8) == 0
    assert window_count(100, 8, 1, 8) == 12


def test_window_alignment():
    states = np.arange(20.0)[:, None]
    controls = np.arange(20.0)[:, None] + 100.0
    hist, u_fut, targets = windows(states, controls, seq_len=8, horizon=4, stride=8)
    assert len(hist) == len(u_fut) == len(targets) == window_count(20, 8, 4, 8) == 2
    np.testing.assert_array_equal(hist[0, 0], np.arange(8.0))
    np.testing.assert_array_equal(u_fut[0, :, 0], np.arange(8.0, 12.0) + 100.0)
    np.testing.assert_array_equal(targets[0, 0], np.arange(8.0, 12.0))
    np.testing.assert_array_equal(hist[1, 0], np.arange(8.0, 16.0))
    np.testing.assert_array_equal(targets[1, 0], np.arange(16.0, 20.0))


def test_windows_are_views_of_the_series():
    states = np.arange(40.0).reshape(20, 2)
    controls = np.arange(20.0)[:, None] + 100.0
    hist, u_fut, targets = windows(states, controls, seq_len=8, horizon=3, stride=4)
    assert hist.shape == (3, 2, 8) and u_fut.shape == (3, 3, 1) and targets.shape == (3, 2, 3)
    assert np.shares_memory(hist, states) and np.shares_memory(u_fut, controls)
    for w in range(3):
        s = 4 * w
        np.testing.assert_array_equal(hist[w].T, states[s:s + 8])
        np.testing.assert_array_equal(u_fut[w], controls[s + 8:s + 11])
        np.testing.assert_array_equal(targets[w].T, states[s + 8:s + 11])


def test_window_short_series_yields_nothing():
    states = np.zeros((5, 1))
    controls = np.zeros((5, 1))
    hist, u_fut, targets = windows(states, controls, seq_len=8, horizon=4, stride=8)
    assert hist.shape == (0, 1, 8) and u_fut.shape == (0, 4, 1) and targets.shape == (0, 1, 4)


def test_window_guards():
    states = np.zeros((20, 1))
    with pytest.raises(ConfigError):
        windows(states, states, 0, 4, 8)
    with pytest.raises(InputError):
        windows(states, np.zeros((19, 1)), 8, 4, 8)


@pytest.mark.parametrize("args, name, value", [
    ((8.0, 1, 8), "seq_len", 8.0), ((8, True, 8), "horizon", True),
    ((8, 1, 4.0), "stride", 4.0), ((8, 0, 8), "horizon", 0)],
    ids=["float-seq-len", "bool-horizon", "float-stride", "zero-horizon"])
def test_window_sizes_follow_the_integer_rule(args, name, value):
    # ModelConfig's rule: a float or a bool is refused by name before
    # anything is sized by it
    states = np.zeros((20, 1))
    with pytest.raises(ConfigError) as info:
        windows(states, states, *args)
    assert str(info.value) == (f"{name} must be an integer from 1 to 9223372036854775807, "
                               f"got {value!r}")
