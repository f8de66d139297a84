"""Dataset generation, CSV ingestion, normalization, and windowing."""

from __future__ import annotations

import csv
import io
import json
import logging
from array import array
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InputError, NumericalError, check_integer

log = logging.getLogger(__name__)

_BLOWUP_LIMIT = 1e6
_CSV_BLOCK_CELLS = 2048   # Python floats save_csv holds at once, however long the table
TRAIN_FRAC = 0.7      # the first 70% of the rows fit the scaler and train the model


@dataclass(frozen=True)
class LorenzParams:
    """Lorenz system and integrator settings: dt in (0, 0.05], and steps
    following errors.check_integer from 1, else ConfigError."""
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.01
    steps: int = 15000
    x0: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not 0 < self.dt <= 0.05:
            raise ConfigError(f"dt must be in (0, 0.05] for the fixed-step integrator, got {self.dt}")
        check_integer("steps", self.steps, 1)


def gen_lorenz(params: LorenzParams = LorenzParams()) -> np.ndarray:
    """Lorenz trajectory by classical fixed-step fourth-order integration.

    Returns a (steps, 3) array of (x, y, z) after each step from x0. The
    integration runs on Python floats, which round exactly as the equivalent
    float64 array operations in the same order do.
    """
    sigma, rho, beta, dt = params.sigma, params.rho, params.beta, params.dt
    half, sixth = dt / 2.0, dt / 6.0
    # one preallocated row of doubles per step: a list would keep every value
    # as a Python float object, four times the bytes
    rows = array("d", [0.0]) * (3 * params.steps)
    x, y, z = (float(v) for v in params.x0)
    for i in range(0, len(rows), 3):
        k1x, k1y, k1z = sigma * (y - x), x * (rho - z) - y, x * y - beta * z
        x2, y2, z2 = x + half * k1x, y + half * k1y, z + half * k1z
        k2x, k2y, k2z = sigma * (y2 - x2), x2 * (rho - z2) - y2, x2 * y2 - beta * z2
        x3, y3, z3 = x + half * k2x, y + half * k2y, z + half * k2z
        k3x, k3y, k3z = sigma * (y3 - x3), x3 * (rho - z3) - y3, x3 * y3 - beta * z3
        x4, y4, z4 = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x, k4y, k4z = sigma * (y4 - x4), x4 * (rho - z4) - y4, x4 * y4 - beta * z4
        rows[i] = x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        rows[i + 1] = y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        rows[i + 2] = z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    out = np.frombuffer(rows).reshape(-1, 3)
    # Python float + - * never raise on overflow, so the first row that fails
    # this test (written so that NaN fails it too) is the step that left the
    # bounded region; it is looked for only once the whole table has failed it
    inside = np.abs(out) <= _BLOWUP_LIMIT
    if not inside.all():
        step = np.flatnonzero(~inside.all(axis=1))[0]
        raise NumericalError(f"trajectory diverged at step {step}")
    return out


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_plain(text: str):
    """np.loadtxt's reading of a plain file, or None for any other file.

    Returns the header, the first data row's numeric flags and a column
    getter. A file is plain when it has no quote character, no line break
    but LF or CRLF, no blank line, a data row, rows as wide as the header,
    and numeric cells that np.loadtxt reads (it rejects some that float()
    reads, such as '1_0'). np.loadtxt parses a cell with CPython's
    PyOS_string_to_double, as float() does, so the numbers are the csv
    path's.
    """
    if '"' in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()               # the final line break ends the last row
    if len(lines) < 2 or "" in lines or "\r" in lines:
        return None
    # np.loadtxt takes a CR that ends a line as part of the break and rejects
    # any other CR in the rows it parses, but it skips the header
    head, row = (line.removesuffix("\r") for line in lines[:2])
    header, first = head.split(","), row.split(",")
    if "\r" in head or len(first) != len(header):
        return None
    numeric = [_is_float(cell) for cell in first]
    # text columns are dropped, but keeping them in the parse makes loadtxt
    # check every row's width against the first's, which usecols would not
    ignored = {j: (lambda cell: 0.0) for j, num in enumerate(numeric) if not num}
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, skiprows=1, ndmin=2,
                           converters=ignored)
    except ValueError:
        return None
    return header, numeric, lambda j: table[:, j]


def _read_csv(path, text: str):
    """Header, first-row numeric flags and column getter by the csv module.

    The getter parses a column with Python's float() and raises InputError
    naming the first cell that is not a number.
    """
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise InputError(f"empty file: {path}")
    header, body = rows[0], rows[1:]
    if not body:
        raise InputError(f"no data rows in {path}")
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise InputError(f"ragged row {i + 2} in {path}: {len(row)} fields, expected {width}")

    def column(j: int) -> np.ndarray:
        try:
            # numpy parses each string cell with Python's own float()
            return np.array([row[j] for row in body], dtype=float)
        except ValueError:
            i = next(i for i, row in enumerate(body) if not _is_float(row[j]))
            raise InputError(f"numeric column {header[j]!r} of {path} holds the cell "
                             f"{body[i][j]!r} on line {i + 2}, which is not a number") from None

    return header, [_is_float(cell) for cell in body[0]], column


def load_csv(path) -> tuple[list[str], np.ndarray]:
    """Parse a headed UTF-8 CSV, keeping only numeric, non-constant columns.

    A column whose first data cell is not a number is text and is dropped;
    every dropped column gets one log line. A later cell that is not a
    number in a numeric column (a blank one, say) raises InputError naming
    the column, its file line and the cell. A leading byte order mark is
    not part of the first name. Unreadable files raise OSError; content
    problems, bytes that are not UTF-8 among them, raise InputError.

    Cells read as Python's float() reads them, and fields, quoting and line
    breaks as the csv module reads them. A plain file (no quote character,
    LF or CRLF line breaks, no blank line, every row as wide as the header,
    every numeric cell in a form np.loadtxt reads) is parsed by np.loadtxt;
    every other file, and every error, comes from the csv module path. Both
    give the same names, bytes and log lines.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    header, numeric, column = _read_plain(text) or _read_csv(path, text)
    names: list[str] = []
    cols: list[np.ndarray] = []
    for j, name in enumerate(header):
        if not numeric[j]:
            log.info("dropped non-numeric column %r", name)
            continue
        col = column(j)
        if np.min(col) == np.max(col):
            log.info("dropped constant column %r", name)
            continue
        names.append(name)
        cols.append(col)
    if not cols:
        raise InputError(f"no usable numeric columns in {path}")
    return names, np.column_stack(cols)


def save_csv(path, names: list[str], table: np.ndarray) -> None:
    """Write a feature table in the same schema load_csv reads.

    Each cell is the repr of its float, which reads back bit for bit. The
    rows are written one block of at most _CSV_BLOCK_CELLS (2,048) cells, and
    at least one row, at a time, so memory does not grow with the table. A
    table that is not 2-d, or whose width is not len(names), raises
    InputError.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(names):
        raise InputError(f"need a 2-d table with one column per name, got shape "
                         f"{table.shape} for {len(names)} names")
    rows = max(1, _CSV_BLOCK_CELLS // max(1, table.shape[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for lo in range(0, table.shape[0], rows):
            writer.writerows(table[lo:lo + rows].tolist())


def save_json(path, doc: dict) -> None:
    """Write a JSON document indented by two spaces, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Feature table normalized to [0, 1] with statistics from the train split only.

    Test rows keep whatever value the train-fitted scaler gives them; values
    outside [0, 1] are not clipped.
    """
    features: np.ndarray
    split_index: int
    col_min: np.ndarray
    col_max: np.ndarray


def normalize(names: list[str], table: np.ndarray) -> TimeSeriesDataset:
    """Min-max scale each column on the train split, the first TRAIN_FRAC of the rows.

    A NaN or infinite cell raises InputError naming its column and its row,
    counted from 0 over the table's rows.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 2:
        raise InputError(f"need a 2-d table with at least 2 rows, got shape {table.shape}")
    if len(names) != table.shape[1]:
        raise InputError(f"{len(names)} names for {table.shape[1]} columns")
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise InputError(f"column {names[col]!r} holds the non-finite value "
                         f"{table[row, col]} at row {row}")
    split = int(np.floor(TRAIN_FRAC * table.shape[0]))
    # one pass down each column: reducing a (rows, columns) table along its
    # rows would run numpy's inner loop over one row's few cells at a time
    cmin = np.array([col.min() for col in table[:split].T])
    cmax = np.array([col.max() for col in table[:split].T])
    flat = np.nonzero(cmax == cmin)[0]
    if flat.size:
        raise InputError(f"column {names[flat[0]]!r} is constant over the train split "
                         f"(the first {split} rows), so it cannot be scaled")
    features = (table - cmin) / (cmax - cmin)
    return TimeSeriesDataset(features=features, split_index=split, col_min=cmin, col_max=cmax)


def split_controls(dataset: TimeSeriesDataset, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Last k columns become control inputs, the rest are forecast targets.

    k follows errors.check_integer from 1 and must leave one target column,
    else ConfigError.
    """
    check_integer("control count k", k, 1)
    n_feat = dataset.features.shape[1]
    if k >= n_feat:
        raise ConfigError(f"control count k = {k} must satisfy 1 <= k < {n_feat}")
    return dataset.features[:, : n_feat - k], dataset.features[:, n_feat - k:]


def window_count(n_rows: int, seq_len: int, horizon: int, stride: int) -> int:
    """Windows of seq_len + horizon rows, stride apart, in n_rows rows: zero,
    with a warning, when the series is too short for one."""
    if n_rows < seq_len + horizon:
        log.warning("series of %d rows too short for seq_len %d + horizon %d",
                    n_rows, seq_len, horizon)
        return 0
    return (n_rows - seq_len - horizon) // stride + 1


def windows(states: np.ndarray, controls: np.ndarray, seq_len: int, horizon: int,
            stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every window as a view of the series: histories (W, F_state, seq_len),
    future controls (W, horizon, F_control) and targets (W, F_state, horizon).

    Window w starts at row w * stride; W is window_count(...), zero (with its
    warning) when the series is too short. seq_len, horizon and stride follow
    the integer rule (errors.check_integer) from 1, as ModelConfig's do.
    """
    for name, value in (("seq_len", seq_len), ("horizon", horizon), ("stride", stride)):
        check_integer(name, value, 1)
    n_rows = states.shape[0]
    if controls.shape[0] != n_rows:
        raise InputError("states and controls are not aligned in time")
    if window_count(n_rows, seq_len, horizon, stride) == 0:
        return (np.empty((0, states.shape[1], seq_len)),
                np.empty((0, horizon, controls.shape[1])),
                np.empty((0, states.shape[1], horizon)))
    hist = sliding_window_view(states[:n_rows - horizon], seq_len, axis=0)[::stride]
    u_future = sliding_window_view(controls[seq_len:], horizon, axis=0)[::stride]
    targets = sliding_window_view(states[seq_len:], horizon, axis=0)[::stride]
    return hist, u_future.swapaxes(1, 2), targets
