"""tools/peaks.py prints fit's traced memory and training budget per config."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peaks.py"


def test_peaks_prints_one_row_per_config():
    out = subprocess.run([sys.executable, str(TOOL), "bench-csv-legt"], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    header, row = [line.split() for line in out if line]
    assert header == ["config", "fit_B", "build_B", "table_B", "epochs/block",
                      "batches/gather"]
    name, fit, build, table, block, per = row[0], *map(int, row[1:])
    # 219 windows of 4 features and one control: 9 sums per window
    assert name == "bench-csv-legt" and table == 219 * 9 * 8
    assert table < build and fit <= 1.01 * build
    assert 1 <= block <= 5 and per >= 1
