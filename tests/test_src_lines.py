"""tools/src_lines.py counts code lines: not blank, not comment-only and not
part of a module, class or function docstring."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import math   # a trailing comment keeps the line


# a comment-only line
class Box:
    """Class docstring."""
    size = 2

    def area(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi * self.size ** 2, text
'''


def test_src_lines_counts_code_lines(tmp_path):
    (tmp_path / "one.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "two.py").write_text("x = 1\n\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    # code: import, class, size, def, text (two lines), return
    assert [row.split() for row in out if row] == [["module", "code", "total"],
                                                   ["one.py", "7", "16"],
                                                   ["two.py", "1", "2"],
                                                   ["sum", "8", "18"]]
