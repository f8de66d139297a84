"""tools/fingerprint.py hashes what the model computes; two runs agree."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def test_fingerprint_is_the_same_on_every_run():
    runs = [subprocess.run([sys.executable, str(TOOL), "default"], capture_output=True,
                           text=True, check=True).stdout.split() for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][::2] == ["default", "all"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in runs[0][1::2])


def test_fingerprint_rejects_an_unknown_config():
    done = subprocess.run([sys.executable, str(TOOL), "nope"], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown config(s) ['nope']" in done.stderr
