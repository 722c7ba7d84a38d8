import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import nvmdtd

SCRIPT = Path(__file__).with_name("golden.py")


def test_outputs_match_golden_digests():
    """Every file and printout of the golden cases keeps its recorded sha256.

    The cases run in one subprocess at one BLAS thread, the thread count the
    digests were recorded at.  A declared seeded change reruns the script
    with ``--update`` and names the files whose digests moved.
    """
    src = str(Path(nvmdtd.__file__).resolve().parents[1])
    env = os.environ | {"OPENBLAS_NUM_THREADS": "1",
                        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "all digests match"


def test_golden_table_covers_every_command():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    from nvmdtd.cli import _COMMANDS

    table = json.loads(golden.GOLDEN.read_text())
    assert set(table) == set(golden.CASES)
    assert {command for command, _, _ in golden.CASES.values()} == set(_COMMANDS)
    for name, digests in table.items():
        assert golden.STDOUT_KEY in digests and "config-resolved.json" in digests, name
