import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvmdtd

SCRIPT = Path(__file__).with_name("golden.py")


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def _check_golden(*python_args):
    src = str(Path(nvmdtd.__file__).resolve().parents[1])
    env = os.environ | {"OPENBLAS_NUM_THREADS": "1",
                        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *python_args, str(SCRIPT)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "all digests match"


def test_outputs_match_golden_digests():
    """Every file and printout of the golden cases keeps its recorded sha256.

    The cases run in one subprocess at one BLAS thread, the thread count the
    digests were recorded at.  A declared seeded change reruns the script
    with ``--update`` and names the files whose digests moved.
    """
    _check_golden()


# Run as ``python -c PIN_ONE_CPU script``: the child keeps one of its CPUs,
# then runs the script as ``__main__``.
PIN_ONE_CPU = ("import os, runpy, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "runpy.run_path(sys.argv.pop(1), run_name='__main__')")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here")
def test_outputs_match_golden_digests_on_one_cpu():
    """The digests do not depend on the number of CPUs.

    The child cuts its own affinity to one CPU before it imports the package,
    so the recurrent forward's tile pool runs one worker instead of one per
    CPU of the parent.
    """
    _check_golden("-c", PIN_ONE_CPU)


def test_golden_table_covers_every_command():
    golden = _load_golden()
    from nvmdtd.cli import _build_parser

    table = json.loads(golden.GOLDEN.read_text())
    assert set(table) == set(golden.CASES)
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {command for command, _, _ in golden.CASES.values()} == set(subparsers.choices)
    for name, digests in table.items():
        assert golden.STDOUT_KEY in digests and "config-resolved.json" in digests, name


def test_update_prints_moved_digests_before_rewriting(tmp_path, monkeypatch, capsys):
    golden = _load_golden()
    table = tmp_path / "golden.json"
    table.write_text(json.dumps({"gen": {"<stdout>": "a", "data.txt": "b"}}))
    fresh = {"gen": {"<stdout>": "a", "data.txt": "c"}}
    monkeypatch.setattr(golden, "GOLDEN", table)
    monkeypatch.setattr(golden, "run_all", lambda: fresh)
    assert golden.main(["--update"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "gen/data.txt: b -> c", f"wrote 2 digests to {table}"]
    assert json.loads(table.read_text()) == fresh


def test_script_sets_one_blas_thread_and_module_sets_none():
    before = dict(os.environ)
    _load_golden()
    assert dict(os.environ) == before
    # As a script (here stopped by --help before any case runs) it pins both counts.
    show = ("import os, runpy, sys\n"
            "try:\n    runpy.run_path(sys.argv.pop(1), run_name='__main__')\n"
            "except SystemExit:\n"
            "    print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
    env = os.environ | {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", show, str(SCRIPT), "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 1"
