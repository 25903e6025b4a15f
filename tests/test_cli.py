"""Tests for the command-line interface: formats, determinism, exit codes."""

import json
import math
import multiprocessing
import os
import subprocess
import sys

import pytest

import schubsing.slices
import schubsing.sweep
from schubsing.cli import main
from schubsing.slices import SliceVerdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_smooth_command(capsys):
    code, out, _ = run_cli(capsys, "smooth", "4231")
    assert code == 0
    data = json.loads(out)
    assert data["smooth"] is False
    assert data["witnesses"] == [{"kind": "4231", "positions": [1, 2, 3, 4]}]


def test_smooth_command_smooth_case(capsys):
    code, out, _ = run_cli(capsys, "smooth", "1,2,3,4")
    assert code == 0
    data = json.loads(out)
    assert data["smooth"] is True
    assert data["witnesses"] == []


def test_tangent_command(capsys):
    code, out, _ = run_cli(capsys, "tangent", "2143", "4231")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 6
    assert data["excess"] == 1


def test_tangent_incomparable_exit_2(capsys):
    code, _, err = run_cli(capsys, "tangent", "2143", "1324")
    assert code == 2
    assert "error" in err


def test_singular_locus_command(capsys):
    code, out, _ = run_cli(capsys, "singular-locus", "4231")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 1
    entry = data[0]
    assert entry["v"] == "2,1,4,3"
    assert entry["type"] == "4231"
    assert entry["kl"] == [1, 1]
    assert entry["slice"]["equations"] == ["m_1_3*m_2_4 - m_1_4*m_2_3"]


def test_singular_locus_smooth_case(capsys):
    code, out, _ = run_cli(capsys, "singular-locus", "1234")
    assert code == 0
    assert json.loads(out) == []


def test_kl_component_pair(capsys):
    code, out, _ = run_cli(capsys, "kl", "2143", "4231")
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] == [1, 1]
    assert data["recursion"] == [1, 1]
    assert data["agree"] is True


def test_kl_non_component_pair(capsys):
    code, out, _ = run_cli(capsys, "kl", "1234", "4231")
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] is None
    assert data["recursion"] == [1, 1]
    assert data["agree"] is True


def test_slice_command(capsys):
    code, out, _ = run_cli(capsys, "slice", "1324", "3412", "--trials", "10")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "3412*"
    assert data["free"] == [[1, 2], [1, 3], [2, 4], [3, 4]]
    assert data["equations"] == ["m_1_2*m_3_4 + m_1_3*m_2_4"]
    assert all(
        data["verdict"][key]
        for key in ("tangent_ok", "dim_ok", "containment_ok", "exclusion_ok", "equivalence_ok")
    )


def test_slice_failing_verdict_exit_1(capsys, monkeypatch):
    def failing(*args, **kwargs):
        return SliceVerdict(True, True, False, True, True, samples=1)

    monkeypatch.setattr(schubsing.slices, "verify_slice", failing)
    code, out, _ = run_cli(capsys, "slice", "1324", "3412", "--trials", "1")
    assert code == 1
    assert json.loads(out)["verdict"]["containment_ok"] is False


def test_slice_incomparable_exit_2(capsys):
    code, _, err = run_cli(capsys, "slice", "2143", "1324")
    assert code == 2
    assert "error" in err


def test_report_command(capsys):
    code, out, _ = run_cli(capsys, "report", "3412", "--trials", "5")
    assert code == 0
    data = json.loads(out)
    assert data["smooth"] is False
    assert data["ok"] is True
    assert len(data["components"]) == 1


def test_report_smooth_case(capsys):
    code, out, _ = run_cli(capsys, "report", "1234")
    assert code == 0
    data = json.loads(out)
    assert data["smooth"] is True
    assert data["components"] == []


def test_malformed_permutation_exit_2(capsys):
    code, _, err = run_cli(capsys, "smooth", "34,12")
    assert code == 2
    assert "error" in err


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--n", "4", "--trials", "5")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["failures"] == 0
    assert data["summary"]["permutations_checked"] == 24
    assert data["summary"]["singular_count"] == 2
    assert data["summary"]["component_pairs"] == 2
    assert data["summary"]["smooth_count"] == 22


def test_verify_all_n_guard(capsys):
    assert run_cli(capsys, "verify-all", "--n", "1")[0] == 2
    assert run_cli(capsys, "verify-all", "--n", "9")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("slice", "1324", "3412", "--trials", "0"),
        ("report", "3412", "--trials", "-3"),
        ("verify-all", "--n", "4", "--trials", "0"),
        ("verify-all", "--n", "4", "--jobs", "0"),
        ("verify-all", "--n", "4", "--jobs", "-7"),
        ("verify-all", "--n", "4", "--jobs", str((os.cpu_count() or 1) + 1)),
    ],
)
def test_nonpositive_trials_and_jobs_exit_2(capsys, monkeypatch, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_verify_all_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify-all", "--n", "3")
    _, second, _ = run_cli(capsys, "verify-all", "--n", "3")
    assert first == second


@pytest.mark.parametrize("n", [4, 5])
def test_verify_all_parallel_matches_serial(capsys, n):
    argv = ("verify-all", "--n", str(n), "--trials", "5", "--progress")
    serial = run_cli(capsys, *argv)
    parallel = run_cli(capsys, *argv, "--jobs", "2")
    assert serial == parallel
    assert serial[2].count("permutations\n") == min(40, math.factorial(n))


def test_slice_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "slice", "2143", "4231", "--trials", "7", "--seed", "9")
    _, second, _ = run_cli(capsys, "slice", "2143", "4231", "--trials", "7", "--seed", "9")
    assert first == second


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "schubsing", "smooth", "4231"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["smooth"] is False


def _run_script(script):
    """Run Python source in a fresh interpreter that imports this schubsing."""
    src = os.path.dirname(os.path.dirname(schubsing.sweep.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )


DYING_WORKER = """
import os, sys
import schubsing.sweep
from schubsing.cli import main

parent = os.getpid()
real = schubsing.sweep.verify_permutation

def dying(*args, **kwargs):
    if os.getpid() != parent:
        os._exit(3)
    return real(*args, **kwargs)

schubsing.sweep.verify_permutation = dying
sys.exit(main(["verify-all", "--n", "4", "--trials", "1", "--jobs", "2"]))
"""


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or multiprocessing.get_all_start_methods()[0] != "fork",
    reason="needs two CPUs and fork-started workers that inherit the patch",
)
def test_dead_worker_exits_1():
    proc = _run_script(DYING_WORKER)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_import_loads_no_process_machinery():
    proc = _run_script(
        "import json, sys\n"
        "import schubsing\n"
        "from schubsing.cli import main\n"
        "main(['singular-locus', '4231'])\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "print(json.dumps(loaded), file=sys.stderr)\n"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stderr) == []
