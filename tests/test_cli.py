"""Tests for the command-line interface: formats, determinism, exit codes."""

import ast
import contextlib
import hashlib
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubsing.cli
import schubsing.sweep
from schubsing.cli import main
from schubsing.components import ClassificationError, _Quadric
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

    monkeypatch.setattr(schubsing.cli, "verify_slice", failing)
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
    assert data["smooth_pattern"] is False
    assert "smooth" not in data
    assert data["ok"] is True
    assert len(data["components"]) == 1


def test_report_smooth_case(capsys):
    code, out, _ = run_cli(capsys, "report", "1234")
    assert code == 0
    data = json.loads(out)
    assert data["smooth_pattern"] is data["smooth_tangent"] is True
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


def test_verify_all_n_guard(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("schubsing.cli.verify_all", no_sweep)
    for n in ("1", "8", "9"):
        code, out, err = run_cli(capsys, "verify-all", "--n", n)
        assert (code, out) == (2, "")
        assert err == (
            "error: --n must be between 2 and 7 (n = 8 waits on one recorded S_8 run)\n"
        )


def _cli_nodes():
    """Every node of ``cli.py``'s syntax tree, and the ids of those inside ``main``."""
    tree = ast.parse(inspect.getsource(schubsing.cli))
    main_def = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    return list(ast.walk(tree)), set(map(id, ast.walk(main_def)))


def test_only_main_writes_to_stderr():
    """Commands raise; ``main`` alone turns an error into its ``error:`` line and exit code."""
    nodes, inside = _cli_nodes()
    stderr = [
        node
        for node in nodes
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
    ]
    assert stderr
    assert all(id(node) in inside for node in stderr), [node.lineno for node in stderr]


def test_only_main_reads_the_input():
    """``main`` alone parses the permutations and applies the n and --trials caps."""
    nodes, inside = _cli_nodes()
    gate = [
        node
        for node in nodes
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id in ("parse_permutation", "_QUERY_MAX_N", "_TRIALS_MAX")
    ]
    assert {node.id for node in gate} == {"parse_permutation", "_QUERY_MAX_N", "_TRIALS_MAX"}
    assert all(id(node) in inside for node in gate), [node.lineno for node in gate]


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


@pytest.mark.parametrize(
    "argv, target",
    [
        (("slice", "1324", "3412"), "verify_slice"),
        (("report", "3412"), "verify_permutation"),
        (("verify-all", "--n", "4"), "verify_all"),
    ],
)
def test_trials_over_the_cap_exit_2(capsys, monkeypatch, argv, target):
    """--trials past 10,000 gets one error line before any work; 10,000 itself runs."""
    calls = []

    def no_work(*args, **kwargs):
        calls.append(kwargs["trials"])
        raise ValueError("stopped after the cap check")

    monkeypatch.setattr(f"schubsing.cli.{target}", no_work)
    code, out, err = run_cli(capsys, *argv, "--trials", "10001")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: --trials takes at most 10000, got 10001\n"
    code, out, err = run_cli(capsys, *argv, "--trials", "10000")
    assert (code, out, calls) == (2, "", [10000])
    assert err == "error: stopped after the cap check\n"


def test_slice_structure_error_exits_1(capsys, monkeypatch):
    """A cone sampler off its own equations gives one error line, no traceback."""
    monkeypatch.setattr(_Quadric, "sample", lambda self, rng: (1,) * self.size)
    code, out, err = run_cli(capsys, "slice", "1324", "3412")
    assert (code, out) == (1, "")
    assert err.startswith("error: cone sampler violated its own equation")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_singular_locus_n_cap(capsys, monkeypatch):
    n21 = ",".join(str(x) for x in range(1, 22))
    n20 = ",".join(str(x) for x in range(20, 0, -1))
    assert run_cli(capsys, "singular-locus", n20) == (0, "[]\n", "")

    def no_work(w):
        raise AssertionError("the locus was computed")

    monkeypatch.setattr("schubsing.cli.components_from_patterns", no_work)
    code, out, err = run_cli(capsys, "singular-locus", n21)
    assert (code, out) == (2, "")
    assert err == "error: singular-locus takes n <= 20, got n = 21\n"


def test_smooth_and_tangent_n_cap(capsys, monkeypatch):
    n21 = ",".join(str(x) for x in range(1, 22))
    n20 = ",".join(str(x) for x in range(1, 21))
    w0 = ",".join(str(x) for x in range(20, 0, -1))
    code, out, err = run_cli(capsys, "smooth", w0)
    assert (code, err) == (0, "") and json.loads(out)["smooth"] is True
    code, out, err = run_cli(capsys, "tangent", n20, w0)
    assert (code, err) == (0, "")
    assert (json.loads(out)["m"], json.loads(out)["excess"]) == (190, 0)

    def no_work(*perms):
        raise AssertionError("the query was computed")

    monkeypatch.setattr("schubsing.cli.find_patterns", no_work)
    monkeypatch.setattr("schubsing.cli.tangent_dimension", no_work)
    for argv, command in [
        (("smooth", n21), "smooth"),
        (("tangent", n20, n21), "tangent"),
        (("tangent", n21, n21), "tangent"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {command} takes n <= 20, got n = 21\n"


def test_slice_at_the_cap_prints_the_trivial_slice(capsys):
    w0 = ",".join(str(x) for x in range(20, 0, -1))
    code, out, err = run_cli(capsys, "slice", w0, w0)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["free"], data["equations"], data["type"]) == ([], [], None)
    assert data["verdict"]["samples"] == 0 and data["verdict"]["failures"] == []


def test_kl_slice_report_n_cap(capsys, monkeypatch):
    n21 = ",".join(str(x) for x in range(1, 22))
    n20 = ",".join(str(x) for x in range(1, 21))

    def no_work(*args, **kwargs):
        raise AssertionError("the query was computed")

    for name in (
        "kl_recursion",
        "components_from_patterns",
        "bruhat_leq",
        "enumerate_components",
        "pair_slice",
        "verify_slice",
        "verify_permutation",
    ):
        monkeypatch.setattr(f"schubsing.cli.{name}", no_work)
    for argv, command in [
        (("kl", n20, n21), "kl"),
        (("kl", n21, n21), "kl"),
        (("slice", n21, n21), "slice"),
        (("slice", n20, n21), "slice"),
        (("report", n21), "report"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {command} takes n <= 20, got n = 21\n"


def test_classification_error_exits_1(capsys, monkeypatch):
    def misfit(w):
        raise ClassificationError("4231 configuration does not fit")

    monkeypatch.setattr("schubsing.cli.components_from_patterns", misfit)
    code, out, err = run_cli(capsys, "singular-locus", "4231")
    assert (code, out) == (1, "")
    assert err == "error: 4231 configuration does not fit\n"


def test_report_exits_1_when_patterns_and_tangent_counts_disagree(capsys, monkeypatch):
    monkeypatch.setattr("schubsing.components.components_from_patterns", lambda w: [])
    code, out, err = run_cli(capsys, "report", "4231")
    assert (code, out) == (1, "")
    assert err == (
        "error: X_{(4, 2, 3, 1)}: the patterns give (v, m(w, v)) = None, "
        "the tangent counts ((2, 1, 4, 3), 6)\n"
    )


def test_verify_all_n6_stdout_is_pinned(capsys):
    """The S_6 sweep at the default seed prints the same bytes as it always has."""
    code, out, err = run_cli(capsys, "verify-all", "--n", "6")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == "c6b06fd3dd161bc8243edfc35bef8a35"


def test_verify_all_n6_held_out_seed_stdout_is_pinned(capsys):
    """The held-out seed sends another 61,300 sample points through the membership test."""
    code, out, err = run_cli(capsys, "verify-all", "--n", "6", "--seed", "2718")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == "aaea51fca3c19952467c8507774ce95f"


def test_slice_outputs_on_s4_are_pinned(capsys):
    """Exit code, stdout and stderr of `slice V W` for all 576 ordered pairs of S_4.

    The corpus covers component pairs, v = w, other pairs v < w and
    incomparable pairs (exit 2).
    """
    digest = hashlib.md5()
    for v in itertools.permutations("1234"):
        for w in itertools.permutations("1234"):
            code, out, err = run_cli(capsys, "slice", "".join(v), "".join(w), "--trials", "7")
            digest.update(f"{code}|{out}|{err}".encode())
    assert digest.hexdigest() == "1cd4c9ae42271bc6cc48c7da10050d1a"


def test_verify_all_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify-all", "--n", "3")
    _, second, _ = run_cli(capsys, "verify-all", "--n", "3")
    assert first == second


@pytest.mark.parametrize("n", [4, 5])
def test_verify_all_parallel_matches_serial(capsys, monkeypatch, n):
    """The same report through the CLI, and the same progress lines from ``verify_all``."""
    argv = ("verify-all", "--n", str(n), "--trials", "5")
    serial = run_cli(capsys, *argv)
    assert serial[0] == 0
    assert run_cli(capsys, *argv, "--jobs", "2") == serial
    # Progress lines start at n = 7; lowered here so that a small sweep prints them.
    monkeypatch.setattr(schubsing.sweep, "_PROGRESS_MIN_N", n)
    progress = []
    for jobs in (1, 2):
        schubsing.sweep.verify_all(n, trials=5, jobs=jobs)
        progress.append(capsys.readouterr().err)
    assert progress[0] == progress[1]
    assert progress[0].count("permutations\n") == min(40, math.factorial(n))


@pytest.mark.parametrize("flag", ["--pretty", "--progress"])
def test_verify_all_has_no_output_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--n", "3", flag])
    assert exc.value.code == 2


def test_slice_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "slice", "2143", "4231", "--trials", "7", "--seed", "9")
    _, second, _ = run_cli(capsys, "slice", "2143", "4231", "--trials", "7", "--seed", "9")
    assert first == second


def test_subprocess_entry_point():
    proc = _run_python("-m", "schubsing", "smooth", "4231")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["smooth"] is False


def _run_python(*argv):
    """Run a fresh interpreter that imports this checkout's schubsing."""
    src = os.path.dirname(os.path.dirname(schubsing.sweep.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )


_N20_BLOCK = ",".join(map(str, [*range(11, 21), *range(1, 11)]))
_N7_ONLY = pytest.mark.skipif(
    not os.environ.get("SCHUBSING_N7"), reason="n = 9 queries run only with SCHUBSING_N7=1"
)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("kl", "3,4,8,1,6,5,2,7", "3,6,8,1,7,4,2,5"), "94137df6f313f033fabd8dffa7c6e6a2"),
        (("slice", "3,4,8,1,6,5,2,7", "3,6,8,1,7,4,2,5"), "bb9488ada1821c292d3f0fb658b1b03e"),
        (("report", "3,6,8,1,7,4,2,5"), "66ed381dd59101c726308481abb6bd27"),
        (("slice", "3,6,4,1,9,2,8,7,5", "3,6,8,1,9,4,7,2,5"), "462fe1593030b5c5cf0abd3975d4a4d4"),
        (("singular-locus", "45312"), "ac50674d99ddcaf45f5eac42edaa8abf"),
        (("singular-locus", "35142"), "399ec581c0a7763653fd86f73b3c3e61"),
        (("singular-locus", _N20_BLOCK), "fb45d0ce60be385711014a2e42496588"),
        pytest.param(
            ("kl", "1,3,2,5,4,7,6,9,8", "3,6,8,1,9,4,7,2,5"),
            "237534d62f2caea5803fb224f9634f21",
            marks=_N7_ONLY,
        ),
        pytest.param(
            ("report", "3,6,8,1,9,4,7,2,5"), "90a064de552fc096ffae8383928cdf39", marks=_N7_ONLY
        ),
    ],
)
def test_readme_queries_are_pinned(argv, digest):
    """README's query calls print the same bytes, each in a fresh process.

    A fresh process keeps their groups and KL tables out of the tests that
    check a fresh ``SymmetricGroup``.
    """
    proc = _run_python("-m", "schubsing", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, error",
    [
        (("slice", "+2,1", "3412", "--trials", "10001"), "malformed permutation: '+2,1'"),
        (("slice", "N21", "N21", "--trials", "10001"), "slice takes n <= 20, got n = 21"),
        (("tangent", "+1", "N21"), "malformed permutation: '+1'"),
        (
            ("verify-all", "--n", "9", "--trials", "10001"),
            "--trials takes at most 10000, got 10001",
        ),
    ],
)
def test_input_errors_come_in_order(capsys, argv, error):
    """A malformed permutation before the n cap, the n cap before the trials cap, then --n."""
    n21 = ",".join(str(x) for x in range(1, 22))
    code, out, err = run_cli(capsys, *(n21 if arg == "N21" else arg for arg in argv))
    assert (code, out, err) == (2, "", f"error: {error}\n")


DYING_WORKER = """
import os, sys
import schubsing.sweep
from schubsing.cli import main
from schubsing.components import ClassificationError, QuadricComponent

parent = os.getpid()
real = schubsing.sweep._verify

def dying(*args, **kwargs):
    if os.getpid() != parent:
        os._exit(3)
    return real(*args, **kwargs)

schubsing.sweep._verify = dying
sys.exit(main(["verify-all", "--n", "4", "--trials", "1", "--jobs", "2"]))
"""


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or multiprocessing.get_all_start_methods()[0] != "fork",
    reason="needs two CPUs and fork-started workers that inherit the patch",
)
def test_dead_worker_exits_1():
    proc = _run_python("-c", DYING_WORKER)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_import_loads_no_process_machinery():
    proc = _run_python(
        "-c",
        "import json, sys\n"
        "import schubsing\n"
        "from schubsing.cli import main\n"
        "main(['singular-locus', '4231'])\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "print(json.dumps(loaded), file=sys.stderr)\n"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stderr) == []


def test_sweep_loads_no_rational_arithmetic():
    # Slice verification runs in ints end to end; `fractions` creeping back
    # into the hot path would show up as an import.
    proc = _run_python(
        "-c",
        "import sys\n"
        "import schubsing\n"
        "from schubsing.cli import main\n"
        "code = main(['verify-all', '--n', '4', '--trials', '3'])\n"
        "print('fractions' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    assert proc.stderr.strip() == "False"


def test_singular_locus_builds_no_group():
    # n = 9 used to take seconds for S_9's tables; the pattern route builds
    # no symmetric group and no determinantal model.
    proc = _run_python(
        "-c",
        "import json, sys\n"
        "import schubsing.slices, schubsing.symgroup\n"
        "from schubsing.cli import main\n"
        "calls = []\n"
        "real = schubsing.slices.determinantal_model\n"
        "def counted(*args):\n"
        "    calls.append(args)\n"
        "    return real(*args)\n"
        "schubsing.slices.determinantal_model = counted\n"
        "code = main(['singular-locus', '3,6,8,1,9,4,7,2,5'])\n"
        "print(json.dumps([code, len(schubsing.symgroup._groups), len(calls)]), file=sys.stderr)\n"
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 10
    assert json.loads(proc.stderr) == [0, 0, 0]


_ARITY = {"smooth": 1, "tangent": 2, "singular-locus": 1, "kl": 2, "slice": 2, "report": 1}
_PERM_TEXT = st.one_of(
    st.text(max_size=5),
    st.text(alphabet="0123456,- ", max_size=5),
    st.integers(1, 5).flatmap(lambda n: st.permutations("12345"[:n])).map("".join),
)


@st.composite
def cheap_argv(draw):
    """A command line of permutation texts of length <= 5 and any --trials/--seed."""
    command = draw(st.sampled_from([*_ARITY, "verify-all"]))
    if command == "verify-all":
        argv = [command, "--n", str(draw(st.integers(max_value=4)))]
    else:
        argv = [command] + [draw(_PERM_TEXT) for _ in range(_ARITY[command])]
    if command in ("slice", "report", "verify-all"):
        for flag in draw(st.lists(st.sampled_from(["--trials", "--seed"]), max_size=2)):
            argv += [flag, str(draw(st.integers()))]
    return argv


@settings(deadline=None, max_examples=60)
@given(cheap_argv())
def test_cli_exits_0_1_or_2(argv):
    """Whatever the arguments, `main` answers with an exit code, never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse exits 2 on a usage error, and 0 after printing help
            # (a permutation text such as "-h").
            assert exc.code == 2 or (exc.code == 0 and out.getvalue().startswith("usage:"))
            return
    assert code in (0, 1, 2), argv
