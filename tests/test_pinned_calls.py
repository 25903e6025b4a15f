"""The pinned-call tool in tools/: one `md5(stdout) md5(stderr) exit argv` line per call."""

import hashlib
import importlib.util
from pathlib import Path

from schubsing.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pinned_calls.py"


def _tool():
    spec = importlib.util.spec_from_file_location("pinned_calls", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def test_prints_one_digest_line_per_call(monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(tool, "CALLS", (("smooth", "4231"), ("slice", "2143", "1324")))
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["smooth", "4231"]) == 0
    smooth = capsys.readouterr().out
    error = "error: (2, 1, 4, 3) is not Bruhat-below (1, 3, 2, 4)\n"
    assert lines == [
        f"{_md5(smooth)} {_md5('')} 0 smooth 4231",
        f"{_md5('')} {_md5(error)} 2 slice 2143 1324",
    ]


def test_takes_at_most_one_interpreter(capsys):
    assert _tool().main(["python3", "python3"]) == 2
    assert capsys.readouterr().err.startswith("Usage: python3 tools/pinned_calls.py")
