"""Every demo script runs to completion against the current API."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # run in a scratch directory so files a demo writes stay out of the repo
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
    if path.stem == "05_circuit_waveforms":
        assert (tmp_path / "circuit_pair.csv").stat().st_size > 0


def test_problem_mapping_output_is_pinned(tmp_path, monkeypatch, capsys):
    # demo 01 prints both brute-force oracles' answers; sha256 of its stdout
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS[0]), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ef9a41c95decaf27c46ea94670858d6d7745e951a587d2ba07ac65ab15e8cb13")


def test_coupling_sweep_output_is_pinned(tmp_path, monkeypatch, capsys):
    # demo 04 prints every sweep aggregate and the chosen scale; sha256 of its stdout
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS[3]), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5a759456725a85f008996e0826e964e39399b49098a582061137c13c19c32edc")
