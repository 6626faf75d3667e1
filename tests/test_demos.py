"""Every demo script runs to completion against the current API."""

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
