"""Fixed-seed CLI golden corpus: every command's exit code and stdout bytes.

Any entry that moves is a change in what users see; make_cli_golden.py
says how to regenerate cli_golden.jsonl when such a change is intended.
The corpus runs once per backend: its tape interpreter and its SplitMix64.
"""

import json
import os
import sys

import pytest

import normortho.kernels
import normortho.rng
from normortho.kernels import get_program

from make_cli_golden import run_one

_CORPUS = os.path.join(os.path.dirname(__file__), "cli_golden.jsonl")


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_cli_output_matches_golden_corpus(backend, monkeypatch):
    with open(_CORPUS, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert len({e["argv"][0] for e in entries}) == 12
    monkeypatch.setattr(normortho.kernels, "_impl", backend)
    selected = normortho.rng.SplitMix64
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "normortho" and getattr(mod, "SplitMix64", None) is selected:
            monkeypatch.setattr(mod, "SplitMix64", backend.SplitMix64)
    get_program.cache_clear()
    try:
        changed = [e["argv"] for e in entries
                   if run_one(e["argv"]) != (e["exit"], e["stdout_sha256"])]
    finally:
        get_program.cache_clear()
    assert not changed, f"{len(changed)} of {len(entries)} commands changed, first: {changed[0]}"
