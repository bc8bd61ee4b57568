"""Fixed-seed CLI golden corpus: every command's exit code and stdout bytes.

Any entry that moves is a change in what users see; make_cli_golden.py
says how to regenerate cli_golden.jsonl when such a change is intended.
The corpus runs once per backend: its tape interpreter and its SplitMix64.
"""

import json
import os

import pytest

from normortho.ortho import RELATION_TAGS

from make_cli_golden import TAGS, run_one

_CORPUS = os.path.join(os.path.dirname(__file__), "cli_golden.jsonl")


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_cli_output_matches_golden_corpus(package_backend):
    with open(_CORPUS, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert len({e["argv"][0] for e in entries}) == 12
    changed = [e["argv"] for e in entries
               if run_one(e["argv"]) != (e["exit"], e["stdout_sha256"])]
    assert not changed, f"{len(changed)} of {len(entries)} commands changed, first: {changed[0]}"


def test_corpus_covers_every_relation():
    # each tag is a Program.residual code, so the corpus then holds CLI
    # output of every code on both backends
    assert set(RELATION_TAGS) <= set(TAGS)
