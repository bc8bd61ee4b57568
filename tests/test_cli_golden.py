"""Fixed-seed CLI golden corpus: every command's exit code and stdout bytes.

Any entry that moves is a change in what users see; make_cli_golden.py
says how to regenerate cli_golden.jsonl when such a change is intended.
The corpus runs once per backend: its tape interpreter and its SplitMix64.
It runs again, as written and in the benchmark's --flag=value spelling,
with argparse's parse_args out of reach: the CLI reads every corpus argv
from the flag table itself, but for the usage errors of a --flag=-- value,
which only argparse reports.
"""

import json
import os
import shlex

import pytest

from normortho import cli
from normortho.ortho import RELATION_TAGS

from make_cli_golden import TAGS, equals_spelling, run_one

_CORPUS = os.path.join(os.path.dirname(__file__), "cli_golden.jsonl")


def _entries():
    with open(_CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _spaced_values(argv):
    """The values a corpus argv gives as the argument after a bare --flag."""
    rest = iter(argv[1:])
    return [next(rest) for arg in rest if "=" not in arg]


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_cli_output_matches_golden_corpus(package_backend):
    entries = _entries()
    assert len({e["argv"][0] for e in entries}) == 12
    changed = [e["argv"] for e in entries
               if run_one(e["argv"]) != (e["exit"], e["stdout_sha256"])]
    assert not changed, f"{len(changed)} of {len(entries)} commands changed: " + "; ".join(
        map(shlex.join, changed))


def test_corpus_covers_every_relation():
    # each tag is a Program.residual code, so the corpus then holds CLI
    # output of every code on both backends
    assert set(RELATION_TAGS) <= set(TAGS)


def _no_argparse(*args, **kwargs):
    raise AssertionError("argparse's parse_args was called")


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("spelling", ["as written", "equals"])
def test_corpus_is_read_without_argparse(package_backend, monkeypatch, spelling):
    # every corpus argv with no value after a bare flag starting with "-"
    # is a command and exact long flags, the shape the CLI reads itself
    entries = [e for e in _entries() if not any(arg.endswith("=--") for arg in e["argv"])]
    assert len(entries) == len(_entries()) - 4
    if spelling == "equals":
        cases = [(equals_spelling(e["argv"]), e) for e in entries]
    else:
        cases = [(e["argv"], e) for e in entries
                 if not any(v.startswith("-") for v in _spaced_values(e["argv"]))]
    assert len(cases) == len(entries)
    monkeypatch.setattr(cli._PARSER, "parse_args", _no_argparse)
    changed = [argv for argv, e in cases if run_one(argv) != (e["exit"], e["stdout_sha256"])]
    assert not changed, f"{len(changed)} of {len(cases)} commands changed: " + "; ".join(
        map(shlex.join, changed))
