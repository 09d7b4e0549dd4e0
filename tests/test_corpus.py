"""Every argv of tests/corpus.json prints what the corpus recorded.

The corpus holds each run's exit code and the SHA-256 of its stdout and
stderr, recorded by tests/record_corpus.py; an output change shows here as
one failing argv.  Runs whose text argparse writes, which differs across
Python versions, are held to the full parser instead, as TestFuzz holds
them.
"""

import json
import shlex

import pytest

from helpers import main_by_full_parser
from record_corpus import CORPUS, digest, outputs, write_inputs

ENTRIES = json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("key", list(ENTRIES))
def test_output_matches_the_corpus(inputs, monkeypatch, key):
    monkeypatch.chdir(inputs)
    monkeypatch.setenv("COLUMNS", "80")
    argv = shlex.split(key)
    code, out, err = outputs(argv)
    expected_code, out_digest, err_digest = ENTRIES[key]
    assert code == expected_code
    if out_digest is None:
        assert (out, err) == outputs(argv, main_by_full_parser)[1:]
    else:
        assert (digest(out), digest(err)) == (out_digest, err_digest)


def test_the_corpus_covers_every_subcommand_and_both_kinds_of_entry():
    argvs = [shlex.split(key) for key in ENTRIES]
    assert {argv[0] for argv in argvs if argv} >= {"trees", "count", "conditions", "verify", "oracle"}
    held = [value for value in ENTRIES.values() if value[1] is None]
    assert held and len(held) < len(ENTRIES)
