"""The output digest script runs every command on every shipped config and digests its outputs."""

import importlib.util
import os
import re
from pathlib import Path

from clipopt import harness

TESTS = Path(__file__).resolve().parent
DIGEST = TESTS.parent / "tools" / "output_digest.py"
SHA = "[0-9a-f]{64}"
# The --tiny digest lines of every shipped config but the simplex one, whose loops call
# exp and log, and the radial one, whose moments call pow, exp, log and cos: the last bits
# of numpy's SIMD versions can differ across CPUs.  An intended output change re-pins
# them and says why.
PINNED = TESTS / "output_digest_tiny.txt"
UNPINNED = {"perfbench/configs/asmd_simplex.cfg", "demos/configs/diagnose_radial.cfg"}
# summary.jsonl holds the config digest, which covers the --out path: pins are taken here
PINNED_WORK = Path("/tmp/clipopt-output-digest")


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_output_digest_tiny_digests_every_command_and_config(capsys):
    digest = _load()
    configs = digest.configs()
    assert len(configs) >= 7 and all(c.endswith(".cfg") for c in configs)
    assert digest.main(["--tiny"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert digest.main(["--tiny"]) == 0
    assert capsys.readouterr().out.splitlines() == first  # reruns are byte-identical
    assert [line.split()[:2] for line in first] == [[command, config] for config in configs
                                                    for command in digest.COMMANDS]
    line = re.compile(rf"\S+ \S+ exit=\d+ stdout={SHA} stderr={SHA}( \S+={SHA})*")
    assert all(line.fullmatch(text) for text in first), first
    runs = [text for text in first if text.startswith("run ")]
    assert all(" exit=0 " in text and "summary.jsonl=" in text for text in runs)
    assert not digest.WORK.exists()


def test_output_digest_tiny_lines_of_the_l2_configs_are_pinned(monkeypatch):
    digest = _load()
    monkeypatch.setattr(digest, "WORK", PINNED_WORK)
    got = [text for text in digest.digest_lines(tiny=True) if text.split()[1] not in UNPINNED]
    assert got == PINNED.read_text().splitlines()
    assert {text.split()[1] for text in got} == set(digest.configs()) - UNPINNED


def test_output_digest_tiny_lines_are_the_same_when_every_sweep_forks(monkeypatch):
    """The tiny sizes fall under the fork threshold, so the lines above never reach the
    worker path.  With every sweep forked onto three workers (more than this machine may
    have), every line is the same."""
    digest = _load()
    alone = list(digest.digest_lines(tiny=True))
    monkeypatch.setattr(harness, "_FORK_SEED_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    assert list(digest.digest_lines(tiny=True)) == alone
    # two children a sweeping call: run, rates and compare on every config they accept
    runs = sum(text.split()[0] in ("run", "rates", "compare") and " exit=0 " in text
               for text in alone)
    assert len(forked) == 2 * runs
