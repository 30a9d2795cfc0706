"""The output digest script runs every command on every shipped config and digests its outputs."""

import importlib.util
import re
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
SHA = "[0-9a-f]{64}"


def test_output_digest_tiny_digests_every_command_and_config(capsys):
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
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
