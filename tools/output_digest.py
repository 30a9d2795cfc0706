"""Digests of every CLI command's outputs on every shipped config: the byte-identity check.

Runs ``clipopt run``, ``rates``, ``diagnose`` and ``compare`` on each config
under ``demos/configs`` and ``perfbench/configs`` (read, never edited), in
process through ``clipopt.cli.main``.  Every call writes to one fixed
``--out`` directory, ``clipopt-output-digest/out`` in the system's temporary
folder, emptied before the call and removed at the end.  The path is the same in
every run because the config digest in ``summary.jsonl`` covers it; so two runs
must not overlap.  Prints one line per call::

    <command> <config> exit=<code> stdout=<sha256> stderr=<sha256> [<file>=<sha256> ...]

with the files the call wrote, by their path under ``--out``.  A warning goes
to the captured stderr as ``Category: message``, without its source location,
so that moving code changes no digest, and each call shows a warning once per
call site, as a fresh process would.  An exception that escapes the CLI is
written as ``Type: message`` and counts as exit 1, as the interpreter's exit
code would.

A change that claims to keep every output byte diffs the output of the two
checkouts, each run from its own root::

    PYTHONPATH=src python tools/output_digest.py > digests.txt     # a few seconds
    PYTHONPATH=src python tools/output_digest.py --tiny            # 16 steps, 3 seeds (rates: 100)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from clipopt import cli

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(tempfile.gettempdir()) / "clipopt-output-digest"
CONFIG_DIRS = ("demos/configs", "perfbench/configs")
COMMANDS = ("run", "rates", "diagnose", "compare")
TINY = ("experiment.t=16", "experiment.seeds=3", "experiment.t_grid=16,32",
        "diagnostics.resamples=100")
# ``rates`` fits a slope only from at least 100 seeds and four horizons (TINY's grid stays
# for the other commands: the config digest in their outputs covers it)
TINY_RATES = ("experiment.seeds=100", "experiment.t_grid=16,32,64,128")


def configs() -> list[str]:
    """Every shipped config, as a path relative to the repository root."""
    return sorted(str(path.relative_to(ROOT)) for folder in CONFIG_DIRS
                  for path in (ROOT / folder).glob("*.cfg"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """``clipopt.cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.resetwarnings()
        warnings.simplefilter("default")
        warnings.showwarning = _show
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 -- reported as the interpreter would
            err.write("".join(traceback.format_exception_only(exc)))
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def _overrides(command: str, tiny: bool) -> list[str]:
    """The ``--set`` arguments of one call: none, or the tiny sizes (``rates``' own)."""
    if not tiny:
        return []
    assignments = TINY + TINY_RATES if command == "rates" else TINY
    return [arg for assignment in assignments for arg in ("--set", assignment)]


def digest_lines(tiny: bool):
    """One digest line per command and config."""
    out_dir = WORK / "out"
    try:
        for config in configs():
            for command in COMMANDS:
                shutil.rmtree(out_dir, ignore_errors=True)
                rc, stdout, stderr = invoke([command, "--config", str(ROOT / config),
                                             *_overrides(command, tiny), "--out", str(out_dir)])
                files = sorted(p for p in out_dir.rglob("*") if p.is_file())
                written = "".join(f" {p.relative_to(out_dir).as_posix()}={_sha(p.read_bytes())}"
                                  for p in files)
                yield (f"{command} {config} exit={rc} stdout={_sha(stdout.encode())} "
                       f"stderr={_sha(stderr.encode())}{written}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tiny", action="store_true",
                        help="16 steps and 3 seeds; rates: 100 seeds, horizons 16 to 128 "
                             "(a few seconds)")
    args = parser.parse_args(argv)
    for line in digest_lines(args.tiny):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
