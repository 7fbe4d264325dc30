"""Digest of every ``horowave ...`` command in README.md, each run in-process.

    PYTHONPATH=src python tests/readme_presets.py [README]

Each command runs through ``cli.main`` in a fresh temporary directory. The
script prints a header line with the numpy version and the platform, then
one line per command, with its exit code and the sha256 of its stdout and
of its stderr, then one line per file the command wrote, with its name,
sha256 and size. Two trees whose outputs ``diff`` empty write the same
bytes for every README preset. ``tests/data/readme_presets.txt`` holds this
output, which ``test_cli`` compares line by line; a change that moves preset
bytes rewrites it:

    PYTHONPATH=src python tests/readme_presets.py > tests/data/readme_presets.txt

pytest does not collect this file; its README parser, ``readme_commands``,
and its runner, ``run_cli``, also serve ``test_cli`` and ``test_acceptance``.
"""
import collections
import contextlib
import hashlib
import io
import os
import pathlib
import platform
import shlex
import sys
import tempfile

import numpy as np

from horowave import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def readme_commands(readme: pathlib.Path = README) -> list[list[str]]:
    """The arguments after ``horowave`` of each README line that starts with it."""
    return [shlex.split(line)[1:] for line in readme.read_text().splitlines()
            if line.startswith("horowave ")]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


Run = collections.namedtuple("Run", "returncode stdout stderr")


def run_cli(*args: str) -> Run:
    """The exit code, stdout and stderr of ``cli.main(list(args))``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return Run(code, out.getvalue(), err.getvalue())


def run(args: list[str]) -> list[str]:
    """The digest lines of one command, run in a temporary directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            res = run_cli(*args)
        finally:
            os.chdir(home)
        lines = [f"horowave {shlex.join(args)}: exit {res.returncode} "
                 f"stdout {_sha(res.stdout.encode())} stderr {_sha(res.stderr.encode())}"]
        for path in sorted(pathlib.Path(tmp).rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                lines.append(f"  {path.relative_to(tmp)} {_sha(data)} {len(data)}")
    return lines


def main(argv: list[str]) -> int:
    readme = pathlib.Path(argv[0]) if argv else README
    print(f"# numpy {np.__version__}, Python {platform.python_version()}, "
          f"{platform.system()} {platform.machine()}")
    for args in readme_commands(readme):
        print("\n".join(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
