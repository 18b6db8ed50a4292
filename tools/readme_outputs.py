"""Run the README's ``mcan`` command block and print a digest of every file it writes.

Usage: ``python tools/readme_outputs.py <src dir>``

The block is the README's shell example that calls ``mcan generate``.  It
runs in a fresh temporary directory under ``bash -e``, with ``mcan`` meaning
``python -m mcan.cli`` on the package in ``<src dir>``.  One
``<sha256>  <path>`` line per file follows, sorted by path.  Running it on
two source trees and diffing the output shows whether a change keeps the
README outputs byte-identical, for example:

    python tools/readme_outputs.py old/src > old.txt
    python tools/readme_outputs.py src > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def command_block(readme: Path = README) -> str:
    """The first ``sh`` code block of ``readme`` that runs ``mcan generate``."""
    for block in re.findall(r"^```sh\n(.*?)^```", readme.read_text(), flags=re.M | re.S):
        if "mcan generate" in block:
            return block
    raise SystemExit(f"{readme}: no sh block runs 'mcan generate'")


def digests(src: Path) -> list[str]:
    """Run the command block on ``src`` and return one digest line per file."""
    prelude = f'mcan() {{ PYTHONPATH="{src}" "{sys.executable}" -m mcan.cli "$@"; }}\n'
    with tempfile.TemporaryDirectory() as work:
        subprocess.run(["bash", "-e", "-c", prelude + command_block()], cwd=work, check=True,
                       stdout=subprocess.DEVNULL)
        root = Path(work)
        return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}"
                for path in sorted(root.rglob("*")) if path.is_file()]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    if not (src / "mcan" / "cli.py").is_file():
        print(f"{src}: no mcan package here", file=sys.stderr)
        return 1
    print("\n".join(digests(src)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
