"""Run the README's ``mcan`` command block and print a digest of every file it writes.

Usage: ``python tools/readme_outputs.py <src dir> [--against <other src dir>]``

The block is the README's shell example that calls ``mcan generate``.  It
runs in a fresh temporary directory under ``bash -e``, with ``mcan`` meaning
``python -m mcan.cli`` on the package in ``<src dir>``.  One
``<sha256>  <path>`` line per file follows, sorted by path.

With ``--against`` the block also runs on the package in the other source
tree, and the command shows whether a change keeps the README outputs
byte-identical: it prints the first tree's digests, then one line per file
whose digest differs or that only one tree writes, and exits 1 if there is
such a file, for example:

    python tools/readme_outputs.py src --against ../parent/src
"""

from __future__ import annotations

import argparse
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


def digests(src: Path) -> dict[str, str]:
    """Run the command block on ``src``; the sha256 of each file it writes, by path."""
    prelude = f'mcan() {{ PYTHONPATH="{src}" "{sys.executable}" -m mcan.cli "$@"; }}\n'
    with tempfile.TemporaryDirectory() as work:
        subprocess.run(["bash", "-e", "-c", prelude + command_block()], cwd=work, check=True,
                       stdout=subprocess.DEVNULL)
        root = Path(work)
        return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file()}


def differences(ours: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """One line per path whose digest differs between the two runs or that
    only one of them wrote, sorted by path."""
    return [f"differs: {path}  {ours.get(path, 'absent')[:8]} != {theirs.get(path, 'absent')[:8]}"
            for path in sorted(ours.keys() | theirs.keys()) if ours.get(path) != theirs.get(path)]


def _source_tree(text: str) -> Path:
    src = Path(text).resolve()
    if not (src / "mcan" / "cli.py").is_file():
        raise argparse.ArgumentTypeError(f"{src}: no mcan package here")
    return src


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("src", type=_source_tree, help="source tree holding the mcan package")
    parser.add_argument("--against", type=_source_tree, metavar="OTHER",
                        help="second source tree; exit 1 if any output file differs")
    args = parser.parse_args(argv)
    ours = digests(args.src)
    print("\n".join(f"{digest}  {path}" for path, digest in ours.items()))
    if args.against is None:
        return 0
    changed = differences(ours, digests(args.against))
    print("\n".join(changed) if changed else f"identical to {args.against}: {len(ours)} files")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
