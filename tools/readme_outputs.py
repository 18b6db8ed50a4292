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
such a file.  When both versions of a differing file hold the same count of
numbers, its line also gives the largest relative difference between
corresponding numbers, so a change that only rounds differently shows as
such.  A checkpoint's base64 ``theta`` block counts as the float64 values
it encodes.  When both versions of a checkpoint carry a ``parameters``
index, ``theta``'s values are paired by parameter name, not by position, and
the line names every parameter that only one of them lists.  For example:

    python tools/readme_outputs.py src --against ../parent/src
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def command_block(readme: Path = README) -> str:
    """The first ``sh`` code block of ``readme`` that runs ``mcan generate``."""
    for block in re.findall(r"^```sh\n(.*?)^```", readme.read_text(), flags=re.M | re.S):
        if "mcan generate" in block:
            return block
    raise SystemExit(f"{readme}: no sh block runs 'mcan generate'")


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
THETA = re.compile(rb'"theta": "([A-Za-z0-9+/=]*)"')


def numbers(text: bytes) -> np.ndarray:
    """The numbers of ``text`` in order, with each ``"theta"`` base64 string
    decoded into its little-endian float64 values instead of read for digits."""
    pieces = THETA.split(text)  # text, theta, text, ...
    return np.concatenate([np.frombuffer(base64.b64decode(piece), "<f8") if k % 2
                           else np.array([float(n) for n in NUMBER.findall(piece)])
                           for k, piece in enumerate(pieces)])


def parameters(text: bytes) -> tuple[np.ndarray, dict[str, np.ndarray]] | None:
    """For a checkpoint with a ``parameters`` index of ``[name, shape]`` pairs,
    the numbers outside ``theta`` and that index, and ``theta``'s values by
    parameter name; None for any other file."""
    try:
        doc = json.loads(text)
        index, theta = doc.pop("parameters"), np.frombuffer(base64.b64decode(doc.pop("theta")), "<f8")
    except (ValueError, TypeError, KeyError, AttributeError):  # not JSON, not an object, or no index
        return None
    names = [name for name, _ in index]
    cuts = np.cumsum([math.prod(shape) for _, shape in index])[:-1]
    return numbers(json.dumps(doc).encode()), dict(zip(names, np.split(theta, cuts)))


def paired_numbers(ours: bytes, theirs: bytes) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The numbers of the two texts in the order they are compared, and the
    names of the parameters only one of two indexed checkpoints lists.  Two
    such checkpoints give their other numbers in order, then ``theta``'s
    values name by name over the names both list."""
    mine, other = parameters(ours), parameters(theirs)
    if mine is None or other is None:
        return numbers(ours), numbers(theirs), []
    common = [name for name in mine[1] if name in other[1]]
    only = [f"{name} only in the first tree" for name in mine[1] if name not in other[1]]
    only += [f"{name} only in the other tree" for name in other[1] if name not in mine[1]]
    return (np.concatenate([mine[0]] + [mine[1][name] for name in common]),
            np.concatenate([other[0]] + [other[1][name] for name in common]), only)


def outputs(src: Path) -> dict[str, bytes]:
    """Run the command block on ``src``; the bytes of each file it writes, by path."""
    prelude = f'mcan() {{ PYTHONPATH="{src}" "{sys.executable}" -m mcan.cli "$@"; }}\n'
    with tempfile.TemporaryDirectory() as work:
        subprocess.run(["bash", "-e", "-c", prelude + command_block()], cwd=work, check=True,
                       stdout=subprocess.DEVNULL)
        root = Path(work)
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}


def digest(content: bytes | None) -> str:
    return "absent" if content is None else hashlib.sha256(content).hexdigest()


def largest_relative_difference(a: np.ndarray, b: np.ndarray) -> tuple[float, int] | None:
    """The largest ``|a - b| / max(|a|, |b|)`` over two number sequences taken
    in order (0 where both are 0) and their count, or None when the counts
    differ."""
    if len(a) != len(b):
        return None
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0), initial=0.0)), len(a)


def differences(ours: dict[str, bytes], theirs: dict[str, bytes]) -> list[str]:
    """One line per path whose content differs between the two runs or that
    only one of them wrote, sorted by path, with the largest relative
    difference of its numbers where :func:`largest_relative_difference` has one."""
    lines = []
    for path in sorted(ours.keys() | theirs.keys()):
        mine, other = ours.get(path), theirs.get(path)
        if mine == other:
            continue
        line = f"differs: {path}  {digest(mine)[:8]} != {digest(other)[:8]}"
        if mine is not None and other is not None:
            a, b, only = paired_numbers(mine, other)
            relative = largest_relative_difference(a, b)
            if relative is not None:
                line += "  (largest relative difference {:.1e} over {} numbers)".format(*relative)
            if only:
                line += f"  (parameters: {', '.join(only)})"
        lines.append(line)
    return lines


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
    ours = outputs(args.src)
    print("\n".join(f"{digest(content)}  {path}" for path, content in ours.items()))
    if args.against is None:
        return 0
    changed = differences(ours, outputs(args.against))
    print("\n".join(changed) if changed else f"identical to {args.against}: {len(ours)} files")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
