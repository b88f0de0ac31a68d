"""Compare two run trees byte for byte.

Every file under A must exist under B with the same bytes, and the other
way round. Two things are left out: ``status.json``, which holds wall-clock
data, and the ``out_dir`` line of ``config.txt``, which names the tree. Each
differing file is printed with its path relative to the tree.

Run:
    python scripts/compare_runs.py runs/study-before runs/study-after

Exit status: 0 when the trees match, 1 when a file differs or is missing
from one side, 2 when A or B is not a directory.
"""

import argparse
import sys
from pathlib import Path

_SKIPPED_NAME = "status.json"
_OUT_DIR_LINE = b"out_dir ="


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "config.txt":
        return data
    lines = data.splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(_OUT_DIR_LINE))


def _files(root: Path) -> dict[str, Path]:
    return {
        path.relative_to(root).as_posix(): path
        for path in root.rglob("*")
        if path.is_file() and path.name != _SKIPPED_NAME
    }


def differing_files(a, b) -> list[tuple[str, str]]:
    """(relative path, how it differs) for every compared file that is not
    the same in both trees, sorted by path."""
    files_a, files_b = _files(Path(a)), _files(Path(b))
    out = []
    for rel in sorted(files_a.keys() | files_b.keys()):
        if rel not in files_b:
            out.append((rel, "only in A"))
        elif rel not in files_a:
            out.append((rel, "only in B"))
        elif _content(files_a[rel]) != _content(files_b[rel]):
            out.append((rel, "differs"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first run tree")
    parser.add_argument("b", help="second run tree")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not Path(root).is_dir():
            print(f"error: not a directory: {root}", file=sys.stderr)
            return 2
    diffs = differing_files(args.a, args.b)
    for rel, how in diffs:
        print(f"{rel}: {how}")
    compared = len(_files(Path(args.a)).keys() | _files(Path(args.b)).keys())
    print(f"{len(diffs)} of {compared} files differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
