"""Run the README's Python examples in order, in one namespace.

    python tests/readme_examples.py [README.md]

Each ```python block runs as it stands, and the names one block defines are
seen by the next, as in one interactive session.  The runner needs only the
installed package, no test dependency, and exits 1 when the file has no
Python block.
"""
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.S | re.M)


def python_blocks(text: str):
    """The source of each ```python block, in order."""
    return _BLOCK.findall(text)


def run_examples(path=README) -> int:
    """Run the blocks of the file in one namespace; the number run."""
    namespace = {"__name__": "__readme__"}
    blocks = python_blocks(Path(path).read_text())
    for i, source in enumerate(blocks, 1):
        exec(compile(source, f"{path} (python block {i})", "exec"), namespace)
    return len(blocks)


if __name__ == "__main__":
    count = run_examples(sys.argv[1] if len(sys.argv) > 1 else README)
    print(f"ran {count} python block(s)")
    sys.exit(0 if count else 1)
