"""The README's Python examples run as written."""
from readme_examples import README, python_blocks, run_examples


def test_readme_python_blocks_run_in_order(capsys):
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    assert run_examples() == len(blocks)
    # the first block prints one line per class of W_7
    assert capsys.readouterr().out.startswith("m1 ")

