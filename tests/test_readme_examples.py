"""The README's library examples run as written on the toy inputs, with and without a byte-order mark."""

import re
from pathlib import Path

from conftest import DATA_DIR, run_python

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)

# each toy input under the name the examples open it by
EXAMPLE_INPUTS = {
    "toy.conllu": "corpus.conllu",
    "toy_vectors.txt": "vectors.txt",
    "toy_inventory.json": "inventory.json",
    "toy_reference_ranking.json": "reference.json",
}

BOM = b"\xef\xbb\xbf"


def run_examples(directory: Path, prefix: bytes) -> tuple[list[str], bytes]:
    """Run every example in ``directory`` on the toy inputs, each prefixed with ``prefix``.

    Returns each example's stdout and the database the first one writes.
    """
    directory.mkdir()
    for toy, name in EXAMPLE_INPUTS.items():
        (directory / name).write_bytes(prefix + (DATA_DIR / toy).read_bytes())
    stdouts = []
    for block in EXAMPLES:
        result = run_python(directory, "-c", block)
        assert result.returncode == 0, result.stderr
        stdouts.append(result.stdout)
    return stdouts, (directory / "lexsets.json").read_bytes()


def test_readme_examples_run_with_and_without_a_byte_order_mark(tmp_path):
    assert len(EXAMPLES) == 3
    plain = run_examples(tmp_path / "plain", b"")
    assert plain == run_examples(tmp_path / "bom", BOM)
