"""Golden-output gate: every CLI example in the README, byte for byte.

The digests are sha256 of each example's stdout, recorded before the
output paths were refactored.  A change that moves any byte of these
outputs fails here.
"""

import hashlib
import io
import re
from pathlib import Path

import pytest

from collatzkit.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"

GOLDEN = {
    "classify 9": "cf4c2f8b388616294a3c333d26c30af9a1f90c92204478300467761f921c256f",
    "trajectory 27": "db957f8af4e6860cb9a08524933d3e9a6dc17cd50f06cf470ca5a785d3ddbc55",
    "trajectory 27 --method lookup": "db957f8af4e6860cb9a08524933d3e9a6dc17cd50f06cf470ca5a785d3ddbc55",
    "trajectory 3 --end 999 --format json": "a83d49fd1ea6e4da4186221ea0501af81794cc8d82e9493e5d3ebecb548efba4",
    "trajectory 3 --end 999 --stats --format csv": "6103e5fe9f0d455c3c42e6292439df3b716a2fcdc3721bbcb6a75159311bf6ff",
    "predecessors 41 --count 3": "39ecf059e48c88f532da9697f75095b472602bfd1a6682236a452e2dfe783ce2",
    "predecessors 85 --to-starter": "a59537b9797ebae4348f8eae0d6be2f59c957db15fa88ac933082fdeb683eb97",
    "locate 27": "d8e48c3431c00f0d9653023084a559132ef7f0f9c8ba850d2943d2c9692407b6",
    "tree --depth 2 --breadth 4 --format dot": "62acfc8b22a8d8c310c9436bf2cff42f7de2986ae7ec5788f20008028e2c0d40",
    "alpha-table --rows 36 --cols 10 --format csv": "198434ab45e20cb08d730595e2247257894808cea8cca36839629edd2df1bfd4",
    "alpha-table --chain 63": "d9b174c393cbd8f90334ba139320bbb7b2ca47cde5cf18bcef10dcd92f86de98",
    "drift --terms 60 --bound 1000000": "8918922f289393726e82932b5e5e6e20cf169960de15a59713e61c92901b14b6",
    "verify --bound 100000 --workers 4": "78179eb7fa99f7757e3a880291a27c111b692a98e068c833cd7729f1199d3483",
    "table-export --table B --rows 36": "3419898b1d82407eb93bd8252811911602592dcd30a5f0d58f4e76ed999e8f9f",
}


def readme_examples() -> list[str]:
    """Command lines of the README's `collatzkit ...` examples, without comments or redirection."""
    examples = []
    for line in README.read_text().splitlines():
        match = re.match(r"collatzkit (.+?)\s*(?:#.*)?$", line)
        if match:
            examples.append(match.group(1).split(">")[0].strip())
    return examples


def test_every_readme_example_has_a_digest():
    assert readme_examples() == list(GOLDEN)


@pytest.mark.parametrize("example", list(GOLDEN))
def test_readme_example_stdout_is_unchanged(example):
    out, err = io.StringIO(), io.StringIO()
    assert run(example.split(), out, err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[example]
