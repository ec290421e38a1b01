"""README's Python quick example and every ``holder`` command in its Examples
block run as documented."""

import shlex
from pathlib import Path

import pytest

from holderscores.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    block = README.read_text().split("Examples:", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("holder ")]


EXAMPLES = readme_examples()


def test_python_quick_example(capsys):
    namespace = {}
    exec(README.read_text().split("```python\n", 1)[1].split("```", 1)[0], namespace)
    res = namespace["res"]
    assert res.converged
    assert abs(res.theta_hat[0]) < 0.1
    assert capsys.readouterr().out.startswith("[")


def test_examples_block_found():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("argv", EXAMPLES, ids=lambda argv: argv[0])
def test_example_exits_0_with_pass(argv, tmp_path):
    i = argv.index("--out") + 1
    out = tmp_path / argv[i]
    assert main(argv[:i] + [str(out)] + argv[i + 1:]) == 0
    assert (out / "report.txt").read_text().splitlines()[0] == "PASS"
