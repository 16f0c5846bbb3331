import pathlib
import tokenize

import pytest

import vibroniq

SOURCES = sorted(pathlib.Path(vibroniq.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_stays_below_the_token_step(path):
    """Compiling a module of more than 8192 parser tokens (counted without
    comments, blank lines and the encoding) takes about 0.5 MiB more peak
    memory, and the benchmark compiles every module from source; a
    code-free pad that took circuits.py past the step moved soft-4d's
    end-to-end figures by +7 % (CHANGES.md, FOUND 48 and FOUND 63)."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as f:
        count = sum(tok.type not in skip for tok in tokenize.tokenize(f.readline))
    assert count < 8192
