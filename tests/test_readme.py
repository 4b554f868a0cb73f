"""The README's "Library" example runs, and says what it returns.

The block is run as one script.  Each of its one-line expressions that
ends in a ``# value`` comment is then evaluated again, in the script's
namespace, and compared with the value read from the comment.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
CLAIM = re.compile(r"^(?P<expr>\S.*?)\s+# (?P<value>.+)$")


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def claims(block):
    """(expression, value) of every line with a trailing comment."""
    return [(m["expr"], m["value"]) for line in block.splitlines()
            if (m := CLAIM.match(line))]


def test_library_block_runs_and_every_commented_value_holds():
    block = library_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    found = claims(block)
    # every commented line is an expression whose value the comment names
    assert len(found) == len([line for line in block.splitlines()
                              if "# " in line])
    assert len(found) >= 8
    for expr, value in found:
        assert eval(expr, namespace) == ast.literal_eval(value), expr
