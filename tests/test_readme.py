"""The README's "Library" example runs, and says what it returns; its
list of module-level caches is the package's.

The block is run as one script.  Each of its one-line expressions that
ends in a ``# value`` comment is then evaluated again, in the script's
namespace, and compared with the value read from the comment.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import bruhatkit

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CLAIM = re.compile(r"^(?P<expr>\S.*?)\s+# (?P<value>.+)$")
COUNTS = {"One": 1, "Two": 2, "Three": 3, "Four": 4, "Five": 5, "Six": 6,
          "Seven": 7, "Eight": 8}


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


def listed_caches():
    """The number word that opens the README's list of module-level
    caches, and the ``module.name`` of each of its bullets."""
    text = README.read_text(encoding="utf-8")
    head, rest = text.split(" module-level caches remain", 1)
    bullets = rest.split(":\n", 1)[1].split("\n\n", 1)[0]
    return (head.split()[-1],
            re.findall(r"^- `(\w+\.\w+)`", bullets, re.MULTILINE))


def module_caches():
    """``module.name`` of every attribute of a bruhatkit module that has
    ``cache_clear`` and is defined there."""
    found = set()
    for info in pkgutil.iter_modules(bruhatkit.__path__):
        module = importlib.import_module(f"bruhatkit.{info.name}")
        for value in vars(module).values():
            if (hasattr(value, "cache_clear")
                    and value.__module__ == module.__name__):
                found.add(f"{info.name}.{value.__qualname__}")
    return found


def test_readme_lists_every_module_level_cache():
    count, listed = listed_caches()
    assert len(listed) == len(set(listed)) == COUNTS[count]
    assert set(listed) == module_caches()
    # the benchmark clears the caches of the modules it names, all but
    # the group tables it builds in its set-up
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text("utf-8"))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["MODULES"])
    assert {name.split(".")[0] for name in listed} <= set(names)
