"""The library surface: every public function and method of ``bruhatkit``
has a caller in the program.

The program is ``src/bruhatkit``, ``scripts/`` and ``perfbench/``; the
tests are not part of it.  A public module-level function or method of
``src/bruhatkit`` (a name with no leading underscore) must be referenced
by name somewhere in the program outside its own body: a function as a
plain name or an attribute, a method as an attribute, since no plain
name reaches it.  The re-exports of ``__init__.py`` do not count, and
neither does a reference from inside a definition that is itself
unreferenced, so code that only dead code calls is flagged too.  The
``cmd_<name>`` functions of the commands in ``cli._COMMANDS`` are
exempt: ``cli._run`` looks them up by string.

Known limit: the check matches names, not bindings.  A reference to
anything of the same name counts, so one class's ``to_json`` is kept by a
call of another's, and a function reached only through a string (as the
``cmd_<name>`` functions are) reads as unused.
"""

import ast
from pathlib import Path

from bruhatkit import cli

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src/bruhatkit", "scripts", "perfbench")


def _public_defs(path, tree):
    """(path, qualified name, name, first line, last line, whether a
    method) of each public module-level function and each public method
    of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            members = [(node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            members = [
                (f"{node.name}.{item.name}", item, True) for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
        else:
            continue
        for qualified, fn, method in members:
            if not fn.name.startswith("_"):
                yield (path, qualified, fn.name, fn.lineno, fn.end_lineno,
                       method)


def _references(path, tree):
    """(path, name, line, whether an attribute) of every plain name and
    attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield path, node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield path, node.attr, node.lineno, True


def _inside(ref, defs):
    return any(ref[0] == d[0] and d[3] <= ref[2] <= d[4] for d in defs)


def unreferenced(sources, exempt=()):
    """The qualified names, sorted, of the public definitions that
    nothing reads (see the module docstring).  ``sources`` maps a path to
    (source text, whether its definitions are checked); a module named
    ``__init__.py`` is neither checked nor read.  The dead set grows to a
    fixed point: each round drops the references made from inside the
    definitions found dead so far."""
    trees = {path: ast.parse(text) for path, (text, _) in sources.items()
             if Path(path).name != "__init__.py"}
    defs = [d for path, tree in trees.items() if sources[path][1]
            for d in _public_defs(path, tree) if d[2] not in exempt]
    refs = [r for path, tree in trees.items()
            for r in _references(path, tree)]
    dead: list = []
    while True:
        found = [
            d for d in defs
            if not any(r[1] == d[2] and (r[3] or not d[5])
                       and not _inside(r, dead + [d]) for r in refs)
        ]
        if found == dead:
            return sorted(d[1] for d in dead)
        dead = found


def _program():
    sources = {}
    for part in PROGRAM:
        for path in sorted((ROOT / part).glob("*.py")):
            sources[str(path)] = (path.read_text(encoding="utf-8"),
                                  part == "src/bruhatkit")
    return sources


def test_every_public_function_has_a_caller_in_the_program():
    exempt = {f"cmd_{name}" for name in cli._COMMANDS}
    assert unreferenced(_program(), exempt) == []


def test_scan_reads_all_three_parts_of_the_program():
    parts = {Path(path).parent.name for path in _program()}
    assert parts == {"bruhatkit", "scripts", "perfbench"}


def test_the_check_flags_what_only_itself_dead_code_or_an_export_reads():
    lib = (
        "def used(): return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def unused(): return helper()\n"
        "def helper(): return 2\n"
        "def _private(): return 3\n"
        "class Box:\n"
        "    def read(self): return used()\n"
        "    def spare(self): return 4\n"
        "def cmd_go(): return 5\n"
    )
    sources = {
        "lib.py": (lib, True),
        "__init__.py": ("from lib import unused, spare\n", False),
        # a plain name does not reach the method Box.spare
        "script.py": ("import lib\nlib.Box().read()\nspare = 0\n", False),
    }
    assert unreferenced(sources, {"cmd_go"}) == [
        "Box.spare", "helper", "recursive", "unused"]


def test_oracles_import_nothing_from_bruhatkit_at_run_time():
    # the oracles share no code with what they check: bruhatkit's type
    # names are imported under TYPE_CHECKING alone
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    guarded = {
        id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
        and getattr(block.test, "id", None) == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    imported = []
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [
        name for name in imported if name.split(".")[0] == "bruhatkit"]
