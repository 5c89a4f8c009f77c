"""Checks on the package source and on what importing it loads."""

import ast
import io
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "beattysieve"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(text: str) -> list:
    """Names a module imports at top level and never reads."""
    tree = ast.parse(text)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    text = "import math\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert unused_imports(text) == ["math", "os", "c"]


def private_imports(text: str) -> list:
    """Underscore-prefixed names, dunders aside, that a module imports
    from its own package."""
    names = [a.name for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for a in node.names]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def test_cli_imports_only_public_names():
    assert private_imports((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_private_imports_are_found():
    text = ("from . import __version__\nfrom .dioph import _a, b\n"
            "from os import _exit\nfrom .realnum import _c as c\n")
    assert private_imports(text) == ["_a", "_c"]


def unused_private_names(texts: list) -> list:
    """Underscore-prefixed module-level functions, classes and constants,
    dunders aside, that no module of `texts` names beyond their own
    definition: by a read, an attribute or an import."""
    trees = [ast.parse(text) for text in texts]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, ast.Assign):
                defined += [t.id for t in node.targets
                            if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                defined += [node.target.id]
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return [name for name in dict.fromkeys(defined) if name.startswith("_")
            and not name.endswith("__") and name not in used]


def test_every_private_name_is_used():
    texts = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unused_private_names(texts) == []


def test_unused_private_names_are_found():
    texts = ["_A = 1\n_B: int = 2\n_B = 3\n__all__ = []\n"
             "def _f():\n    return _A\nclass _C:\n    pass\n"
             "def _g():\n    pass\n",
             "from .a import _C\nimport a\na._g()\n"]
    assert unused_private_names(texts) == ["_B", "_f"]


def test_cli_import_loads_no_process_machinery():
    # counting runs in one process, so the CLI must not pay for a pool
    code = ("import sys, beattysieve.cli\n"
            "print(sorted(m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


CLI_TOKEN_LIMIT = 4096


def parser_tokens(text: str) -> int:
    """Tokens the parser reads, as Python's `tokenize` counts them:
    comments, non-logical line breaks and the encoding marker aside."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    return sum(tok.type not in skip for tok in
               tokenize.tokenize(io.BytesIO(text.encode()).readline))


def test_cli_stays_under_its_compile_step():
    """cli.py has at most 4096 parser tokens.

    With PYTHONDONTWRITEBYTECODE=1 every benchmark process compiles the
    package from source, cli.py last, on top of the loaded modules.
    Under Python 3.11, padding
    cli.py with one-name statements raised that compile's ru_maxrss by
    1664 KB at 4096 tokens and by 1920 KB at 4098: a 256 KB step that
    lands in every workload's peak_rss_mb.  A change that needs more
    tokens in cli.py moves code into the library instead.
    """
    assert parser_tokens((SRC / "cli.py").read_text(encoding="utf-8")) \
        <= CLI_TOKEN_LIMIT


def test_parser_tokens_skip_comments_and_blank_lines():
    assert parser_tokens("x = 1  # one\n\n# two\ny = (1,\n     2)\n") \
        == parser_tokens("x = 1\ny = (1, 2)\n") == 13
