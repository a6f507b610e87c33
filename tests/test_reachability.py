"""Every ``src/repro`` module is reached from a program entry point.

Walks ``import`` statements with :mod:`ast` from the CLI, the
benchmarks and the examples.  A package ``__init__`` re-exporting its
own submodules does not count as a use: ``from repro.sca import X``
reaches the submodule that defines ``X``, not its siblings.  A module
only its own tests import is dead weight and fails this test.
``src/repro`` has no dynamic imports, so the static graph is complete.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Unreached on purpose, each with the reason it stays.
ALLOWED = {
    "repro.fault": "the point-validation countermeasure the pyramid cites",
    "repro.sca.cpa": "the reference that tests pin StreamingCpa against",
    "repro.sca.metrics": "attack-quality metrics, pending a decision to "
                         "wire them into a bench or delete them",
    "repro.ec.encoding": "point compression, pending a decision to wire "
                         "it into the frame codec or delete it",
}


def _name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_name(p): p for p in (SRC / "repro").rglob("*.py")}


def _imports(path, package=""):
    """(module, imported names) for each import statement in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                mod = f"{base}.{mod}".rstrip(".")
            yield mod, tuple(alias.name for alias in node.names)


@functools.lru_cache(maxsize=None)
def _module_imports(name):
    path = MODULES[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    return tuple(_imports(path, package))


def _targets(mod, names):
    """The modules one ``from mod import names`` statement runs."""
    parts = mod.split(".")
    found = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    for alias in names:
        if f"{mod}.{alias}" in MODULES:
            found.add(f"{mod}.{alias}")
        elif mod in MODULES:  # follow a re-export to where it is defined
            found |= {t for m, n in _module_imports(mod) if alias in n
                      for t in _targets(m, (alias,))}
    return found & MODULES.keys()


def reached():
    seen = {"repro.cli", "repro.__main__"}
    todo = [(None, _module_imports(m)) for m in seen]
    todo += [(None, _imports(p)) for d in ("benchmarks", "examples")
             for p in (ROOT / d).glob("*.py")]
    while todo:
        package, imports = todo.pop()
        for mod, names in imports:
            for target in _targets(mod, names) - seen:
                if package and target.startswith(package + "."):
                    continue  # a package re-exporting its own pieces
                seen.add(target)
                is_package = MODULES[target].name == "__init__.py"
                todo.append((target if is_package else None,
                             _module_imports(target)))
    return seen


def test_every_module_is_reached():
    seen = reached()
    unreached = sorted(
        m for m in MODULES if m not in seen
        and not any(m == a or m.startswith(a + ".") for a in ALLOWED))
    assert unreached == []


def test_allowlist_names_only_unreached_modules():
    assert [a for a in ALLOWED if a in reached()] == []
