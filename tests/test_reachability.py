"""Every ``src/repro`` module is reached, and every name referenced.

Modules: walks ``import`` statements with :mod:`ast` from the CLI, the
benchmarks and the examples.  A package ``__init__`` re-exporting its
own submodules does not count as a use: ``from repro.sca import X``
reaches the submodule that defines ``X``, not its siblings.  A module
only its own tests import is dead weight and fails this test.
``src/repro`` has no dynamic imports, so the static graph is complete.

Names: every top-level function and class, and every non-dunder
method, must be named somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside its own definition.  A package ``__init__``'s
re-exports and ``__all__`` strings do not count.  The check is
textual, so a name that collides with another can hide dead code, but
it never flags a name that is used.  Modules unreached on purpose
(``ALLOWED``) keep their whole API.

Imports: every name a non-``__init__`` module imports at module level
(``if TYPE_CHECKING:`` blocks included) must be used in that module —
read as an identifier, named in a string annotation, or re-exported
through ``__all__``.  A mention in a docstring or comment is not a use.
``from __future__`` imports are exempt.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Unreached on purpose, each with the reason it stays.
ALLOWED = {
    "repro.fault": "the point-validation countermeasure the pyramid cites",
}

#: Unreferenced names that stay, each with its reason.
ALLOWED_NAMES = {
    "repro.server.http._Handler.do_GET":
        "http.server dispatches GET requests to it",
    "repro.server.http._Handler.log_message":
        "http.server calls it; the override keeps request logs quiet",
    "repro.arch.coprocessor.EccCoprocessor.cycles_per_point_multiplication":
        "tests pin the paper's ~85.7k-cycle operating point with it",
    "repro.intermittent.engine.IntermittentResult.wire_payloads":
        "tests read one label's frames off a session's wire with it",
    "repro.power.energy.EnergyModel.energy_per_operation":
        "tests pin the paper's 5.1 uJ per point multiplication with it",
    "repro.campaign.progress.CollectingReporter":
        "tests watch the acquisition engine's progress callbacks with it",
    "repro.obs.report.canonical_span_bytes":
        "tests check that same-seed traced runs replay byte-identically",
    "repro.obs.report.canonical_metrics_bytes":
        "tests check that same-seed metric snapshots replay "
        "byte-identically",
}


def _name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_name(p): p for p in (SRC / "repro").rglob("*.py")}


def _allowed(module):
    return any(module == a or module.startswith(a + ".") for a in ALLOWED)


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
    unreached = sorted(m for m in MODULES
                       if m not in seen and not _allowed(m))
    assert unreached == []


def test_allowlist_names_only_unreached_modules():
    assert [a for a in ALLOWED if a in reached()] == []


def _corpus_lines(path):
    """``path``'s lines with ``__all__`` and ``__init__`` re-exports
    blanked, so neither counts as a use."""
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.parse(text).body:
        reexport = path.name == "__init__.py" and \
            isinstance(node, ast.ImportFrom) and node.level
        exports = isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets)
        if reexport or exports:
            lines[node.lineno - 1:node.end_lineno] = \
                [""] * (node.end_lineno - node.lineno + 1)
    return lines


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _FUNCTIONS) \
                        and not re.fullmatch(r"__\w+__", sub.name):
                    yield f"{node.name}.{sub.name}", sub


def _words(lines):
    return Counter(w for line in lines for w in re.findall(r"\w+", line))


def unreferenced_names():
    corpus = {p: _corpus_lines(p) for d in ("src", "benchmarks", "examples")
              for p in (ROOT / d).rglob("*.py")}
    uses = _words(line for lines in corpus.values() for line in lines)
    found = []
    for module, path in MODULES.items():
        if _allowed(module):
            continue
        for qualname, node in _definitions(ast.parse(path.read_text())):
            name = qualname.rpartition(".")[2]
            own = _words(corpus[path][node.lineno - 1:node.end_lineno])
            if uses[name] == own[name]:
                found.append(f"{module}.{qualname}")
    return found


def test_every_name_is_referenced():
    assert [n for n in unreferenced_names() if n not in ALLOWED_NAMES] == []


def test_allowed_names_are_unreferenced():
    assert sorted(ALLOWED_NAMES.keys() - set(unreferenced_names())) == []


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _strings(tree):
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _used_names(tree):
    """Identifiers ``tree`` reads, names in its string annotations
    (``"Optional[X]"``), and its ``__all__`` entries."""
    used = _names(tree)
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            for text in _strings(annotation) if annotation else ():
                used |= _names(ast.parse(text, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(_strings(node.value))
    return used


def _module_level_imports(tree):
    """Import statements outside function and class bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports():
    found = []
    for module, path in MODULES.items():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        for node in _module_level_imports(tree):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    found.append(f"{module}: {name}")
    return sorted(found)


def test_every_import_is_used():
    assert unused_imports() == []
