"""Design rules checked on the source tree."""

import ast
import importlib
import inspect
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "laplace_match"


def test_every_top_level_definition_is_named_outside_the_tests():
    # no code is kept that only its own unit tests call: each top-level
    # function or class of the package is named somewhere outside its own
    # body, in the package, the benchmark or pyproject.toml
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [(ROOT / "pyproject.toml").read_text()]
    outside += [path.read_text() for path in sorted((ROOT / "bench").glob("*.*"))]
    unnamed = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = lines[:first] + lines[node.end_lineno :]
            others = [t for p, t in sources.items() if p != path]
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(t) for t in ["\n".join(rest), *others, *outside]):
                unnamed.append(f"{path.name}:{node.name}")
    assert unnamed == []


def test_every_public_method_is_named_outside_the_tests():
    # the same rule for the methods and properties of the package's classes:
    # each one whose name has no leading underscore is named as `.name`
    # somewhere outside its own body, in the package or the benchmark
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.*"))]
    unnamed = []
    for path, text in sources.items():
        lines = text.splitlines()
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
                rest = lines[:first] + lines[node.end_lineno :]
                others = [t for p, t in sources.items() if p != path]
                word = re.compile(rf"\.{node.name}\b")
                if not any(word.search(t) for t in ["\n".join(rest), *others, *bench]):
                    unnamed.append(f"{path.name}:{cls.name}.{node.name}")
    assert unnamed == []


def _bench_module_aliases(tree):
    """{local name: module} for each laplace_match module a bench file
    imports, and the names its `from laplace_match... import` lines read
    that the source module lacks."""
    aliases, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "laplace_match":
                    module = importlib.import_module(alias.name)
                    aliases[alias.asname or alias.name.split(".")[0]] = module
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "laplace_match":
            source = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(source, alias.name):
                    value = getattr(source, alias.name)
                else:  # `from package import submodule` imports it
                    try:
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                if inspect.ismodule(value):
                    aliases[alias.asname or alias.name] = value
    return aliases, missing


def test_every_library_name_the_benchmark_reads_exists():
    # the benchmark reads names off the library's modules: the generators
    # and the oracle through `cli`, the catalogue as
    # diagnostics._FAMILY_BASES, and so on; a moved or renamed name fails
    # here, not only in the benchmark's self-test
    missing = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases, unimported = _bench_module_aliases(tree)
        missing += [f"{path.name}: {name}" for name in unimported]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
                continue
            module = aliases.get(node.value.id)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert missing == []
