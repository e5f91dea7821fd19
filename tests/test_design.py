"""Design rules checked on the source tree."""

import ast
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
