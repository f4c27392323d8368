"""The benchmark under perfbench/ calls swapfact by name.  A rename in the
package must fail here, in the test suite, rather than in a benchmark run,
so every swapfact name the benchmark's sources import, and every attribute
they read from such a name, must resolve."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_references(source: str):
    """(module, name or None, attributes read from it) per swapfact import;
    name is None for a plain `import swapfact...`."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "swapfact":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "swapfact":
                    bound[alias.asname or alias.name] = (alias.name, None)
    attrs = {local: set() for local in bound}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) and node.value.id in bound:
            attrs[node.value.id].add(node.attr)
    return [(module, name, sorted(attrs[local]))
            for local, (module, name) in bound.items()]


def test_benchmark_references_resolve():
    missing, seen = [], 0
    for path in sorted(PERFBENCH.glob("*.py")):
        refs = benchmark_references(path.read_text(encoding="utf-8"))
        for module, name, attrs in refs:
            seen += 1
            obj = importlib.import_module(module)
            label = module
            if name is not None:
                label = f"{module}.{name}"
                if not hasattr(obj, name):
                    missing.append(f"{path.name}: {label}")
                    continue
                obj = getattr(obj, name)
            missing += [f"{path.name}: {label}.{a}" for a in attrs
                        if not hasattr(obj, a)]
    assert seen, "no swapfact imports found under perfbench/"
    assert not missing, missing


def test_reference_scan_sees_attributes_and_renames():
    refs = benchmark_references(
        "import swapfact\n"
        "from swapfact.braid import BraidWord as BW\n"
        "def f():\n    from swapfact.dsl import parse\n"
        "    return BW.from_ints, swapfact.__version__\n")
    assert sorted(refs) == [("swapfact", None, ["__version__"]),
                            ("swapfact.braid", "BraidWord", ["from_ints"]),
                            ("swapfact.dsl", "parse", [])]
