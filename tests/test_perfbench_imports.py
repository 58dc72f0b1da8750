import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _zxna_imports():
    """(file, module, name) of each zxna import in perfbench/*.py; name is None for ``import zxna...``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "zxna":
                yield from ((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "zxna")


def test_perfbench_zxna_imports_resolve():
    imports = list(_zxna_imports())
    names = {name for _, _, name in imports}
    assert {"greedy_assign", "transversal_decompose", "to_graph_like", "labeled_graph_of"} <= names
    for file, module, name in imports:
        mod = importlib.import_module(module)  # raises if the module is gone
        assert name is None or hasattr(mod, name), f"{file}: from {module} import {name}"
