import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zxna"


def test_no_module_imports_another_modules_private_name():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "zxna"):
                where = f"{path.name}: from {'.' * node.level}{node.module or ''} import"
                hits += [f"{where} {a.name}" for a in node.names if a.name.startswith("_")]
    assert hits == []
