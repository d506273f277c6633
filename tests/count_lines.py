"""Size of the package source: lines, code lines, docstring lines, the summed
__all__, the number of modules and the largest module's AST.

Every src/jrcsim/*.py file is read with ast and tokenize. A code line holds a
token outside comments and docstrings; a docstring line is a line of a module,
class or function docstring. The summed __all__ adds the lengths of the
__all__ lists of every module, the package's __init__ included; modules
counts the src/jrcsim/*.py files. The largest module is the one whose
ast.walk yields the most nodes; it sets the peak memory of compiling the
package on import.

    python tests/count_lines.py            # this tree's src/
    python tests/count_lines.py ROOT ...   # the src/ of other trees

Each tree prints one JSON line. The file is not named test_*, so the test suite
does not collect it, and it uses the standard library alone.
"""

import ast
import glob
import io
import json
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> list[ast.Expr]:
    """The docstring expressions of the module and of each class and function in it."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                found.append(first)
    return found


def _exported(tree: ast.Module) -> int:
    """The length of the module's literal __all__, 0 without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(node.value.elts)
    return 0


def count_file(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    docs = _docstrings(tree)
    starts = {(doc.lineno, doc.col_offset) for doc in docs}
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING and token.start in starts):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    doc_lines = {line for doc in docs for line in range(doc.lineno, doc.end_lineno + 1)}
    return {
        "src_lines": len(source.splitlines()),
        "code_lines": len(code),
        "docstring_lines": len(doc_lines),
        "summed_all": _exported(tree),
        "ast_nodes": sum(1 for _ in ast.walk(tree)),
    }


def count_tree(root: str) -> dict:
    """The sums of count_file over the root's src/jrcsim/*.py, their number,
    and for the AST nodes the name and node count of the module with the most."""
    totals = {"src_lines": 0, "code_lines": 0, "docstring_lines": 0, "summed_all": 0}
    nodes = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "jrcsim", "*.py"))):
        counts = count_file(path)
        nodes[os.path.basename(path)] = counts.pop("ast_nodes")
        for key, value in counts.items():
            totals[key] += value
    largest = max(nodes, key=nodes.get)
    return {**totals, "modules": len(nodes), "largest_module": largest, "largest_ast_nodes": nodes[largest]}


if __name__ == "__main__":
    for root in sys.argv[1:] or [ROOT]:
        print(json.dumps({"root": os.path.abspath(root), **count_tree(root)}))
