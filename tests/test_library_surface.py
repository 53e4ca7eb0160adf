"""Every public function of the library is called from inside the
package, or the README's Library section says why it stays."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {path.name: path.read_text()
           for path in sorted((ROOT / "src" / "grassperm").glob("*.py"))}


def unreached(sources):
    """The public top-level functions of the modules (file name ->
    source) that no module but __init__.py names, as a name or as an
    attribute.  An import names nothing, so __init__'s exports and an
    unused import reach no function."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    named = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    return defined - named


def listed_in_readme():
    text = (ROOT / "README.md").read_text()
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`: ", library, re.MULTILINE))


def test_every_public_function_is_reached_or_listed():
    # equal, not a subset, so that the list goes stale in neither way
    assert unreached(SOURCES) == listed_in_readme()


def test_a_planted_function_is_unreached():
    planted = dict(SOURCES)
    planted["perms.py"] += "\n\ndef planted():\n    return 1\n"
    assert unreached(planted) == listed_in_readme() | {"planted"}
    # exported and imported, it is still unreached; a call reaches it
    planted["__init__.py"] += "\nplanted()\n"
    planted["cli.py"] += "\nfrom grassperm.perms import planted\n"
    assert "planted" in unreached(planted)
    planted["cli.py"] += "planted()\n"
    assert "planted" not in unreached(planted)
