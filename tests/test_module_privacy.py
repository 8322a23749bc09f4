"""No module of the package reaches into another module's private names.

Every ``src/coverplan/*.py`` is parsed with ``ast``. A module may not
import an underscore name from another module (``from .search import
_reconstruct``) nor read one as an attribute of a module it imported
(``search._reconstruct``, ``os._exit``). Dunder names such as
``__name__`` are public. A module name is a name that an ``import``
statement binds, or a module of the package bound by ``from . import``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "coverplan"
MODULES = sorted(PACKAGE.glob("*.py"))
PACKAGE_MODULES = {path.stem for path in MODULES}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str, package_modules) -> list[str]:
    """Each import of, or attribute read of, another module's underscore
    name in ``source``, as the text it was written with."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.asname or alias.name.partition(".")[0])
                if any(map(private, alias.name.split("."))):
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            source_module = "." * node.level + (node.module or "")
            for alias in node.names:
                if private(alias.name):
                    found.append(f"from {source_module} import {alias.name}")
                elif node.level and not node.module and alias.name in package_modules:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reaches(path.read_text(encoding="utf-8"), PACKAGE_MODULES) == []


def test_the_guard_sees_each_kind_of_reach():
    assert {"cover", "cspace", "online", "search"} <= PACKAGE_MODULES
    source = "\n".join(
        [
            "import os",
            "import heapq as hq",
            "from . import cspace, search as s",
            "from .cover import _Descent, Library",
            "from coverplan.search import _reconstruct",
            "x = cspace._index(1) + s._max_ratio + os._exit + hq._heappop_max",
            "y = cspace.in_bounds, os.__name__, self._own, Library._private",
            "def f():",
            "    from .online import _home_configs",
        ]
    )
    assert sorted(private_reaches(source, PACKAGE_MODULES)) == sorted(
        [
            "from .cover import _Descent",
            "from coverplan.search import _reconstruct",
            "from .online import _home_configs",
            "cspace._index",
            "s._max_ratio",
            "os._exit",
            "hq._heappop_max",
        ]
    )
