"""The mutation audit must still find every target it names and every
survivor it calls equivalent.

``tools/mutation_audit.py`` picks its targets by module and qualified
name, so a rename in the package would otherwise shrink the audit without
a word. The module is loaded from its file, as the benchmark's tracer is;
no mutant is run.
"""

import importlib.util
from pathlib import Path

AUDIT = Path(__file__).resolve().parent.parent / "tools" / "mutation_audit.py"


def load_audit():
    spec = importlib.util.spec_from_file_location("mutation_audit", AUDIT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_yields_mutants_and_every_equivalent_is_a_site():
    audit = load_audit()
    sites = {name: [m[0] for m in audit.mutants(name)] for name in audit.targets()}
    for module, wanted in audit.TARGETS.items():
        if wanted is audit.ALL:  # the module's functions, found by the audit
            assert any(labels for name, labels in sites.items() if name.startswith(module + "."))
        else:
            assert all(sites[f"{module}.{name}"] for name in wanted), module
    assert set(audit.EQUIVALENT) <= set().union(*sites.values())
