"""The governor package stays below the simulator: it never imports it.

Hosts and requesters reach the governor only through messages, so the
governor (its protocol endpoint included) must be usable with no engine,
agents, scenario loader or command line; and the simulated devices
import nothing of the governor, since every form they read travels on
the wire. The wire formats (`momcc.wire`) build on the domain records
alone, so every side can share them.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "momcc"
GOVERNOR = PACKAGE / "governor"
FORBIDDEN = ("momcc.engine", "momcc.agents", "momcc.scenario", "momcc.cli")


def imported_modules(source: str, package: str) -> set[str]:
    """Absolute names of every module a source file imports, relative
    imports resolved against `package`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[: len(base) - node.level + 1]
            else:
                base = []
            if node.module:
                base = base + node.module.split(".")
                found.add(".".join(base))
            # `from X import name` may name a submodule of X.
            found.update(".".join(base + [alias.name]) for alias in node.names)
    return found


def violations(modules: set[str]) -> list[str]:
    return sorted(
        m for m in modules if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)
    )


@pytest.mark.parametrize("source, expected", [
    ("from ..agents import Outbound", ["momcc.agents", "momcc.agents.Outbound"]),
    ("from .. import engine", ["momcc.engine"]),
    ("import momcc.scenario", ["momcc.scenario"]),
    ("from momcc.cli import main", ["momcc.cli", "momcc.cli.main"]),
    ("from ..wire import Outbound\nfrom . import registry", []),
])
def test_import_resolution_finds_forbidden_modules(source, expected):
    assert violations(imported_modules(source, "momcc.governor")) == expected


def test_governor_package_never_imports_the_simulator():
    files = sorted(GOVERNOR.glob("*.py"))
    assert files
    found = {
        path.name: violations(imported_modules(path.read_text(encoding="utf-8"), "momcc.governor"))
        for path in files
    }
    assert {name: bad for name, bad in found.items() if bad} == {}


def momcc_imports(module: str) -> set[str]:
    """The `momcc` modules (and names in them) that `momcc.<module>` imports."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    return {m for m in imported_modules(source, "momcc") if m == "momcc" or m.startswith("momcc.")}


def test_wire_imports_only_the_domain_records():
    found = momcc_imports("wire")
    assert found
    assert {m for m in found if not m.startswith("momcc.domain")} == set()


def test_agents_never_import_the_governor():
    found = momcc_imports("agents")
    assert "momcc.wire" in found
    assert {m for m in found if m == "momcc.governor" or m.startswith("momcc.governor.")} == set()
