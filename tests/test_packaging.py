"""The packaging configuration must list exactly the ``repro`` packages on
disk: a non-editable ``pip install .`` of a list that misses one yields an
install whose imports fail (``repro.runtime`` imports ``repro.obs``), and
one that names a deleted package fails to build."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_packages() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    listing = re.search(r"^\[tool\.setuptools\]\npackages = \[(.*?)\]", text, re.S | re.M)
    assert listing, "pyproject.toml no longer lists [tool.setuptools] packages explicitly"
    return set(re.findall(r'"([^"]+)"', listing.group(1)))


def packages_on_disk() -> set[str]:
    src = ROOT / "src"
    return {
        ".".join(init.parent.relative_to(src).parts) for init in src.glob("repro/**/__init__.py")
    }


def test_every_repro_package_is_packaged():
    on_disk = packages_on_disk()
    assert on_disk >= {"repro", "repro.obs", "repro.fleet", "repro.statesync"}
    assert on_disk <= declared_packages(), sorted(on_disk - declared_packages())


def test_every_declared_repro_package_exists():
    declared = {name for name in declared_packages() if name.split(".")[0] == "repro"}
    assert declared <= packages_on_disk(), sorted(declared - packages_on_disk())
