"""The packaging configuration must ship every ``repro`` sub-package: a
non-editable ``pip install .`` of a list that misses one yields an
install whose imports fail (``repro.runtime`` imports ``repro.obs``)."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_packages() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    listing = re.search(r"^\[tool\.setuptools\]\npackages = \[(.*?)\]", text, re.S | re.M)
    assert listing, "pyproject.toml no longer lists [tool.setuptools] packages explicitly"
    return set(re.findall(r'"([^"]+)"', listing.group(1)))


def test_every_repro_package_is_packaged():
    src = ROOT / "src"
    on_disk = {
        ".".join(init.parent.relative_to(src).parts) for init in src.glob("repro/**/__init__.py")
    }
    assert on_disk >= {"repro", "repro.obs", "repro.fleet", "repro.statesync"}
    assert on_disk <= declared_packages(), sorted(on_disk - declared_packages())
