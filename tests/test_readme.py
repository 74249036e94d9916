"""The README's "Library surface" section names exactly the package's exports."""

import re
from pathlib import Path

import trifree_efx

README = Path(__file__).resolve().parent.parent / "README.md"


def library_surface_names():
    """Every backticked span of the section, fenced code blocks left out."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return re.findall(r"`([^`]+)`", prose)


def test_readme_library_surface_is_the_package_surface():
    names = library_surface_names()
    assert all(name.isidentifier() for name in names), names
    assert set(names) == set(trifree_efx.__all__)
    for name in names:
        assert getattr(trifree_efx, name, None) is not None, name
