"""The README's Library example runs as written against the package, and
every package name it quotes exists."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import fairalloc

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = {info.name for info in pkgutil.iter_modules(fairalloc.__path__)}
OWNERS = {
    "Instance": fairalloc.Instance,
    "Allocation": fairalloc.Allocation,
    "fairalloc": fairalloc,
}


def test_library_snippet_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def quoted_names(text: str) -> set[str]:
    """Every backticked `Owner.name`, where the owner is `Instance`,
    `Allocation`, `fairalloc` or one of the package's modules."""
    owners = "|".join(sorted({*OWNERS, *MODULES}))
    return set(re.findall(rf"`((?:{owners})\.\w+)`", text))


def resolves(name: str) -> bool:
    """Whether the package has the name: a module or class attribute, or a
    dataclass field."""
    owner_name, attribute = name.split(".")
    owner = OWNERS.get(owner_name) or importlib.import_module(f"fairalloc.{owner_name}")
    if dataclasses.is_dataclass(owner):
        if attribute in {field.name for field in dataclasses.fields(owner)}:
            return True
    return hasattr(owner, attribute)


def test_every_quoted_package_name_resolves():
    names = quoted_names(README.read_text())
    assert {"Instance.rows", "Instance.check_values", "fairalloc.replay_trace"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []


def test_the_name_guard_sees_a_missing_name():
    text = "`Instance.row_scales`, `model.nothing`, `math.log`, `Allocation.bundles`"
    names = quoted_names(text)
    assert names == {"Instance.row_scales", "model.nothing", "Allocation.bundles"}
    assert [name for name in sorted(names) if not resolves(name)] == [
        "Instance.row_scales",
        "model.nothing",
    ]
