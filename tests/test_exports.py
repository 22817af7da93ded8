"""Every name a csi_tcn module lists in `__all__` resolves, so a deleted
function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import csi_tcn

# `__main__` runs the CLI when imported.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(csi_tcn.__path__, "csi_tcn.") if info.name != "csi_tcn.__main__"
)


def test_modules_found():
    assert "csi_tcn.tensor" in MODULES and "csi_tcn.augment" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
