"""Package exports: every name in a package's ``__all__`` imports."""

import importlib

PACKAGES = ("spinctl.compiler", "spinctl.controller", "spinctl.physics", "spinctl.experiments")


def test_every_exported_name_imports():
    for package in PACKAGES:
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{package} exports {missing}, which it does not define"
