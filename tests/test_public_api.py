"""Public-API hygiene: exports resolve, are documented, and stay stable."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.model",
    "repro.util",
    "repro.gen",
    "repro.core",
    "repro.mp",
    "repro.fpga",
    "repro.sched",
    "repro.sim",
    "repro.vector",
    "repro.incremental",
    "repro.experiments",
]


@pytest.mark.parametrize("name", PACKAGES)
class TestPackageSurface:
    def test_imports(self, name):
        importlib.import_module(name)

    def test_has_docstring(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, name

    def test_all_entries_resolve(self, name):
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", [])
        assert exported, f"{name} should declare __all__"
        for entry in exported:
            assert hasattr(mod, entry), f"{name}.{entry} missing"

    def test_exported_callables_documented(self, name):
        mod = importlib.import_module(name)
        undocumented = []
        for entry in getattr(mod, "__all__", []):
            obj = getattr(mod, entry)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(entry)
        assert undocumented == [], f"{name}: undocumented exports {undocumented}"


class TestTopLevelConvenience:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_snippet_from_docstring(self):
        """The README/module-docstring quickstart must actually work."""
        from repro import Fpga, Task, TaskSet
        from repro.core import dp_test, gn2_test

        ts = TaskSet(
            [
                Task(wcet=2.1, deadline=5, period=5, area=7),
                Task(wcet=2.0, deadline=7, period=7, area=7),
            ]
        )
        fpga = Fpga(width=10)
        assert dp_test(ts, fpga).accepted is False
        assert gn2_test(ts, fpga).accepted is True
