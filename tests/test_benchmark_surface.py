"""The package keeps every name and module the benchmark in dcbench/ uses."""

import importlib
import importlib.util
import re
from pathlib import Path

import dcobserver
from helpers import one_mode_augmented

DCBENCH = Path(__file__).resolve().parents[1] / "dcbench"


def importable(name: str) -> bool:
    """Whether ``from dcobserver import name`` succeeds: an attribute, else a submodule.

    A submodule is an attribute of the package only once something has
    imported it, so hasattr alone would depend on which tests ran first.
    """
    if hasattr(dcobserver, name):
        return True
    try:
        importlib.import_module(f"dcobserver.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_package_has_every_name_the_workloads_call():
    text = (DCBENCH / "workloads.py").read_text()
    attributes = set(re.findall(r"\bdcobserver\.(\w+)", text))
    imported = set(re.findall(r"from dcobserver import (\w+)", text))
    assert {"convergence_diagnostics", "propagate"} <= attributes and "cli" in imported
    missing = [name for name in attributes if not hasattr(dcobserver, name)]
    missing += [name for name in imported if not importable(name)]
    assert sorted(missing) == []


def test_convergence_diagnostics_takes_the_benchmark_keywords():
    report = dcobserver.convergence_diagnostics(one_mode_augmented(), horizon=10.0, dt=0.1)
    assert report.converged


def test_every_traced_layer_imports():
    spec = importlib.util.spec_from_file_location("dcbench_tracing", DCBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        importlib.import_module(f"{tracing.PACKAGE}.{layer}")


def test_every_exported_name_resolves():
    assert [name for name in dcobserver.__all__ if not hasattr(dcobserver, name)] == []
