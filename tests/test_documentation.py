"""Documentation gates: every public item carries a docstring, and the
promised repository artifacts exist.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


def _walk_modules():
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=lambda m: m.__name__)
def test_every_module_has_a_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=lambda m: m.__name__)
def test_every_public_class_and_function_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not (method.__doc__ and method.__doc__.strip()):
                    # Properties/overrides of documented bases excluded
                    # by the isfunction check above; plain public
                    # methods must be documented.
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}")


def test_every_package_declares_public_surface():
    packages = [m for m in ALL_MODULES
                if hasattr(m, "__path__")]
    missing = [p.__name__ for p in packages
               if not hasattr(p, "__all__")]
    assert not missing, f"packages without __all__: {missing}"


def test_promised_artifacts_exist():
    for artifact in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/architecture.md", "docs/calibration.md",
                     "docs/protocols.md", "docs/api.md",
                     "docs/campaigns.md", "docs/observability.md",
                     "docs/verification.md", "docs/scale.md",
                     "examples/quickstart.py",
                     "examples/adaptive_replication.py",
                     "examples/scalability_tuning.py",
                     "examples/mission_modes.py",
                     "examples/replicated_kvstore.py"):
        assert (REPO_ROOT / artifact).exists(), artifact


def test_design_md_maps_every_figure_to_a_bench():
    design = (REPO_ROOT / "DESIGN.md").read_text()
    for bench in ("test_fig3_rtt_breakdown", "test_fig4_overhead",
                  "test_fig6_adaptive_switch", "test_fig7_tradeoff",
                  "test_table2_scalability_policy",
                  "test_fig9_design_space", "test_table1_knob_mapping"):
        assert bench in design, bench
        assert (REPO_ROOT / "benchmarks" / f"{bench}.py").exists(), bench


#: A backticked span that opens with a CamelCase identifier
#: (``OrbClient``, ``RunRecord.telemetry``, ``Span(...)``).
_CAMEL_CASE_REF = re.compile(
    r"`([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)(?![A-Za-z0-9_])[^`\n]*`")


#: Every reference doc.  ``docs/performance.md`` is left out: it is a
#: log of past changes, and names what they deleted.
REFERENCE_DOCS = ["README.md"] + sorted(
    f"docs/{path.name}" for path in (REPO_ROOT / "docs").glob("*.md")
    if path.name != "performance.md")


@pytest.mark.parametrize("doc", REFERENCE_DOCS)
def test_docs_name_only_defined_classes(doc):
    """Every CamelCase name a reference doc puts in backticks is bound
    in some ``repro`` module, so a deleted class cannot linger in
    the prose."""
    defined = set()
    for module in ALL_MODULES:
        defined.update(vars(module))
    text = (REPO_ROOT / doc).read_text()
    stale = sorted({name for name in _CAMEL_CASE_REF.findall(text)
                    if name not in defined})
    assert not stale, f"{doc} names undefined classes: {stale}"


def test_python_floor_is_the_oldest_ci_python():
    """``requires-python`` promises what CI tests: its floor is the
    oldest interpreter in the test job's matrix (``@dataclass(slots=
    True)`` in ``repro.gcs.messages`` needs 3.10)."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', pyproject,
                      re.MULTILINE).group(1)
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = re.search(r"^\s*python-version: \[([^\]]*)\]$", ci,
                       re.MULTILINE).group(1)
    versions = [tuple(int(part) for part in version.strip(' "').split("."))
                for version in matrix.split(",")]
    assert ".".join(map(str, min(versions))) == floor
    readme = (REPO_ROOT / "README.md").read_text()
    assert f"Requires Python >= {floor}." in readme
