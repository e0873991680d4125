"""Tests for the public API surface of the ``repro`` package."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import itertools
from pathlib import Path
from typing import Iterator

import pytest

import repro


#: The constructors and entry points below and beside the spec path whose
#: every parameter must have a caller outside the tests, as
#: ``module:name`` (``test_every_keyword_has_a_caller``).
KEYWORD_SIGNATURES = (
    "repro.flash.chip:NandFlash",
    "repro.flash.mtd:MtdDevice",
    "repro.ftl.base:TranslationLayer",
    "repro.ftl.page_mapping:PageMappingFTL",
    "repro.ftl.nftl:NFTL",
    "repro.core.leveler:SWLeveler",
    "repro.sim.core:RequestCore",
    "repro.service.engine:ServiceEngine",
    "repro.fault.crashsim:CrashConsistencyHarness",
    "repro.ftl.factory:make_layer",
    "repro.ftl.factory:build_stack",
    "repro.array.device:build_array",
    "repro.arena.tournament:run_arena",
    "repro.fault.campaign:run_fault_campaign",
    "repro.core.policies:LevelerSpec",
    "repro.traces.generator:WorkloadParams",
)


def settable_slots() -> dict[str, list[str]]:
    """Each signature's settable values: a dataclass's fields, else the
    parameters of the function or of the class's ``__init__``.

    CI prints the total beside the line counts, as the knob trend.
    """
    slots = {}
    for entry in KEYWORD_SIGNATURES:
        module, _, name = entry.partition(":")
        target = getattr(importlib.import_module(module), name)
        if dataclasses.is_dataclass(target):
            slots[name] = [field.name for field in dataclasses.fields(target)]
        else:
            init = target.__init__ if inspect.isclass(target) else target
            slots[name] = [
                param for param in inspect.signature(init).parameters
                if param != "self"
            ]
    return slots


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.flash",
            "repro.ftl",
            "repro.traces",
            "repro.sim",
            "repro.analysis",
            "repro.util",
            "repro.cli",
            "repro.obs",
            "repro.workloads",
            "repro.endurance",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        imported = importlib.import_module(module)
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module}.{name} missing"

    def test_every_public_symbol_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, (int, float, str, tuple)):
                continue
            if hasattr(obj, "__doc__"):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


class TestQuickstartContract:
    """The README quickstart must keep working verbatim."""

    def test_readme_snippet(self):
        import random

        from repro import MLC2_TINY, SWLConfig, build_stack

        stack = build_stack(
            MLC2_TINY, driver="nftl",
            swl=SWLConfig(threshold=20, k=0), store_data=True,
        )
        stack.layer.write(0, data=b"hello")
        assert stack.layer.read(0) == b"hello"
        rng = random.Random(1)
        for _ in range(5_000):
            stack.layer.write(rng.randrange(8))
        assert sum(stack.flash.erase_counts) > 0
        assert isinstance(stack.leveler.stats.as_dict(), dict)


class TestEveryModuleIsReached:
    """AST-only import graph: nothing under ``src/repro`` is dead weight.

    A module earns its place by being imported, directly or through
    other reached modules, from something a user or CI runs: the CLI
    (``repro/__main__.py``) or a file outside ``src/``, ``tests/`` and
    ``examples/`` (``bench/``, ``benchmarks/``, ``scripts/``).  A
    package ``__init__`` re-exporting its own modules does not count.
    """

    ROOT = Path(__file__).parent.parent
    SRC = ROOT / "src"

    def _file(self, name: str) -> Path | None:
        base = self.SRC.joinpath(*name.split("."))
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.exists():
                return path
        return None

    def _imports(self, path: Path) -> Iterator[tuple[str, str | None]]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield from ((node.module, alias.name) for alias in node.names)

    def _resolve(self, module: str, name: str | None) -> str:
        """The defining module behind ``from module import name``."""
        if name is None or self._file(module) is None:
            return module
        if self._file(f"{module}.{name}") is not None:
            return f"{module}.{name}"
        if self._file(module).name == "__init__.py":
            for source, bound in self._imports(self._file(module)):
                if bound == name:
                    return self._resolve(source, bound)
        return module

    def test_every_module_is_imported_by_something_that_runs(self):
        reached: set[str] = set()
        queue = [self.SRC / "repro" / "__main__.py"] + [
            path for path in self.ROOT.rglob("*.py")
            if path.relative_to(self.ROOT).parts[0]
            not in ("src", "tests", "examples")
        ]
        while queue:
            path = queue.pop()
            own = None
            if path.name == "__init__.py" and self.SRC in path.parents:
                own = ".".join(path.relative_to(self.SRC).parts[:-1]) + "."
            for module, name in self._imports(path):
                target = self._resolve(module, name)
                if own is not None and target.startswith(own):
                    continue
                # Importing a.b.c also runs a/__init__ and a/b/__init__.
                parts = target.split(".")
                for depth in range(1, len(parts) + 1):
                    reaching = ".".join(parts[:depth])
                    if reaching not in reached and self._file(reaching):
                        reached.add(reaching)
                        queue.append(self._file(reaching))
        modules = {
            ".".join(path.relative_to(self.SRC).with_suffix("").parts)
            for path in (self.SRC / "repro").rglob("*.py")
            if path.name not in ("__init__.py", "__main__.py")
        }
        assert sorted(modules - reached) == []

    #: Public names only tests call, each waiting on the ROADMAP item that
    #: decides its fate (item 2: does T scale with endurance?).
    AWAITING_A_DECISION = {"repro.sim.experiment.scaled_threshold"}

    def test_every_public_name_has_a_caller(self):
        """No public top-level name under ``src/repro`` lives only for tests.

        A caller is any import, name or attribute spelled like the name
        in a file outside ``tests/`` and ``examples/`` — the defining
        module included — except a package ``__init__``: re-exporting a
        name is not using it.  Matching is by spelling, so the guard can
        miss a dead name that shares it with a live one; a name spelled
        only inside strings (quoted annotations, ``getattr``) does not
        count as used.
        """
        spelled: set[str] = set()
        for path in self.ROOT.rglob("*.py"):
            parts = path.relative_to(self.ROOT).parts
            if parts[0] in ("tests", "examples") or (
                path.name == "__init__.py" and parts[0] == "src"
            ):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    spelled.add(node.id)
                elif isinstance(node, ast.Attribute):
                    spelled.add(node.attr)
                elif isinstance(node, ast.alias):
                    spelled.add(node.name.rpartition(".")[2])
        unused = set()
        for path in (self.SRC / "repro").rglob("*.py"):
            if path.name in ("__init__.py", "__main__.py"):
                continue
            module = ".".join(path.relative_to(self.SRC).with_suffix("").parts)
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign):
                    names = [node.target.id]  # a module-level x: T = v
                else:
                    continue
                unused.update(
                    f"{module}.{name}" for name in names
                    if not name.startswith("_") and name not in spelled
                )
        assert sorted(unused) == sorted(self.AWAITING_A_DECISION)

    #: Parameters no scanned caller sets, each kept for the reason given.
    #: ``signature.parameter`` -> why it stays a parameter.
    KEPT_KEYWORDS = {
        "LevelerSpec.selection": "the paper's Section 3.3 claim, run by "
        "benchmarks/bench_ablation_selection.py through its own parameter",
        "LevelerSpec.delta": "a challenger knob the arena roster leaves "
        "at its default; the registry validates and labels it",
        "LevelerSpec.check_period": "a challenger knob, as delta",
        "LevelerSpec.batch": "a challenger knob, as delta",
        "LevelerSpec.cache_pages": "a challenger knob, as delta",
        "LevelerSpec.period_requests": "a challenger knob, as delta",
        "LevelerSpec.span_blocks": "a challenger knob, as delta",
        "ServiceEngine.queue_sample_every": "tests/test_obs_golden.py pins "
        "its queue-depth events at 100",
        "ServiceEngine.heatmap_interval": "set through "
        "``**heatmap_kwargs(telemetry)``",
        "ServiceEngine.heatmap_bins": "set through "
        "``**heatmap_kwargs(telemetry)``",
        "ServiceEngine.telemetry": "relayed by run_service_soak and the "
        "tenant runner from the CLI's --telemetry",
        "build_array.fault_plan": "the fault-plan path (ROADMAP item 1), "
        "relayed by ExperimentSpec.build",
        "WorkloadParams.cold_write_period": "tests/test_traces.py "
        "PINNED_TRACES pins traces generated at other periods",
        "WorkloadParams.write_rate": "the paper's trace statistics (Section "
        "5.1); examples/disk_cache_wear.py scales them",
        "WorkloadParams.read_rate": "as write_rate",
        "WorkloadParams.written_fraction": "as write_rate",
        "WorkloadParams.hot_fraction": "as write_rate",
        "WorkloadParams.static_fraction": "as write_rate",
        "WorkloadParams.hot_write_share": "as write_rate",
    }

    def test_every_keyword_has_a_caller(self):
        """Every parameter of these signatures is set outside the tests.

        The keyword counterpart of :meth:`test_every_public_name_has_a_caller`:
        a parameter or field is set when a call in ``src/repro``,
        ``bench``, ``benchmarks`` or ``scripts`` passes it, by keyword or
        by position.  A same-named pass-through (``f(x=x)`` inside a
        function with a parameter ``x``) is not a caller by itself: it
        relays the callers of the enclosing signature when that is one
        of these, and counts for nothing otherwise.  Calls are matched by
        spelling; ``super().__init__`` resolves to the first base class.
        """
        params = settable_slots()
        # Other spellings of the same call: an alias, a subclass that
        # inherits the constructor, make_layer's driver dispatch.
        spellings = {"SWLConfig": ("LevelerSpec",),
                     "Simulator": ("RequestCore",),
                     "cls": ("PageMappingFTL", "NFTL")}

        set_by: set[tuple[str, str]] = set()
        relays: set[tuple[tuple[str, str], tuple[str, str]]] = set()

        def scan(node: ast.AST, owner: str | None, scope: set[str],
                 cls: ast.ClassDef | None) -> None:
            if isinstance(node, ast.ClassDef):
                cls = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = cls.name if node.name == "__init__" and cls else node.name
                args = node.args
                scope = {a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs}
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None)
                if (name == "__init__" and cls is not None and cls.bases
                        and isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", None) == "super"):
                    name = getattr(cls.bases[0], "id", None)
                if name == "cls" and owner != "make_layer":
                    name = None
                for callee in spellings.get(name, (name,)):
                    names = params.get(callee, [])
                    passed = list(zip(names, itertools.takewhile(
                        lambda arg: not isinstance(arg, ast.Starred),
                        node.args)))
                    passed += [(kw.arg, kw.value) for kw in node.keywords
                               if kw.arg in names]
                    for param, value in passed:
                        if not (isinstance(value, ast.Name)
                                and value.id == param and param in scope):
                            set_by.add((callee, param))
                        elif owner in params and param in params[owner]:
                            relays.add(((owner, param), (callee, param)))
            for child in ast.iter_child_nodes(node):
                scan(child, owner, scope, cls)

        for top in ("src/repro", "bench", "benchmarks", "scripts"):
            for path in sorted((self.ROOT / top).rglob("*.py")):
                scan(ast.parse(path.read_text()), None, set(), None)
        grown = True
        while grown:
            reached = {dst for src, dst in relays if src in set_by}
            grown = not reached <= set_by
            set_by |= reached
        unset = {
            f"{callee}.{param}" for callee, names in params.items()
            for param in names if (callee, param) not in set_by
        }
        assert sorted(unset) == sorted(self.KEPT_KEYWORDS)

    def test_no_leveler_or_host_is_probed_for_attributes(self):
        """The wiring reads a leveler's attributes; it never feels for them.

        ``WearLeveler`` declares every attribute a consumer needs (the
        capability flags, no-op ``attach_bus``/``persist``/``restore``),
        ``WearLevelingHost`` declares ``mtd`` and ``geometry``, and
        ``TranslationLayer`` declares both host entries
        (``read_pages``/``write_pages``), so a ``hasattr`` or a defaulted
        ``getattr`` on a leveler, a host or a layer is a mechanism that
        left the contract — or a consumer that stopped trusting it.
        """
        def is_probe(call: ast.Call) -> bool:
            if not isinstance(call.func, ast.Name):
                return False
            return call.func.id == "hasattr" or (
                call.func.id == "getattr"
                and len(call.args) + len(call.keywords) == 3
            )

        def names_a_leveler_or_host(node: ast.expr) -> bool:
            if isinstance(node, ast.Call):
                return is_probe(node)  # getattr(getattr(host, ...), ...)
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name) else None
            )
            return name in ("leveler", "host", "layer")

        probes = [
            f"{path.relative_to(self.ROOT)}:{node.lineno}"
            for path in sorted((self.SRC / "repro").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and is_probe(node)
            and node.args and names_a_leveler_or_host(node.args[0])
        ]
        assert probes == []
