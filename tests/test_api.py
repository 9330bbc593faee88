"""The package exports only what the package itself uses, has no parameter
that only tests set, reads every JSONL input through a field table, and
builds every Pareto front with one staircase.

A public name (one listed in a module's `__all__`) that no code in `src/`
reads is API kept alive only by tests; such code belongs in the tests. So is
a defaulted parameter that no call in `src/` passes.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict
from pathlib import Path

import dsekit
from dsekit import cli, dataset
from dsekit.benchmarks import Family, extract_features
from dsekit.explorers import ExplorerId

PACKAGE = Path(dsekit.__file__).parent


def parsed_modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}


def exported(tree: ast.Module) -> list[str]:
    """The string entries of a module-level `__all__`, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, bare (`name`) or as an attribute (`obj.name`)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_the_scan_sees_the_package():
    modules = parsed_modules()
    assert PACKAGE / "cli.py" in modules and PACKAGE / "explorers" / "base.py" in modules
    assert "main" in exported(modules[PACKAGE / "cli.py"])


def test_every_exported_name_is_read_somewhere_in_the_package():
    modules = parsed_modules()
    loaded = set().union(*(loaded_names(tree) for tree in modules.values()))
    unread = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path, tree in modules.items()
        for name in exported(tree)
        if name not in loaded
    ]
    assert unread == []


def test_no_module_imports_an_underscore_name_from_another():
    """A name another module needs is public: listed in its module's `__all__`."""
    private = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {alias.name}"
        for path, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# Defaulted parameters that no call in the package passes, each with its reason.
UNPASSED_DEFAULTS = {
    "main.argv": "`entry` calls main() so that argparse reads sys.argv",
    "pretrain_supervised.epochs": "the run length, which unit tests shorten",
    "train_rl.epochs": "the run length, which unit tests shorten",
    "gae.gamma": "acceptance guarantee 6 checks gae's closed forms at other discounts",
    "gae.lam": "acceptance guarantee 6 checks gae's closed forms at lam 0 and 1",
    "gae.bootstrap": "acceptance guarantee 6 checks gae's closed forms on cut-off episodes",
}


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, call position or None if keyword-only) of every
    defaulted parameter of a def. A method is called through an instance or its
    class, so `self` or `cls` takes no call position, and `__init__` is called
    by its class name."""
    found = []
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            callee = owner.name if bound and node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first - bound):
                found.append((callee, arg.arg, index))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((callee, arg.arg, None))
    return found


def passes(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether a call passes the parameter by keyword, by position or by unpacking."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)


def test_every_defaulted_parameter_is_passed_somewhere_in_the_package():
    """A default that no call in `src/` overrides is a setting only tests choose.
    Calls are matched to defs by name alone, so two defs of one name share their calls."""
    modules = parsed_modules()
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    defaults = [found for tree in modules.values() for found in defaulted_parameters(tree)]
    assert ("read_text", "expected_hash", 1) in defaults and ("init", "seed", 1) in defaults
    unpassed = {
        f"{callee}.{parameter}"
        for callee, parameter, index in defaults
        if not any(passes(call, parameter, index) for call in calls.get(callee, []))
    }
    assert unpassed == set(UNPASSED_DEFAULTS)


def read_jsonl_calls(tree: ast.Module) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "read_jsonl"
    ]


def test_every_read_jsonl_call_passes_a_field_table():
    """Each call also passes text its caller read, never the constant None."""
    modules = parsed_modules()
    calls = {path: read_jsonl_calls(tree) for path, tree in modules.items()}
    assert sum(len(found) for found in calls.values()) >= 6  # read_instances, load and report
    for path, found in calls.items():
        for call in found:
            tables = call.args[2:3] + [kw.value for kw in call.keywords if kw.arg == "fields"]
            assert len(tables) == 1, f"{path.name}:{call.lineno}"
            assert isinstance(tables[0], ast.Name) and tables[0].id.endswith("_FIELDS"), (
                f"{path.name}:{call.lineno}"
            )
            texts = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "text"]
            assert len(texts) == 1, f"{path.name}:{call.lineno}"
            assert not (isinstance(texts[0], ast.Constant) and texts[0].value is None), (
                f"{path.name}:{call.lineno}"
            )


def test_every_table_key_is_a_key_its_writer_emits(tmp_path):
    """On a real one-benchmark round, each table's keys are among those of the
    record its writer emits, and that record, as written, passes the table."""
    (instance,) = dataset.synth_suite((Family.SMOOTH,), (0,), "small")
    features = tuple(float(v) for v in extract_features(instance))
    (portfolio,) = dataset.run_suite([instance], 20, master_seed=0)
    manifest = dataset.DatasetManifest(
        master_seed=0, budget=20, size_class="small", families=("smooth",), seeds=(0,),
        split_fraction=0.5, train_ids=(), inference_ids=(instance.id,),
        hashes={dataset.INSTANCES_FILE: "0" * 16},
    )
    manifest = dataset.persist_results(tmp_path, [instance], [portfolio], manifest)
    label = portfolio.argmin.value
    sample = dataset.LabeledSample(instance.id, features, label, portfolio.adrs_values)
    run = dataset._run_line(instance.id, portfolio.results[0], portfolio.adrs_values[0])
    written = {
        "INSTANCE_FIELDS": dataset.instance_line(instance, features),
        "RUN_FIELDS": run,
        "FRONT_POINT_FIELDS": run["front"][0],
        "LABEL_FIELDS": dataset._label_line(instance.id, label, portfolio.adrs_values),
        "REPORT_FIELDS": cli._report_line(sample, ExplorerId(label), 0.0),
        "MANIFEST_FIELDS": asdict(manifest),
    }
    tables = {name for name in vars(dataset) if name.endswith("_FIELDS")}
    assert tables == set(written)
    for name, record in written.items():
        fields = getattr(dataset, name)
        assert set(fields) <= set(record), name
        dataset._check_fields(json.loads(dataset.canonical_json(record)), fields)


def calls_by_enclosing_def(tree: ast.Module, callee: str) -> list[tuple[str, int]]:
    """(innermost enclosing def, line) of each call of `callee`, bare or as an attribute."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and callee in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append((owner, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_the_staircase_callers_build_a_pareto_front():
    """`ParetoFront` trusts the order it is given, so only the two callers that
    hold a `Staircase`'s points build one: `pareto_filter` and `explore`."""
    builders = {
        (path.relative_to(PACKAGE).as_posix(), owner)
        for path, tree in parsed_modules().items()
        for owner, _ in calls_by_enclosing_def(tree, "ParetoFront")
    }
    assert builders == {("pareto.py", "pareto_filter"), ("explorers/base.py", "explore")}


# Bare `sum(...)` calls whose argument is a list of ints, by module and
# argument source: Python 3.12 made builtin sum compensated on floats, so a
# float sum would give other bits than on 3.10 and 3.11.
INTEGER_SUMS = {
    ("benchmarks.py", "cards"),
    ("explorers/algorithms.py", "cards"),
}


def is_count(node: ast.expr) -> bool:
    """A generator of the int constant 1 (or any int constant): a count."""
    return (
        isinstance(node, ast.GeneratorExp)
        and isinstance(node.elt, ast.Constant)
        and type(node.elt.value) is int
    )


def test_builtin_sum_is_only_used_on_integers():
    float_sums = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: sum({ast.unparse(node.args[0]) if node.args else ''})"
        for path, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
        and not (
            len(node.args) == 1
            and not node.keywords
            and (
                is_count(node.args[0])
                or (path.relative_to(PACKAGE).as_posix(), ast.unparse(node.args[0])) in INTEGER_SUMS
            )
        )
    ]
    assert float_sums == []
