"""`repro.lint` rule engine: fixture pairs per rule, suppression
pragmas, unused-suppression detection, JSON round-trip, CLI exit codes,
and the repo-wide gate (``src`` lints clean — the same invariant CI
enforces)."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.callgraph import ModuleResolver
from repro.lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.lint.effects import EFFECTS, build_project, effects_report
from repro.lint.engine import PARSE_ERROR_ID, build_project_for, module_name_for
from repro.lint.reporters import render_json, result_from_json, text_report

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint_fixture(name, modname, **kwargs):
    path = FIXTURES / name
    return lint_source(
        path.read_text(encoding="utf-8"), modname, path=str(path), **kwargs
    )


def rule_lines(result, rule):
    return sorted(f.line for f in result.findings if f.rule == rule)


# -- good/bad fixture pairs per rule ---------------------------------------

# (bad fixture, modname, rule, expected finding lines)
BAD_CASES = [
    ("rl001_bad.py", "repro.vector.kern", "RL001", [8, 12]),
    ("rl003_bad.py", "repro.vector.dp_vec", "RL003", [4, 10, 11, 12]),
    ("rl004_bad.py", "repro.vector.kern", "RL004", [8, 9, 10]),
    ("rl006_bad.py", "repro.core.newtest", "RL006", [10, 11, 13]),
    ("rl006_service_bad.py", "repro.service.batcher", "RL006", [10, 11]),
    ("rl007_bad.py", "repro.core.newtest", "RL007", [4]),
    ("rl007_service_bad.py", "repro.incremental.newmod", "RL007", [5]),
    ("rl010_bad.py", "repro.vector.newkern", "RL010", [15, 19]),
    ("rl012_bad.py", "repro.core.newtest", "RL012", [16]),
    ("rl013_bad.py", "repro.service.newengine", "RL013", [15, 21]),
]

GOOD_CASES = [
    ("rl001_good.py", "repro.vector.kern"),
    ("rl003_good.py", "repro.gen.custom"),
    ("rl003_passed_generator.py", "repro.experiments.scoring"),
    ("rl004_good.py", "repro.vector.kern"),
    ("rl006_good.py", "repro.core.newtest"),
    ("rl006_service_good.py", "repro.service.clock"),
    ("rl007_good.py", "repro.core.newtest"),
    ("rl007_service_good.py", "repro.service.engine"),
    ("rl010_good.py", "repro.vector.newkern"),
    ("rl012_good.py", "repro.core.newtest"),
    ("rl013_good.py", "repro.service.newengine"),
]


@pytest.mark.parametrize("name,modname,rule,lines", BAD_CASES)
def test_bad_fixture_flags_rule_at_lines(name, modname, rule, lines):
    result = lint_fixture(name, modname)
    assert rule_lines(result, rule) == lines
    # No stray findings from other rules on these minimal snippets.
    assert {f.rule for f in result.findings} == {rule}


@pytest.mark.parametrize("name,modname", GOOD_CASES)
def test_good_fixture_is_clean(name, modname):
    result = lint_fixture(name, modname)
    assert result.clean, text_report(result)


def test_rules_scope_by_module_identity():
    # The same numpy-importing source is a finding inside repro.vector
    # and legal outside it (RL001), legal in xp.py and search.patterns.
    src = "import numpy as np\n"
    assert not lint_source(src, "repro.gen.custom").findings
    assert not lint_source(src, "repro.vector.xp").findings
    assert not lint_source(src, "repro.search.patterns").findings
    bad = lint_source(src, "repro.vector.kern")
    assert [f.rule for f in bad.findings] == ["RL001"]


def test_rl007_layer_table_examples():
    # The contracts named in the rule: vector/core never import
    # experiments; model imports nothing above it.
    for mod in ("repro.vector.kern", "repro.core.newtest"):
        r = lint_source("import repro.experiments\n", mod)
        assert [f.rule for f in r.findings] == ["RL007"]
    r = lint_source("from repro.fpga.device import Fpga\n", "repro.model.custom")
    assert [f.rule for f in r.findings] == ["RL007"]
    # Downward is fine, and the scalar-twin exception holds: the
    # offsets module sits above repro.search by explicit table entry.
    assert not lint_source(
        "from repro.search.adaptive import adaptive_pattern_search\n",
        "repro.sim.offsets",
    ).findings
    # ... but the rest of repro.sim does not.
    assert lint_source(
        "from repro.search.adaptive import adaptive_pattern_search\n",
        "repro.sim.simulator",
    ).findings


def test_rl007_relative_imports_resolve():
    src = "from ..experiments import figures\n"
    r = lint_source(src, "repro.core.newtest")
    assert [f.rule for f in r.findings] == ["RL007"]
    # Package __init__ resolves level-1 to itself: repro/sim/__init__.py
    # importing .offsets (layer 7) is sanctioned by its own pin.
    assert not lint_source(
        "from . import offsets\n", "repro.sim", is_package=True
    ).findings


# -- transitive rules & effect fixpoint -------------------------------------

_TRANSITIVE_BAD = [
    ("rl010_bad.py", "repro.vector.newkern"),
    ("rl012_bad.py", "repro.core.newtest"),
    ("rl013_bad.py", "repro.service.newengine"),
]


def test_transitive_rules_close_per_module_holes():
    # Each seeded violation is invisible to the per-module rule it
    # transitively closes — that's the hole RL010/RL012 exist for.
    clean = lint_fixture("rl010_bad.py", "repro.vector.newkern", select=["RL003"])
    assert clean.clean, text_report(clean)
    clean = lint_fixture("rl012_bad.py", "repro.core.newtest", select=["RL006"])
    assert clean.clean, text_report(clean)


def test_transitive_findings_carry_witness_chains():
    result = lint_fixture("rl010_bad.py", "repro.vector.newkern")
    outer = next(f for f in result.findings if f.line == 19)
    assert "_indirect" in outer.message and "_draw" in outer.message
    result = lint_fixture("rl012_bad.py", "repro.core.newtest")
    assert "_stamp" in result.findings[0].message


def test_rl013_names_the_straddled_await():
    result = lint_fixture("rl013_bad.py", "repro.service.newengine")
    by_line = {f.line: f.message for f in result.findings}
    assert "self.resident" in by_line[15] and "await at line 14" in by_line[15]
    assert "self.version" in by_line[21] and "await at line 20" in by_line[21]


def _fixture_modules():
    out = []
    for name, modname in _TRANSITIVE_BAD:
        src = (FIXTURES / name).read_text(encoding="utf-8")
        out.append((modname, ast.parse(src), False))
    return out


def test_fixpoint_is_order_independent():
    modules = _fixture_modules()
    orders = [modules, list(reversed(modules)), modules[2:] + modules[:2]]
    summaries = [build_project(order) for order in orders]
    for s in summaries[1:]:
        assert s.functions == summaries[0].functions
        assert s.calls == summaries[0].calls
        assert effects_report(s) == effects_report(summaries[0])
    # Findings under the shared summary are identical for every order.
    per_order = [
        [
            lint_fixture(name, modname, project=s).findings
            for name, modname in _TRANSITIVE_BAD
        ]
        for s in summaries
    ]
    assert per_order[0] == per_order[1] == per_order[2]


# (case id, modname, source, qualname, expected seeded effects)
SEED_CASES = [
    ("rng-constructor", "repro.core.k",
     "import numpy as np\ndef f():\n    return np.random.default_rng(0)\n",
     "f", {"RNG"}),
    ("rng-global-draw", "repro.core.k",
     "import random\ndef f():\n    return random.random()\n",
     "f", {"RNG"}),
    ("rng-draw-method", "repro.core.k",
     "def f(rng):\n    return rng.uniform(0.0, 1.0)\n",
     "f", {"RNG"}),
    ("rng-allowed-module", "repro.gen.custom",
     "import numpy as np\ndef f():\n    return np.random.default_rng(0)\n",
     "f", set()),
    ("rng-sanctioned-sampler", "repro.vector.sim_vec",
     "def sample_offsets_batch(batch, rng):\n"
     "    return rng.uniform(0.0, batch)\n",
     "sample_offsets_batch", set()),
    ("clock-aliased-import", "repro.core.k",
     "from time import perf_counter as pc\ndef f():\n    return pc()\n",
     "f", {"WALL_CLOCK"}),
    ("clock-allowed-module", "repro.service.clock",
     "import time\ndef now():\n    return time.monotonic()\n",
     "now", set()),
    ("global-statement", "repro.core.k",
     "N = 0\ndef f():\n    global N\n    N += 1\n",
     "f", {"STATE_MUTATION"}),
    ("self-tuple-store", "repro.core.k",
     "class C:\n    def m(self, v):\n        self.a, b = v, 1\n",
     "C.m", {"STATE_MUTATION"}),
    ("del-self-attribute", "repro.core.k",
     "class C:\n    def m(self):\n        del self.cache\n",
     "C.m", {"STATE_MUTATION"}),
    ("self-subscript-store", "repro.core.k",
     "class C:\n    def m(self, k, v):\n        self.cache[k] = v\n",
     "C.m", {"STATE_MUTATION"}),
    ("del-self-subscript", "repro.core.k",
     "class C:\n    def m(self, k):\n        del self.cache[k]\n",
     "C.m", {"STATE_MUTATION"}),
    ("self-nested-subscript-store", "repro.core.k",
     "class C:\n    def m(self, k, v):\n        self.rows[k][0] = v\n",
     "C.m", {"STATE_MUTATION"}),
    ("local-subscript-store-is-pure", "repro.core.k",
     "def f(k, v):\n    d = {}\n    d[k] = v\n    del d[k]\n    return d\n",
     "f", set()),
    ("self-mutator-call", "repro.core.k",
     "class C:\n    def m(self, x):\n        self.queue.append(x)\n",
     "C.m", {"STATE_MUTATION"}),
    ("local-mutation-is-pure", "repro.core.k",
     "def f():\n    out = []\n    out.append(1)\n    return out\n",
     "f", set()),
    # A def nested in a loop or async-with body is collected like one
    # in an if body; its effects reach the report (and its caller).
    ("nested-def-in-for", "repro.core.k",
     "def f(xs):\n    total = 0\n    for x in xs:\n        def g():\n"
     "            nonlocal total\n            total += x\n        g()\n"
     "    return total\n",
     "f.g", {"STATE_MUTATION"}),
    ("nested-def-in-for-else", "repro.core.k",
     "def f(xs):\n    total = 0\n    for x in xs:\n        pass\n"
     "    else:\n        def g():\n            nonlocal total\n"
     "            total += 1\n        g()\n    return total\n",
     "f.g", {"STATE_MUTATION"}),
    ("nested-def-in-while", "repro.core.k",
     "def f(n):\n    total = 0\n    while n:\n        def g():\n"
     "            nonlocal total\n            total += 1\n        g()\n"
     "        n -= 1\n    return total\n",
     "f.g", {"STATE_MUTATION"}),
    ("nested-def-in-async-for", "repro.core.k",
     "async def f(xs):\n    total = 0\n    async for x in xs:\n"
     "        def g():\n            nonlocal total\n            total += x\n"
     "        g()\n    return total\n",
     "f.g", {"STATE_MUTATION"}),
    ("nested-def-in-async-with", "repro.core.k",
     "async def f(lock):\n    total = 0\n    async with lock:\n"
     "        def g():\n            nonlocal total\n            total += 1\n"
     "        g()\n    return total\n",
     "f.g", {"STATE_MUTATION"}),
    ("all-three-atoms", "repro.core.k",
     "import time\nclass C:\n    def m(self, rng):\n"
     "        self.t = time.time()\n        return rng.integers(3)\n",
     "C.m", {"RNG", "WALL_CLOCK", "STATE_MUTATION"}),
]


@pytest.mark.parametrize(
    "modname,src,qualname,expected",
    [case[1:] for case in SEED_CASES],
    ids=[case[0] for case in SEED_CASES],
)
def test_seed_effects_per_atom(modname, src, qualname, expected):
    summary = build_project([(modname, ast.parse(src), False)])
    assert summary.seeds[f"{modname}.{qualname}"] == frozenset(expected)


# A project function passed as an argument (a pool worker, a scoring
# callback) runs on the callee's behalf: it is a call edge of the
# function that passes it, so its effects reach that caller.
VALUE_EDGE_MODULES = [
    ("repro.core.a",
     "N = 0\n"
     "def mutate():\n    global N\n    N = 1\n"
     "def run(fn=None, *args, key=None):\n    return fn\n"
     "class Box:\n    def __init__(self):\n        self.n = 1\n"
     "def positional():\n    return run(mutate)\n"
     "def keyword():\n    return run(key=mutate)\n"
     "def nested():\n    def cb():\n        global N\n        N = 2\n"
     "    return run(cb)\n"
     "def by_class():\n    return run(Box)\n"
     "def by_lambda():\n    return run(lambda: mutate)\n"),
    ("repro.core.b",
     "from repro.core import a\nfrom repro.core.a import mutate\n"
     "def imported():\n    return list(map(mutate, []))\n"
     "def qualified():\n    return sorted([], key=a.mutate)\n"),
]


@pytest.mark.parametrize("qualname,callees,effects", [
    ("repro.core.a.positional", ("repro.core.a.mutate", "repro.core.a.run"),
     {"STATE_MUTATION"}),
    ("repro.core.a.keyword", ("repro.core.a.mutate", "repro.core.a.run"),
     {"STATE_MUTATION"}),
    ("repro.core.a.nested", ("repro.core.a.nested.cb", "repro.core.a.run"),
     {"STATE_MUTATION"}),
    ("repro.core.a.by_class", ("repro.core.a.run",), set()),
    ("repro.core.a.by_lambda", ("repro.core.a.run",), set()),
    ("repro.core.b.imported", ("repro.core.a.mutate",), {"STATE_MUTATION"}),
    ("repro.core.b.qualified", ("repro.core.a.mutate",), {"STATE_MUTATION"}),
], ids=["positional", "keyword", "nested-def", "class-is-no-edge",
        "lambda-is-no-edge", "imported", "module-qualified"])
def test_functions_passed_as_values_are_call_edges(qualname, callees, effects):
    modules = [(mod, ast.parse(src), False) for mod, src in VALUE_EDGE_MODULES]
    summary = build_project(modules)
    assert summary.calls[qualname] == callees
    assert summary.effects_of(qualname) == frozenset(effects)
    # Pass 2 sees the same edge, at the call the function is passed to.
    mod, tree, _ = next(m for m in modules if qualname.startswith(m[0] + "."))
    resolver = ModuleResolver(tree, mod, False, summary.functions, summary.classes)
    sites = {(caller, callee) for _, caller, callee in resolver.call_sites()}
    assert {(qualname, callee) for callee in callees} <= sites


def test_effect_lattice_is_the_three_live_atoms():
    assert EFFECTS == ("RNG", "WALL_CLOCK", "STATE_MUTATION")
    baseline = json.loads(
        (REPO_ROOT / "tests" / "lint_effects_baseline.json").read_text(
            encoding="utf-8"
        )
    )
    assert baseline["version"] == 1
    for qualname, effects in baseline["functions"].items():
        assert effects, qualname  # empty entries are dropped
        # canonical lattice order, no atom outside the lattice
        assert effects == [e for e in EFFECTS if e in effects], qualname


def test_effects_report_matches_checked_in_baseline():
    summary, _ = build_project_for([str(REPO_ROOT / "src")])
    report = effects_report(summary)
    again, _ = build_project_for([str(REPO_ROOT / "src")])
    assert report == effects_report(again)  # byte-stable across runs
    baseline = (REPO_ROOT / "tests" / "lint_effects_baseline.json").read_text(
        encoding="utf-8"
    )
    assert report == baseline, (
        "effect summary drifted from tests/lint_effects_baseline.json; "
        "if intentional, regenerate it: PYTHONPATH=src python -m "
        "repro.lint --effects src --output tests/lint_effects_baseline.json"
    )


# -- suppression pragmas ----------------------------------------------------


def test_suppressed_fixture_is_clean_and_pragmas_all_used():
    result = lint_fixture("suppressed.py", "repro.vector.kern")
    assert result.clean, text_report(result)


def test_file_level_multi_id_suppression():
    result = lint_fixture("suppressed_file_level.py", "repro.vector.kern")
    assert result.clean, text_report(result)


def test_unused_pragmas_are_findings():
    result = lint_fixture("unused_pragma.py", "repro.vector.kern")
    assert [f.rule for f in result.findings] == ["RL008", "RL008"]
    assert rule_lines(result, "RL008") == [4, 6]
    assert "unused" in result.findings[0].message


def test_pragma_in_string_is_inert():
    result = lint_fixture("pragma_in_docstring.py", "repro.vector.kern")
    assert result.clean, text_report(result)


def test_suppression_does_not_leak_across_lines():
    src = (
        "import numpy  # repro-lint: disable=RL001 -- this line only\n"
        "import numpy.random\n"
    )
    result = lint_source(src, "repro.vector.kern")
    assert [(f.rule, f.line) for f in result.findings] == [("RL001", 2)]


def test_syntax_error_reported_as_rl009():
    result = lint_fixture("rl009_syntax_error.py", "repro.vector.kern")
    assert [f.rule for f in result.findings] == [PARSE_ERROR_ID]
    assert "syntax error" in result.findings[0].message


# -- reporters --------------------------------------------------------------


def test_json_report_round_trips():
    result = lint_fixture("rl001_bad.py", "repro.vector.kern")
    rebuilt = result_from_json(render_json(result))
    assert rebuilt.findings == result.findings
    assert rebuilt.files_checked == result.files_checked
    assert not rebuilt.clean


def test_json_report_shape():
    obj = json.loads(render_json(lint_fixture("rl001_bad.py", "repro.vector.kern")))
    assert obj["version"] == 1
    assert obj["clean"] is False
    assert obj["counts_by_rule"] == {"RL001": 2}
    assert {"path", "line", "col", "rule", "message"} <= set(obj["findings"][0])


def test_text_report_location_format():
    result = lint_fixture("rl001_bad.py", "repro.vector.kern")
    first = text_report(result).splitlines()[0]
    assert first.startswith(f"{FIXTURES / 'rl001_bad.py'}:8:0: RL001 ")


# -- engine plumbing --------------------------------------------------------


def test_module_name_resolution_from_real_tree():
    assert module_name_for(str(REPO_ROOT / "src/repro/vector/xp.py")) == (
        "repro.vector.xp"
    )
    assert module_name_for(str(REPO_ROOT / "src/repro/sim/__init__.py")) == (
        "repro.sim"
    )
    assert module_name_for(str(REPO_ROOT / "scripts/regenerate_results.py")) == (
        "regenerate_results"
    )


def test_select_and_ignore():
    result = lint_fixture("rl003_bad.py", "repro.vector.dp_vec", select=["RL001"])
    assert result.clean  # the RL003 findings are deselected
    result = lint_fixture("rl003_bad.py", "repro.vector.dp_vec", ignore=["RL003"])
    assert result.clean
    with pytest.raises(ValueError, match="unknown rule"):
        lint_fixture("rl003_bad.py", "repro.vector.dp_vec", select=["RL999"])
    # --ignore validates too: a typo must not silently no-op (it used
    # to be subtracted without a registry check).
    with pytest.raises(ValueError, match="RL999"):
        lint_fixture("rl003_bad.py", "repro.vector.dp_vec", ignore=["RL999"])


def test_deselected_rules_pragmas_are_not_flagged_unused():
    # suppressed.py carries RL001/RL004 pragmas.  With those rules not
    # run, their pragmas cannot be proven unused — RL008 (active here)
    # must stay quiet rather than flag every deselected-rule pragma.
    result = lint_fixture(
        "suppressed.py", "repro.vector.kern", select=["RL006", "RL008"]
    )
    assert result.clean, text_report(result)


def test_repo_src_is_lint_clean():
    # The CI gate as a tier-1 invariant: the whole tree — library plus
    # benchmarks/examples/scripts — must stay clean.
    result = lint_paths(
        [
            str(REPO_ROOT / p)
            for p in ("src", "benchmarks", "examples", "scripts")
        ]
    )
    assert result.clean, text_report(result)
    assert result.files_checked > 100


def test_src_reads_no_environment_variables():
    # Every knob reaches the library as an explicit argument (the CLIs
    # pass their flags as kwargs); nothing under src consults os.environ.
    reads = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "getenv", "environb"
            ):
                reads.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if {a.name for a in node.names} & {"environ", "getenv"}:
                    reads.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert reads == []


def test_lint_paths_report_independent_of_argument_order(tmp_path):
    src = _seed_tree(tmp_path, "import numpy\n")
    (src / "repro" / "vector" / "other.py").write_text(
        "def f():\n    import numpy\n    return numpy\n"
    )
    vec = src / "repro" / "vector"
    forward = lint_paths([str(vec / "kern.py"), str(vec / "other.py")])
    backward = lint_paths([str(vec / "other.py"), str(vec / "kern.py")])
    assert forward.findings == backward.findings
    assert [(Path(f.path).name, f.line) for f in forward.findings] == [
        ("kern.py", 1), ("other.py", 2)
    ]
    assert forward.files_checked == backward.files_checked == 2


# -- CLI --------------------------------------------------------------------


def _seed_tree(tmp_path, kernel_body="def f():\n    return 0\n"):
    pkg = tmp_path / "src" / "repro" / "vector"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "kern.py").write_text(kernel_body)
    return tmp_path / "src"


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    src = _seed_tree(tmp_path)
    assert main([str(src)]) == EXIT_CLEAN
    assert "clean" in capsys.readouterr().out


@pytest.mark.parametrize(
    "body,rule,line",
    [
        ("import numpy\n", "RL001", 1),
        ("def f():\n    import numpy\n", "RL001", 2),
        ("from numpy.random import default_rng\nR = default_rng(0)\n", "RL003", 2),
    ],
)
def test_cli_seeded_violation_exits_nonzero_with_location(
    tmp_path, capsys, body, rule, line
):
    src = _seed_tree(tmp_path, body)
    assert main([str(src)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    kern = src / "repro" / "vector" / "kern.py"
    assert f"{kern}:{line}:" in out
    assert rule in out


def test_cli_json_output_file(tmp_path, capsys):
    src = _seed_tree(tmp_path, "import numpy\n")
    report = tmp_path / "lint-report.json"
    assert main([str(src), "--output", str(report)]) == EXIT_FINDINGS
    rebuilt = result_from_json(report.read_text())
    assert [f.rule for f in rebuilt.findings] == ["RL001"]
    # --format json writes the same report to stdout.
    capsys.readouterr()
    assert main([str(src), "--format", "json"]) == EXIT_FINDINGS
    assert json.loads(capsys.readouterr().out)["counts_by_rule"] == {"RL001": 1}


def test_cli_list_rules_and_errors(tmp_path, capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("RL")]
    assert sorted(listed) == ["RL001", "RL003", "RL004", "RL006", "RL007",
                              "RL008", "RL009", "RL010", "RL012", "RL013"]
    assert main([str(tmp_path / "missing_dir_or_file")]) == EXIT_ERROR
    assert main(["--select", "RL999", str(tmp_path)]) == EXIT_ERROR
    capsys.readouterr()  # drain before asserting on the next error
    assert main(["--ignore", "RL999", str(tmp_path)]) == EXIT_ERROR
    assert "RL999" in capsys.readouterr().err


def test_cli_has_no_jobs_option(tmp_path, capsys):
    # The linter runs in one process; a leftover --jobs is a usage error.
    src = _seed_tree(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", str(src)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_effects_report(tmp_path, capsys):
    src = _seed_tree(
        tmp_path,
        "import time\n\n\ndef stamp():\n"
        "    return time.monotonic()"
        "  # repro-lint: disable=RL006 -- seeded\n",
    )
    out_file = tmp_path / "effects.json"
    assert main(["--effects", str(src), "--output", str(out_file)]) == EXIT_CLEAN
    obj = json.loads(capsys.readouterr().out)
    assert obj["version"] == 1
    assert obj["functions"]["repro.vector.kern.stamp"] == ["WALL_CLOCK"]
    assert json.loads(out_file.read_text()) == obj


def test_python_dash_m_entry_point(tmp_path):
    src = _seed_tree(tmp_path, "import numpy\n")
    env_src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(src)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == EXIT_FINDINGS
    assert "RL001" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(REPO_ROOT / "src")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == EXIT_CLEAN, proc.stdout + proc.stderr
