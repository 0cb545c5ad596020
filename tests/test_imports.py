"""Start-up cost, checked in fresh processes, and a reader for every public name.

- The Monte Carlo kinds load no scipy and no numpy.ma, at parse time or in a run.
- The exact engine (kinds gap and constants) loads scipy.sparse and
  scipy.linalg, never scipy.stats or scipy.sparse.linalg, and nothing that
  scipy.sparse and scipy.linalg.lapack do not load themselves.
- Each public name is imported from its own module: the package loads none
  of its modules, and the exact engine only the lattice and the streams.
- Evolving an expectation (`evolve_expectation`, a dense expm) loads no
  module that importing the exact engine did not.
- Every module-level public function, class and UPPER_CASE constant of the
  package, and every public method and property of its classes, has a reader
  outside its own definition: code in the package, the benchmark, or the test
  oracles.  A method or property is read only as an attribute (``.name``).
"""

import ast
import os
import re
import subprocess
import sys

from collections import Counter
from pathlib import Path

import pytest

import eastlab
from eastlab.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SPACE = "d = 2\np = 0.5\nwindow_lower = 0 0\nwindow_upper = 2 2\nmeasure = bernoulli 0.5\n"
# the lemma's box D and the cascade sites lie at and below the origin
LOWER_SPACE = SPACE.replace("0 0\nwindow_upper = 2 2", "-2 -2\nwindow_upper = 0 0")
MONTE_CARLO_CONFIGS = [
    "kind = simulate\nhorizon = 2\n" + SPACE,
    "kind = persistence\nsite = 1 1\ntimes = 1 2\nn = 10\n" + SPACE,
    "kind = relaxation\nsite = 1 1\ntimes = 1 2\nn_outer = 2\nn_inner = 3\n" + SPACE,
    "kind = verify-lemma\nsite = 0 0\nt = 2\nalpha = 0.2\nn = 5\n" + LOWER_SPACE,
    "kind = fk-probe\nsite = -1 -1\ndelta = 0.5\nt = 2\nn = 5\n" + LOWER_SPACE,
]

# every probe starts with this: loaded() prints, on one line, the scipy and
# numpy.ma modules loaded so far
PRELUDE = """
import sys
def loaded():
    print(" ".join(sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
"""

PROBE = PRELUDE + """
from eastlab.cli import parse_config
for text in sys.argv[1:]:
    parse_config(text)
loaded()
"""


def probe_output(probe: str, *args: str) -> list[list[str]]:
    """The modules each loaded() call of the probe printed, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return [line.split() for line in proc.stdout.splitlines()]


def under(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_monte_carlo_kinds_load_no_scipy():
    assert probe_output(PROBE, *MONTE_CARLO_CONFIGS) == [[]]


def test_exact_engine_loads_no_arpack():
    [loaded] = probe_output(PRELUDE + "import eastlab.exact\nloaded()")
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" not in loaded


# the modules, other than eastlab's own, that importing the exact engine adds
# to those of scipy.sparse and scipy.linalg.lapack
EXACT_PROBE = """
import sys
import scipy.sparse, scipy.linalg.lapack
before = set(sys.modules)
import eastlab.exact
print(" ".join(sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "eastlab")))
"""


def test_exact_engine_loads_nothing_past_sparse_and_lapack():
    # the Lanczos step's BLAS level-1 routines come with scipy.linalg.lapack,
    # which the gap solver loads for dstebz: a gap run's start-up pays for
    # no further module
    assert probe_output(EXACT_PROBE) == [[]]


MAIN_PROBE = PRELUDE + """
from eastlab.cli import main
out, configs = sys.argv[1], sys.argv[2:]
for i, path in enumerate(configs):
    assert main([path, "--out", f"{out}/run{i}"]) == 0
loaded()
"""


def run_main(tmp_path, configs: list[str]) -> list[str]:
    """The scipy and numpy.ma modules that `main` on each config loads, in one fresh process."""
    paths = [tmp_path / f"run{i}.cfg" for i in range(len(configs))]
    for path, text in zip(paths, configs):
        path.write_text(text)
    [loaded] = probe_output(MAIN_PROBE, str(tmp_path), *map(str, paths))
    return loaded


def test_monte_carlo_runs_load_no_scipy_or_numpy_ma(tmp_path):
    # a first np.median, np.percentile or np.unique imports numpy.ma
    assert run_main(tmp_path, MONTE_CARLO_CONFIGS) == []


@pytest.mark.parametrize("config", ["kind = gap\np = 0.5\nN = 3 4\n", "kind = constants\nlambda_N = 4\n"])
def test_exact_kind_runs_load_no_scipy_special(tmp_path, config):
    # the gap solver needs scipy.sparse for B and scipy.linalg for dstebz
    loaded = run_main(tmp_path, [config])
    assert {"scipy.sparse", "scipy.linalg"} <= set(loaded)
    for package in ("scipy.special", "scipy.stats", "scipy.sparse.linalg"):
        assert under(loaded, package) == []


# the modules that a first call of evolve_expectation adds
EVOLVE_PROBE = """
import sys
import numpy as np
from eastlab.exact import build_generator, evolve_expectation
from eastlab.lattice import Region
gen = build_generator(Region(frozenset({(1,)})), {(0,): 0}, 0.5)
before = set(sys.modules)
evolve_expectation(gen, 1, np.array([0.0, 1.0]), 1.0)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_evolve_expectation_loads_no_new_module():
    assert probe_output(EVOLVE_PROBE) == [[]]


# the eastlab modules loaded after the import in argv[1], in a fresh process
OWN_MODULES_PROBE = """
import sys
exec(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "eastlab")))
"""


@pytest.mark.parametrize("statement, modules", [
    ("import eastlab", ["eastlab"]),
    ("import eastlab.exact", ["eastlab", "eastlab.exact", "eastlab.lattice", "eastlab.streams"]),
])
def test_import_loads_only_the_modules_it_needs(statement, modules):
    assert probe_output(OWN_MODULES_PROBE, statement) == [modules]


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eastlab.no_such_name


def test_gap_chain_cap_still_checked_at_parse_time(tmp_path, capsys):
    path = tmp_path / "gap.cfg"
    path.write_text("kind = gap\np = 0.5\nN = 18\n")
    assert main([str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config field 'N'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_benchmark_references_run_against_this_checkout(monkeypatch):
    # the benchmark's reference checks call the library; a deletion they
    # depend on fails here rather than in a benchmark run
    import numpy as np
    from scipy.linalg import expm

    from eastlab.cli import parse_config
    from eastlab.exact import east1d_gap
    from eastlab.lattice import Region
    from oracle import site_loop_rates

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(SRC), "perfbench"))
    import workloads

    cfg = parse_config(workloads.WORKLOADS["relax-2x2-many"].config)
    ref = workloads.relaxation_reference(cfg)
    assert (ref["mu_f"], ref["norm"], ref["n_inner"]) == (0.5, 0.5, 500)
    # (0, 0) starts at 0 and the exterior at 1: state 0b1110 in sorted site
    # order, and f reads bit 3, the site (1, 1)
    boundary = {y: 1 for y in ((-1, 0), (-1, 1), (0, -1), (1, -1))}
    q = site_loop_rates(Region(frozenset(cfg.window.sites)), boundary, 0.5).toarray()
    fvec = (np.arange(16) >> 3) & 1
    want = {t: expm(q * t)[0b1110] @ fvec for t in cfg.times}
    assert sorted(ref["expect"]) == sorted(want) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    for t, v in ref["expect"].items():
        assert v == pytest.approx(want[t], rel=1e-10)

    cfg = parse_config(workloads.WORKLOADS["gap-1d"].config)
    gaps = workloads.gap_reference(cfg)
    assert sorted(gaps) == [11, 12, 13]
    for n, g in gaps.items():
        assert east1d_gap(0.5, n) == pytest.approx(g, rel=1e-8)


# public names that only tests read, each with the reason it stays in the package
TEST_ONLY_READERS = {
    "BatchLog.from_csv": "the documented after-the-fact check of an events.csv",
    "BatchLog.final_spins": "the spins at the horizon, which A1 (blocked runs) and A3 (stationarity) read",
    "Configuration.all_ones": "the all-ones start that most simulation and estimator tests build",
}


def _names_read(node: ast.AST, members: bool = False) -> Counter:
    """How often each name is read in ``node``: as a Name or an attribute, or,
    for ``members`` (methods and properties), as an attribute (``.name``) only."""
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) or (not members and isinstance(n, ast.Name)))


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) of each public module-level function,
    class and UPPER_CASE constant, and of each public method and property of
    the module's classes; a constant's node is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((name.id, name.id, node) for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id))
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{member.name}", member.name, member) for member in node.body
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"))


def _names_imported(node: ast.AST) -> set:
    """The names that ``from ... import`` statements in ``node`` bring in."""
    return {alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for alias in n.names}


def test_every_public_name_has_a_reader():
    # a reader is a use outside the name's own definition, anywhere in the
    # package, or a name that the code of the benchmark's scripts or of the
    # test oracles reads or imports; words in their strings do not count, and
    # a method or property is read only as an attribute, never as a bare name
    root = Path(SRC).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(SRC, "eastlab").glob("*.py")}
    others = [ast.parse(path.read_text())
              for path in [*root.glob("perfbench/*.py"), root / "tests" / "oracle.py"]]
    read, outside = {}, {}
    for members in (False, True):
        read[members] = sum((_names_read(tree, members) for tree in trees.values()), Counter())
        outside[members] = set().union(*(_names_read(tree, members) for tree in others))
    outside[False] |= set().union(*map(_names_imported, others))

    def is_unread(qualified: str, name: str, node: ast.AST) -> bool:
        members = "." in qualified
        return read[members][name] == _names_read(node, members)[name] and name not in outside[members]

    unread = sorted((qualified, module) for module, tree in trees.items()
                    for qualified, name, node in _public_definitions(tree) if is_unread(qualified, name, node))
    # the allowlist holds exactly the names that need it
    assert [name for name, _ in unread] == sorted(TEST_ONLY_READERS), unread
