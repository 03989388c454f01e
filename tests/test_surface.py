"""The documented library surface: ``mcuq.__all__``, README's list of it, the
public definitions of ``src/mcuq`` that neither belong to it nor serve other
package code, and the one calling convention of the library functions."""

import ast
import inspect
import types
from pathlib import Path

import pytest

import mcuq
from mcuq import bench, bernoulli_uq, estimate, lbdemo, synth, trace_uq
from mcuq.core import NoiseSpec

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mcuq.__file__).resolve().parent

#: Public definitions that are off the surface and that no other package code
#: uses, each with the ROADMAP item that removes it.
UNUSED = {
    ("core", "svd_deterministic"): "item 7, once item 1 drops its benchmark tracer rows",
    ("lbdemo", "separation_check"): "item 4, or its deletion",
}


def test_readme_lists_the_surface():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("|")[1].strip(" `") for line in section.splitlines()
              if line.startswith("| `")]
    assert listed == mcuq.__all__
    assert len(mcuq.__all__) <= 25


def test_package_root_holds_only_the_surface():
    # Besides the surface, the root holds its submodules and ``__version__``.
    public = {name for name, value in vars(mcuq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(mcuq.__all__)


def _names_used(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attributes read anywhere in ``tree`` outside ``skip``; an
    import binds a name but reads none."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_definition_is_on_the_surface_or_used_in_the_package():
    # A public module-level function or class serves callers (it is on the
    # surface) or the package (other code outside its own body reads its
    # name; ``__init__`` only re-exports).  Matching is by name.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.stem != "__init__"}
    unused = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in mcuq.__all__
                    and not any(node.name in _names_used(other, node)
                                for other in trees.values())):
                unused.add((module, node.name))
    assert unused == set(UNUSED)


#: Parameters that may be passed by position: data objects, configs and
#: matrices, and structural numbers.  Every other parameter of a public library function is
#: keyword-only: the bounds, noise facts and search controls.
POSITIONAL = {"data", "half", "pairs", "draw", "ds", "cfg", "M", "M_hat", "A", "rng",
              "alpha", "N", "R_hat", "lam", "k0", "k", "m1", "m2", "m", "n", "d", "shape"}

#: The stream helpers keep their positional seed and stream coordinates.
STREAM_HELPERS = {synth.rng_for, synth.child_seed}


def _library_functions():
    """The public functions defined in the five library modules, and
    ``bench.separated_truth``."""
    found = [fn for module in (synth, estimate, trace_uq, bernoulli_uq, lbdemo)
             for name, fn in vars(module).items()
             if inspect.isfunction(fn) and not name.startswith("_")
             and fn.__module__ == module.__name__]
    return found + [bench.separated_truth]


def test_bounds_noise_and_controls_are_keyword_only():
    functions = _library_functions()
    assert {trace_uq.u_ci, trace_uq.rss_ci, bernoulli_uq.u_alpha_calibrated,
            lbdemo.indistinguishability_experiment} <= set(functions)
    loose = [f"{fn.__module__}.{fn.__name__}({p.name})"
             for fn in functions if fn not in STREAM_HELPERS
             for p in inspect.signature(fn).parameters.values()
             if p.name not in POSITIONAL and p.kind is not p.KEYWORD_ONLY]
    assert loose == []


def test_swapped_positional_bounds_raise_type_error():
    # With positional bounds, each call below ran to a void result and raised
    # nothing: at criterion 01's shape, the two sets covered 0 of 60
    # replicates against 60 of 60 for the right calls.  The demo, which once
    # read a smallest error sum of 1.0 with its ranks swapped, now takes a
    # config, which names every field.
    M = synth.make_low_rank(30, 30, 1, a=1.0, seed=1)
    data = synth.sample_trace(M, 900, noise=NoiseSpec("scaled-rademacher", 0.5, 0.5), seed=2)
    with pytest.raises(TypeError):
        trace_uq.u_ci(data, 0.1, 0.5, 1.0)
    with pytest.raises(TypeError):
        trace_uq.rss_ci(data, 0.1, 1.0, 0.5, 0.5)
