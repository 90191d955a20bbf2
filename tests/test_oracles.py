"""Every public function of symdist is on the run path.

Under sys.setprofile the commands below run as a user runs them: `bounds`,
`mc`, `suite`, and `run` on a cloner lemma1 scenario, a theorem2 scenario
with mc_crosscheck, and a file, written as JSON, that runs a measurement
whose mixed preparation gets zero weight under lemma1 (on the spec route)
and gets weight under theorem2.  Every public module-level function of the
package, and every public method or property of one of its public classes,
must be entered by one of them: code that only tests need lives under
tests/, in dense_oracles, and the package exports none of it.  One module,
symspace, the owner of the plan, compares bytes with the budget, and one,
scenario, the owner of the output format, writes CSV and JSON.
"""

import ast
import contextlib
import inspect
import io
import json
import pathlib
import sys

import symdist
from symdist import channels, cli, definetti, linalg, metrics, scenario, symspace

MODULES = (linalg, symspace, channels, definetti, metrics, scenario, cli)


def _diag(*xs):
    return [[[x if i == j else 0.0, 0.0] for j in range(len(xs))]
            for i, x in enumerate(xs)]


def _entered(tmp_path) -> set:
    """The code objects that the commands enter.  The memo caches are
    emptied first, as in a fresh process, so that the commands build every
    table they use whatever tests ran before."""
    for mod in MODULES:
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()
    measure = tmp_path / "measure.json"
    # the mixed preparation gets weight 0 from |0>, so the lemma1 output
    # lies in Sym^M, which the spec decides; theorem2 runs on |+>
    channel = {"kind": "measure_prepare", "d": 2, "M": 3,
               "prep": [_diag(1.0, 0.0), _diag(0.5, 0.5)],
               "povm": [_diag(1.0, 0.0), _diag(0.0, 1.0)]}
    plus = {"type": "pure", "coeffs": [[0.5 ** 0.5, 0.0], [0.5 ** 0.5, 0.0]]}
    measure.write_text(json.dumps([
        {"channel": channel, "checks": ["lemma1"]},
        {"channel": channel, "input": plus, "checks": ["theorem2"]}]))
    commands = [
        ["bounds", "--d", "2", "3", "--M", "4", "--k", "1", "2"],
        ["mc", "--M", "1", "2", "--samples", "200"],
        ["suite", "--seed", "42"],
        ["run", "--M", "4", "--k", "1", "2"],
        ["run", "--checks", "theorem2", "--samples", "200", "--seed", "3"],
        ["run", str(measure), "--format", "json"],
    ]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            exits = [cli.main(argv) for argv in commands]
        finally:
            sys.setprofile(None)
    assert exits == [0] * len(commands)
    return codes


def _function_of(member):
    """The function behind a method, property, cached_property or classmethod."""
    for attr in ("fget", "func", "__func__"):
        if hasattr(member, attr):
            return getattr(member, attr)
    return member


def _public_functions():
    """(name, function) for each public module-level function of the
    package, and each public method and property of its public classes."""
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = _function_of(member)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{mod.__name__}.{name}.{attr}", fn


def test_every_public_function_is_on_the_run_path(tmp_path):
    entered = _entered(tmp_path)
    assert scenario.run_scenario.__code__ in entered
    assert not hasattr(definetti, "symmetric_state")
    unentered = [name for name, fn in _public_functions() if fn.__code__ not in entered]
    assert unentered == []


# the names symdist exported for the dense oracles: all but QuantumChannel,
# which stays in symdist.channels unexported, now live in dense_oracles
MOVED = ("QuantumChannel", "SDIReport", "apply", "basis_ket", "embed_pure_input",
         "fixed_prep_channel", "identity", "measure_prepare", "noisy_cloner",
         "partial_trace", "permutation_operator", "projector", "symmetric_state",
         "symmetrizer", "tensor_product", "universal_cloner", "validate_sdi")


def test_the_package_exports_no_oracle():
    assert [name for name in MOVED if hasattr(symdist, name)] == []


def test_one_module_checks_the_byte_budget():
    # every byte estimate is a stage of symspace.plan, so only symspace
    # compares bytes with the budget
    callers = set()
    for path in pathlib.Path(linalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "_check_bytes" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.add(path.stem)
    assert callers == {"symspace"}


def test_one_module_writes_tables():
    # render_rows in scenario is the one table writer: the bounds table and
    # every record go through it, so only scenario calls csv.writer or
    # json.dumps
    callers = set()
    for path in pathlib.Path(linalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and (
                    getattr(func.value, "id", None), func.attr) in (
                    ("csv", "writer"), ("json", "dumps")):
                callers.add(path.stem)
    assert callers == {"scenario"}
