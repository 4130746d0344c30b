import ast
import subprocess
import sys
from pathlib import Path

import optocool


def test_all_names_resolve():
    missing = [name for name in optocool.__all__
               if not hasattr(optocool, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from optocool import *", namespace)
    assert set(optocool.__all__) <= set(namespace)


def test_import_loads_no_scipy():
    # scipy is imported by the functions that use it, not by the package
    code = ("import sys, optocool; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # scipy is a test dependency only; the package runs on numpy alone
    src = Path(optocool.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_runs_without_scipy(tmp_path):
    # with scipy unimportable, the simulator, Welch and the psd command
    # still run
    code = f"""
import sys
sys.modules["scipy"] = None
from optocool import SimConfig, estimate_psd, simulate
from optocool.cli import main
from optocool.config import load_config
res = load_config(None).sim_resonator()
trace = simulate(SimConfig(duration=30.0, controller="derivative", gain=15.0),
                 res)
estimate_psd(trace.x, trace.sample_rate, 1024)
out = {str(tmp_path)!r}
assert main(["--out", out, "simulate"]) == 0
assert main(["--out", out, "psd", "--input", out + "/trace.csv"]) == 0
print("ok")
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "ok"


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls(node, name):
    """Calls of the bare name ``name`` under ``node``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == name]


def _opens_for_writing(call):
    """Whether an ``open`` call may write: any mode but a literal read mode."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and "r" in mode.value
                and "+" not in mode.value)


def test_only_the_driver_writes_files():
    # a command that writes or prints its own output could leave half of
    # it behind when a later item fails; run_command writes all or none
    src = Path(optocool.__file__).parent
    writers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in _functions(tree):
            if path.stem == "cli" and fn.name.startswith("_cmd_"):
                assert _calls(fn, "print") == [], fn.name
                assert _calls(fn, "open") == [], fn.name
            if any(map(_opens_for_writing, _calls(fn, "open"))):
                writers.add(f"{path.stem}.{fn.name}")
            writers.update(
                f"{path.stem}.{fn.name}" for call in ast.walk(fn)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("write_text", "write_bytes"))
    assert writers == {"cli.run_command"}


def test_only_spectrum_parses_input_files():
    # one reader decides the input format and what it refuses; a second
    # parser would accept what it refuses
    src = Path(optocool.__file__).parent
    readers, parsers = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in _functions(tree):
            name = f"{path.stem}.{fn.name}"
            if not all(map(_opens_for_writing, _calls(fn, "open"))):
                readers.add(name)
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func
                attr = (callee.attr if isinstance(callee, ast.Attribute)
                        else getattr(callee, "id", None))
                if attr in ("read_text", "read_bytes", "loadtxt",
                            "genfromtxt", "fromfile", "read_csv"):
                    readers.add(name)
                if attr in ("read_rows", "reader", "DictReader"):
                    parsers.add(name)
    assert readers == {"spectrum.read_rows", "spectrum._read_floats",
                       "config.load_config"}
    assert parsers == {"spectrum.read_rows", "spectrum.read_columns",
                       "spectrum._read_floats"}


def test_only_config_cli_and_the_reader_raise_config_error():
    # a model refuses with DomainError("<field> <reason>"), and the command
    # running it names the field's key or option through refusals_named; in
    # config, only the parser, refusals_named and the one cross-key check
    # no model makes (a lossless resonator, which the library builds)
    src = Path(optocool.__file__).parent
    raisers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {fn: f"{cls.name}." for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in _functions(tree):
            if path.stem != "cli" and any(
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ConfigError"
                    for node in ast.walk(fn)):
                raisers.add(f"{path.stem}.{owner.get(fn, '')}{fn.name}")
    assert raisers == {"spectrum.read_rows", "spectrum.read_columns",
                       "spectrum.uniform_rate", "config._parse_value",
                       "config.parse_config", "config.load_config",
                       "config.ExperimentConfig.refusals_named",
                       "config.ExperimentConfig.resonator"}
