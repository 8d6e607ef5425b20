"""Cold start: what a fresh interpreter loads, and the lazy package exports.

Each hygiene check runs in its own subprocess, because ``sys.modules`` in
the test process already holds every subsystem.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moonshine

SRC = str(Path(moonshine.__file__).resolve().parents[1])
SUBSYSTEMS = ("groups", "modular", "qseries", "monster", "sl2z")


def loaded_after(code, module="dataclasses"):
    """The moonshine submodules, and whether ``module`` is loaded, in a fresh
    interpreter after running ``code``; ``module`` is looked up before the
    probe imports ``json`` itself."""
    probe = (f"{code}\nimport sys\nloaded = {module!r} in sys.modules\nimport json\n"
             "print(json.dumps([sorted(m for m in sys.modules if m.startswith('moonshine.')),"
             " loaded]))")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    modules, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    return {m.removeprefix("moonshine.") for m in modules}, loaded


def test_import_loads_no_subsystem():
    modules, dataclasses = loaded_after("import moonshine")
    assert modules == {"_errors"}
    assert not dataclasses


def test_group_call_loads_only_the_group_code():
    modules, dataclasses = loaded_after(
        "from moonshine import cli\n"
        "assert cli.main(['group', '--name', 'C12', '--action', 'factors']) == 0")
    assert "groups" in modules
    assert not modules & {"modular", "qseries", "monster", "sl2z"}
    assert not dataclasses


@pytest.mark.parametrize("flags, loaded", [([], False), (["--json"], True)], ids=["text", "json"])
def test_only_json_output_loads_json(flags, loaded):
    argv = ["group", "--name", "C12", "--action", "factors", *flags]
    _, json_loaded = loaded_after(f"from moonshine import cli\nassert cli.main({argv!r}) == 0",
                                  module="json")
    assert json_loaded is loaded


def test_reduce_call_loads_no_group_or_series_code():
    modules, _ = loaded_after(
        "from moonshine import cli\n"
        "assert cli.main(['reduce', '--tau', '7/3,1/5']) == 0")
    assert "sl2z" in modules
    assert not modules & {"groups", "modular", "qseries", "monster"}


def test_j_call_loads_no_group_or_sl2z_code():
    modules, _ = loaded_after(
        "from moonshine import cli\n"
        "assert cli.main(['j', '--order', '3']) == 0")
    assert {"modular", "qseries"} <= modules
    assert not modules & {"groups", "sl2z"}


def test_no_module_imports_dataclasses():
    code = "\n".join(f"import moonshine.{m}" for m in SUBSYSTEMS + ("cli",))
    modules, dataclasses = loaded_after(code)
    assert set(SUBSYSTEMS) <= modules
    assert not dataclasses


def test_every_export_resolves_to_its_submodule_object():
    assert len(moonshine.__all__) == len(set(moonshine.__all__)) == 69
    for name in moonshine.__all__:
        value = getattr(moonshine, name)
        owner = moonshine._EXPORTS.get(name, "_errors")
        assert value is getattr(getattr(moonshine, owner), name), name


def test_exports_are_not_cached_in_the_package(monkeypatch):
    # A name patched in its submodule reads patched through the package, and
    # restored once the patch is undone.
    from moonshine import modular
    original = modular.j_expansion
    monkeypatch.setattr(modular, "j_expansion", lambda order: "patched")
    assert moonshine.j_expansion(3) == "patched"
    monkeypatch.undo()
    assert moonshine.j_expansion is original
    assert "j_expansion" not in vars(moonshine)


def test_dir_and_star_import_cover_all():
    assert set(moonshine.__all__) <= set(dir(moonshine))
    namespace = {}
    exec("from moonshine import *", namespace)
    assert set(moonshine.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(moonshine, name) for name in moonshine.__all__)
    assert namespace["j_expansion"](3).series.coeffs == (1, 744, 196884, 21493760)


def test_subsystems_and_unknown_names():
    assert moonshine.groups.cyclic_group(4).order == 4
    assert moonshine.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        moonshine.nosuch
    with pytest.raises(ImportError):
        exec("from moonshine import nosuch", {})
