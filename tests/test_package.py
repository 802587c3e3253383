"""The package surface: public names resolved on first use, and the
modules that ``import watl`` and each command load."""

import json
import os
import subprocess
import sys

import pytest

import watl
from watl import fixtures, serialize

SRC = os.path.dirname(os.path.dirname(os.path.abspath(watl.__file__)))


def run_python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)


def test_every_public_name_resolves_and_is_kept():
    for name in watl.__all__:
        value = getattr(watl, name)
        home = sys.modules[f"watl.{watl._HOMES[name]}"]
        assert value is getattr(home, name)
        assert vars(watl)[name] is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from watl import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(watl.__all__)


def test_dir_lists_the_public_names():
    assert set(watl.__all__) <= set(dir(watl))
    assert {"rdl", "sampling", "serialize", "wrdl"} <= set(dir(watl))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        watl.no_such_name
    assert not hasattr(watl, "cli_main")


def test_a_bare_import_loads_no_submodule_and_reaches_them_all():
    code = ("import sys, watl\n"
            "print(sorted(m for m in sys.modules if m.startswith('watl.')))\n"
            "print([getattr(watl, m).__name__ for m in ('rdl', 'sampling', 'serialize', 'wrdl')])\n"
            "print(watl.behavior.__module__)")
    loaded, reached, home = run_python("-c", code).stdout.splitlines()
    assert loaded == "[]"
    assert reached == "['watl.rdl', 'watl.sampling', 'watl.serialize', 'watl.wrdl']"
    assert home == "watl.wta"


def loaded_by_command(tmp_path, *args):
    """The stdout of a command run as ``python -m watl.cli`` runs it, and
    the watl modules and mpmath, if loaded, when it ends."""
    code = ("import json, runpy, sys\n"
            "try:\n"
            "    runpy.run_module('watl.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            "                        if m.startswith('watl.') or m == 'mpmath')),"
            " file=sys.stderr)")
    done = run_python("-c", code, *args, cwd=tmp_path)
    return done.stdout, set(json.loads(done.stderr.splitlines()[-1]))


def test_commands_load_only_the_modules_they_run(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(serialize.wta_to_dict(fixtures.priced_min_wait())))
    (tmp_path / "w.json").write_text('[["a", "3"]]')
    (tmp_path / "f.txt").write_text("ex x. P[a](x)\n")
    (tmp_path / "sq.txt").write_text("all x.(0, all y.(0, 1))\n")
    (tmp_path / "lin.txt").write_text("all z. (3, 1)\n")

    stdout, loaded = loaded_by_command(tmp_path, "behavior", "--model", "m.json",
                                       "--word", "w.json")
    assert stdout == '{"value":"10"}\n'
    assert {"watl.serialize", "watl.wta"} <= loaded
    assert not loaded & {"watl.rdl", "watl.wrdl", "watl.optcost", "watl.sampling",
                         "watl.transform", "mpmath"}

    stdout, loaded = loaded_by_command(tmp_path, "runs", "--model", "m.json",
                                       "--word", "w.json")
    assert stdout == ('{"count":1,"runs":[{"edges":["go"],'
                      '"locations":["wait","done"],"value":"10"}]}\n')
    assert not loaded & {"watl.transform", "mpmath"}

    stdout, loaded = loaded_by_command(tmp_path, "rdl-check", "--formula", "f.txt",
                                       "--word", "w.json")
    assert stdout == '{"holds":true}\n'
    assert "watl.rdl" in loaded
    assert not loaded & {"watl.wrdl", "watl.optcost", "watl.transform", "mpmath"}

    stdout, loaded = loaded_by_command(tmp_path, "infcost", "--model", "m.json")
    assert stdout == '{"value":"7","attained":true,"witness":[["a","2"]]}\n'
    assert "watl.optcost" in loaded
    assert not loaded & {"watl.rdl", "watl.wrdl", "watl.transform", "mpmath"}

    stdout, loaded = loaded_by_command(tmp_path, "decide", "--formula", "lin.txt",
                                       "--monoid", "sum0", "--theta", "2")
    assert stdout == '{"exists":true,"witness":[["a","0"]]}\n'
    assert {"watl.optcost", "watl.wrdl"} <= loaded
    assert not loaded & {"watl.transform", "mpmath"}

    stdout, loaded = loaded_by_command(tmp_path, "wrdl-eval", "--formula", "sq.txt",
                                       "--word", "w.json", "--monoid", "sum0")
    assert stdout == '{"value":"1"}\n'
    assert "watl.wrdl" in loaded
    assert not loaded & {"watl.transform", "mpmath"}

    stdout, loaded = loaded_by_command(tmp_path, "wrdl-eval", "--formula", "sq.txt",
                                       "--word", "w.json", "--monoid", "disc0:1/2")
    assert stdout == '{"value":"0.0156250000000"}\n'
    assert "mpmath" in loaded
