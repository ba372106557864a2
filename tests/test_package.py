"""The package namespace, each check in a fresh interpreter: importing
su3braid loads no submodule, and every public name resolves on first use to
the object its defining submodule holds."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import su3braid

SRC = Path(su3braid.__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_unused_layer():
    run_fresh("""
        import sys
        # dataclasses loads inspect, ast and dis: milliseconds of a cold start
        UNUSED = ("su3braid.matgroup", "su3braid.verify", "su3braid.cli", "argparse",
                  "dataclasses")

        import su3braid
        loaded = [m for m in UNUSED if m in sys.modules]
        assert not loaded, f"import su3braid loaded {loaded}"
        assert su3braid.__version__ == "0.1.0"

        from su3braid import recoupling
        recoupling.sixj(recoupling.theory(5), 2, 2, 2, 2, 2, 2)
        loaded = [m for m in UNUSED if m in sys.modules]
        assert not loaded, f"a recoupling query loaded {loaded}"
    """)


def test_command_line_loads_only_the_layers_a_subcommand_uses():
    run_fresh("""
        import contextlib, io, sys

        import su3braid.cli
        # dataclasses loads inspect, ast and dis: milliseconds of every cold run
        loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
        assert not loaded, f"import su3braid.cli loaded {loaded}"

        UNUSED = ("su3braid.verify", "su3braid.braidrep", "su3braid.recoupling",
                  "dataclasses", "inspect")
        for argv in (["family", "C", "9", "1", "1"],
                     ["group", "--from", "familyD", "3", "1", "1", "2", "1", "1"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert su3braid.cli.main(argv) == 0
            assert out.getvalue()
            loaded = [m for m in UNUSED if m in sys.modules]
            assert not loaded, f"{argv} loaded {loaded}"
    """)


def test_public_names_resolve_to_their_defining_objects():
    run_fresh("""
        import importlib
        import su3braid

        # a submodule is an attribute of the bare package
        assert su3braid.matgroup is importlib.import_module("su3braid.matgroup")

        assert len(su3braid.__all__) == len(set(su3braid.__all__)) == 38
        for name in su3braid.__all__:
            module = importlib.import_module(f"su3braid.{su3braid._SOURCE[name]}")
            assert getattr(su3braid, name) is getattr(module, name), name
            assert name in vars(su3braid), f"{name} was not kept after first use"
            assert name in dir(su3braid), name

        namespace = {}
        exec("from su3braid import *", namespace)
        for name in su3braid.__all__:
            assert namespace[name] is getattr(su3braid, name), name

        try:
            su3braid.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown name resolved")
    """)


def test_only_cyclo_binds_the_memos_and_singletons():
    # the memos are read by the scalar operators and the one sum-of-products
    # kernel, `cyclo.combine`, so no other module reaches them, by name or
    # under another one
    run_fresh("""
        import importlib, pkgutil
        import su3braid
        from su3braid import cyclo

        OWNED = ("_MUL_MEMO", "_ADD_MEMO", "_ZERO", "_ONE")
        memos = (cyclo._MUL_MEMO, cyclo._ADD_MEMO)
        names = [info.name for info in pkgutil.iter_modules(su3braid.__path__, "su3braid.")]
        assert "su3braid.matrix" in names and "su3braid.braidrep" in names
        for name in ["su3braid", *names]:
            if name == "su3braid.cyclo":
                continue
            namespace = vars(importlib.import_module(name))
            bound = {n for n in OWNED if n in namespace}
            bound |= {n for n, v in namespace.items() if any(v is memo for memo in memos)}
            assert not bound, f"{name} binds {sorted(bound)}"
    """)
