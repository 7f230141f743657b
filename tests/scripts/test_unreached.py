"""Unit tests for the unreached-function audit (scripts/unreached.py)."""

import cProfile
import importlib.util
import pathlib
import textwrap

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "unreached.py"

spec = importlib.util.spec_from_file_location("unreached", SCRIPT)
unreached = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached)

MODULE = textwrap.dedent(
    '''
    import functools


    def called():
        def nested():
            return 1

        return nested()


    def uncalled():
        def inner():
            return 2

        return inner()


    def logged(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)

        return wrapper


    class Box:
        @logged
        def decorated(self):
            return 3
    '''
).lstrip()


def test_lists_only_what_no_profile_records(tmp_path, capsys):
    package = tmp_path / "probe_pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    # A subpackage the audit skips, as it skips repro.lint.
    (package / "lint").mkdir()
    (package / "lint" / "rules.py").write_text("def never():\n    pass\n")

    profiler = cProfile.Profile()
    profiler.enable()
    module_spec = importlib.util.spec_from_file_location("probe_pkg_mod", package / "mod.py")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    module.called()
    module.Box().decorated()
    profiler.disable()
    stats = tmp_path / "probe.pstats"
    profiler.dump_stats(str(stats))

    assert unreached.main([str(stats), "--root", str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # ``uncalled`` starts on line 11 and spans 5 lines; its nested ``inner`` on line 12.
    assert lines == [
        "mod.py:11  uncalled  (5 lines)",
        "mod.py:12  uncalled.<locals>.inner  (2 lines)",
        "2 functions (7 lines) that no profile records",
    ]


def test_decorated_function_is_keyed_by_its_decorator_line(tmp_path):
    source = "import functools\n\n\nclass Box:\n    @functools.lru_cache()\n    def cached(self):\n        return 1\n"
    (tmp_path / "mod.py").write_text(source)
    (function,) = unreached.source_functions(tmp_path)
    assert function.key == ("mod.py", 5, "cached")
    assert function.qualname == "Box.cached"
    assert function.num_lines == 3
