"""The suite's own pytest settings, run on a small test file in a fresh
pytest process."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_does_not_stop_the_session(pytester):
    # printing the failing example loads modules that warn on import; with
    # every warning an error that must not abort the session
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_property(x):
            assert x < 5

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", path.name)
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
