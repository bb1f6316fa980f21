"""The test session's own configuration, run in a child pytest."""

import shutil
from pathlib import Path

pytest_plugins = ["pytester"]


def test_failing_property_test_does_not_end_the_session(pytester):
    # the repository's conftest and warning filter, one failing property
    # test, then one failing plain test: both must be reported
    shutil.copy(Path(__file__).with_name("conftest.py"), pytester.path)
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property(x):
            assert x < 5

        def test_plain():
            assert False
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=2)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
