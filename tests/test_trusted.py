"""The one trust boundary: a value the library builds from fields it has
already checked goes through Record._trusted, which skips the public
constructor's checks.  Here _trusted is swapped for a build that makes both
the trusted value and the checked cls(*values), asserts that they are equal
(==, repr, and hash where the type is hashable), counts the builds per class
and returns the checked value.  Under the swap the stdout pins, verify --all,
the README examples and the acceptance criteria run again, as the tests that
pin them, and must pass unchanged.

The checked twin of a build_standard lattice has no _standard, so under the
swap every discriminant group takes the full Smith-normal-form route rather
than the summand route.  The caches of groups, templates and class tables
are cleared before the swap, so that no summand-route group answers for a
checked lattice, and after it, so that later tests get no group built under
it.
"""

import inspect
from collections import Counter

import pytest

import test_acceptance
import test_cli
import test_orbits
import test_readme
from nlk3 import lattice, orbits
from nlk3._inputs import Record

# the classes that build values through _trusted
TRUSTED_CLASSES = {"DiscElement", "GenusTwoSeries", "IntegralLattice", "P2Class"}

PINS = (
    test_cli.test_verify_all_passes,
    test_cli.test_stdout_contract_sha256,
    test_cli.test_surface_stdout_sha256,
    test_cli.test_siegel_stdout_sha256,
    test_cli.test_lattice_disc_stdout_sha256,
    test_cli.test_lattice_snf_stdout_sha256,
    test_cli.test_triangular_stdout_sha256,
    test_orbits.test_component_counts_sha256,
    *(f for name, f in vars(test_acceptance).items() if name.startswith("test_")),
)


def _cases():
    for test in PINS:
        yield pytest.param(test, {}, id=f"{test.__module__}.{test.__name__}")
    for i, body in enumerate(test_readme.PYTHON_BLOCKS):
        yield pytest.param(test_readme.test_readme_python_block_runs, {"body": body}, id=f"readme-python-{i}")
    for i, line in enumerate(test_readme.NLK3_LINES):
        yield pytest.param(test_readme.test_readme_cli_line_exits_zero, {"line": line}, id=f"readme-cli-{i}")


def _checked(builds: Counter) -> classmethod:
    """A _trusted that compares each trusted value with its checked twin,
    counts it under its class name and returns the twin."""
    trusted = Record._trusted.__func__

    def build(cls, *values, **extra):
        fast, slow = trusted(cls, *values, **extra), cls(*values)
        assert fast == slow and repr(fast) == repr(slow), (fast, slow)
        try:
            expected = hash(slow)
        except TypeError:  # a series holds a dict
            pass
        else:
            assert hash(fast) == expected, slow
        builds[cls.__name__] += 1
        return slow

    return classmethod(build)


def _clear_caches():
    lattice.discriminant_group.cache_clear()
    lattice._standard_template.cache_clear()
    orbits._class_table.cache_clear()


@pytest.mark.parametrize("test, args", _cases())
def test_pins_hold_with_every_check_restored(request, test, args):
    fixtures = {name: request.getfixturevalue(name) for name in inspect.signature(test).parameters if name not in args}
    builds = Counter()
    _clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Record, "_trusted", _checked(builds))
            test(**fixtures, **args)
    finally:
        _clear_caches()
    if test is test_cli.test_verify_all_passes:
        # verify --all builds a value of each class through _trusted
        assert set(builds) == TRUSTED_CLASSES, builds
