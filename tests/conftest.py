"""Session-wide test setup.

hypothesis adds the literal constants of every loaded local module to its
draws (`providers._get_local_constants`), so editing a number in src/, or
collecting one more module, would move the examples of every derandomized
property.  That pool is emptied for the session, so a property's draws
depend on the test alone; hypothesis's own global constants stay.  The hook
is private: `test_draws.py::test_local_constant_pool_is_empty` fails by name
if a hypothesis upgrade removes it.
"""

from hypothesis.internal.conjecture import providers


def _no_local_constants() -> providers.Constants:
    return providers.Constants()


if hasattr(providers, "_get_local_constants"):
    providers._get_local_constants = _no_local_constants
    providers.CONSTANTS_CACHE.cache.clear()
