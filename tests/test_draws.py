from hypothesis.internal.conjecture import providers


def test_local_constant_pool_is_empty():
    """conftest.py replaced hypothesis's local-constant hook with one that returns no constants.

    This fails, rather than the draws moving without notice, once a hypothesis upgrade renames the hook.
    """
    assert providers._get_local_constants.__name__ == "_no_local_constants"
    assert len(providers._get_local_constants()) == 0
