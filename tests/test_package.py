"""Package surface: the names ``crossdial`` exports."""

import types

import crossdial


def test_all_lists_exactly_the_public_bindings():
    bound = {name for name, value in vars(crossdial).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(crossdial.__all__) == sorted(bound)
    assert len(crossdial.__all__) == len(set(crossdial.__all__))
