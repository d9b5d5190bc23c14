import gaitadapt


def test_all_names_resolve_once_in_sorted_order():
    # `from gaitadapt import *` fails on a name the package does not bind
    names = gaitadapt.__all__
    assert [n for n in names if not hasattr(gaitadapt, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
