import ringline


def test_exports_are_sorted_unique_and_resolve():
    names = ringline.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ringline, name)] == []
