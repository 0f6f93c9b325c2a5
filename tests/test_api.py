import moriconic


def test_all_is_sorted_and_unique():
    assert moriconic.__all__ == sorted(set(moriconic.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in moriconic.__all__ if not hasattr(moriconic, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from moriconic import *", namespace)
    assert set(moriconic.__all__) <= set(namespace)
