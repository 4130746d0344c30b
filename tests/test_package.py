import optocool


def test_all_names_resolve():
    missing = [name for name in optocool.__all__
               if not hasattr(optocool, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from optocool import *", namespace)
    assert set(optocool.__all__) <= set(namespace)
