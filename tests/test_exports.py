import stabred


def test_every_exported_name_is_defined_once():
    assert len(set(stabred.__all__)) == len(stabred.__all__)
    missing = [name for name in stabred.__all__ if not hasattr(stabred, name)]
    assert missing == []


def test_star_import_runs():
    namespace = {}
    exec("from stabred import *", namespace)
    assert set(stabred.__all__) <= namespace.keys()
