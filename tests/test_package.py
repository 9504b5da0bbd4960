import scsnet


def test_every_exported_name_resolves():
    assert [name for name in scsnet.__all__ if not hasattr(scsnet, name)] == []
    assert len(set(scsnet.__all__)) == len(scsnet.__all__)
    namespace = {}
    exec("from scsnet import *", namespace)
    assert set(scsnet.__all__) <= set(namespace)
