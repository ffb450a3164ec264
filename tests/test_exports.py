"""The package's public names: ``__all__`` lists only names it has."""

import mtsine


def test_every_name_in_all_resolves():
    assert [name for name in mtsine.__all__ if not hasattr(mtsine, name)] == []


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from mtsine import *", namespace)
    assert set(mtsine.__all__) <= namespace.keys()
    assert len(set(mtsine.__all__)) == len(mtsine.__all__)
