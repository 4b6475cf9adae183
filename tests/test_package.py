"""The package's public names: ``__all__`` and what it exports."""

import reprojkit


def test_every_exported_name_resolves():
    missing = [name for name in reprojkit.__all__ if not hasattr(reprojkit, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(reprojkit.__all__)) == len(reprojkit.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from reprojkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(reprojkit.__all__)
