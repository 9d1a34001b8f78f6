"""The package's public names."""

import iontrap


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from iontrap import *", namespace)  # AttributeError for a name not defined
    assert all(namespace[name] is getattr(iontrap, name) for name in iontrap.__all__)
