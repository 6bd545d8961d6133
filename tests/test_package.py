"""The package's public surface."""

import prewavelet_poisson


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from prewavelet_poisson import *", namespace)
    names = prewavelet_poisson.__all__
    assert names == sorted(names)
    for name in names:
        assert namespace[name] is getattr(prewavelet_poisson, name)
