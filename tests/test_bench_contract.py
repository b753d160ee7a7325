"""The benchmark's patch points must stay resolvable.

``bench/layers.py`` wraps ``vars(owner)[attribute]`` for every entry of
``TARGETS``, so a traced method that is renamed or moved to a base class
fails the benchmark run with a ``KeyError``. Fail tier-1 instead.
"""

import pytest

from bench.layers import TARGETS


@pytest.mark.parametrize(
    "owner, attribute",
    [(owner, attribute) for _, owner, attribute in TARGETS],
    ids=[f"{owner.__name__}.{attribute}" for _, owner, attribute in TARGETS],
)
def test_traced_attribute_is_defined_directly_on_its_owner(owner, attribute):
    assert attribute in vars(owner)
