"""Every binding site the benchmark expects to fire is still bound.

The benchmark's tracer wraps a layer's function wherever a ``dropglm``
module holds it under some name, and a ``--trace 1`` run fails if an
expected site ``module.name`` never fires.  A refactor that drops such an
import or calls through another module fails here first.
"""

import importlib
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# run.py sets BLAS thread variables at import; keep them out of this process.
with mock.patch.dict(os.environ), mock.patch.object(sys, "path",
                                                    [str(PERFBENCH), *sys.path]):
    from run import EXPECTED_SITES
    from tracer import LAYERS


def resolve(module_name: str, attr: str):
    """The object ``attr`` (possibly ``Class.method``) names in a module."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


LAYER_FUNCTIONS = [resolve(module, attr) for _, module, attr in LAYERS]


@pytest.mark.parametrize("workload,site", sorted(
    (workload, site) for workload, sites in EXPECTED_SITES.items() for site in sites))
def test_site_resolves_to_a_layer_function(workload, site):
    module, attr = site.split(".", 1)
    bound = resolve(f"dropglm.{module}", attr)
    assert any(bound is fn for fn in LAYER_FUNCTIONS), (
        f"{workload}: {site} is not bound to any traced layer's function")
