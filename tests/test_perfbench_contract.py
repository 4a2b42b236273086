"""The program surface ``perfbench/`` relies on.

The benchmark imports ``perfbench/layers.py`` and ``perfbench/workloads.py``
against ``src/``, patches every :class:`layers.Site` by name and reports
a few resolved settings of the system it builds.  A ``src/`` change that
drops any of these breaks the benchmark, not the program, so it is checked
here without running a workload.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import Splatonic
from repro.gaussians import Camera, GaussianCloud, Intrinsics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("calibrate", "layers", "workloads")


@pytest.fixture(scope="module")
def perfbench():
    """``(layers, workloads)`` imported from ``perfbench/``; the path and
    the modules are dropped again afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("layers"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in MODULES:
            sys.modules.pop(name, None)


def test_every_site_resolves(perfbench):
    layers, _ = perfbench
    for site in layers.ALL_SITES:
        owner = (importlib.import_module(site.owner)
                 if isinstance(site.owner, str) else site.owner)
        assert callable(getattr(owner, site.attr)), site


def test_reported_settings_resolve(perfbench):
    _, workloads = perfbench
    for workload in workloads.WORKLOADS.values():
        system = workloads.make_system(workload, 0)
        json.dumps({"kernel_backend": system.resolved_kernel_backend(),
                    "kernel_workers": system.effective_kernel_workers(),
                    "render_cache": system.resolved_render_cache()})


def test_render_sparse_accepts_lattice_tile():
    cloud = GaussianCloud.create(
        means=np.array([[0.0, 0.0, 2.0]]), scales=np.array([0.1]),
        opacities=np.array([0.8]), colors=np.array([[1.0, 0.5, 0.2]]))
    camera = Camera(Intrinsics.from_fov(16, 12, 70.0))
    pixels = np.array([[8, 6], [0, 0]])
    plain = Splatonic().render_sparse(cloud, camera, pixels)
    tiled = Splatonic().render_sparse(cloud, camera, pixels, lattice_tile=8)
    assert np.array_equal(plain.color, tiled.color)
