"""Extension bench: anisotropic (full-covariance) Gaussians through the
pixel-based pipeline.

The paper's pipeline is representation-agnostic; this bench fits a
perturbed anisotropic cloud back to its target views with the analytic
EWA gradients and reports the convergence, demonstrating that the sparse
pixel pipeline trains full 3DGS covariances, not just SplaTAM-style
isotropic splats.
"""

import numpy as np

from repro.bench import print_table
from repro.datasets.trajectory import look_at
from repro.fit import SceneFitter
from repro.gaussians import Camera, Intrinsics
from repro.render import AnisotropicCloud, render_sparse_anisotropic


def run_fit():
    rng = np.random.default_rng(7)
    n = 30
    target = AnisotropicCloud.create(
        means=np.stack([rng.uniform(-0.8, 0.8, n), rng.uniform(-0.6, 0.6, n),
                        rng.uniform(1.5, 3.0, n)], axis=-1),
        scales=rng.uniform(0.05, 0.3, (n, 3)),
        quaternions=rng.normal(size=(n, 4)),
        opacities=rng.uniform(0.4, 0.9, n),
        colors=rng.uniform(0.1, 0.9, (n, 3)))
    intr = Intrinsics.from_fov(48, 36, 70.0)
    views = []
    for a in np.linspace(-0.3, 0.3, 3):
        cam = Camera(intr, look_at(np.array([a, -0.05, -0.1]),
                                   np.array([0.0, 0.0, 2.2])))
        uu, vv = np.meshgrid(np.arange(48), np.arange(36))
        px = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        out = render_sparse_anisotropic(target, cam, px, np.full(3, 0.05))
        views.append((cam, out.color.reshape(36, 48, 3),
                      out.depth.reshape(36, 48)))

    start = target.unpack(target.pack()
                          + rng.normal(0, 0.05, target.pack().shape))
    result = SceneFitter(start, views, iterations=90).fit()
    losses = result.losses
    return [
        {"checkpoint": "start", "loss": float(np.mean(losses[:3]))},
        {"checkpoint": "mid", "loss": float(np.mean(
            losses[len(losses) // 2 - 1:len(losses) // 2 + 2]))},
        {"checkpoint": "end", "loss": float(np.mean(losses[-3:]))},
    ]


def test_ext_anisotropic_fit(benchmark):
    rows = benchmark.pedantic(run_fit, rounds=1, iterations=1)
    print_table("Extension - anisotropic fitting convergence", rows)
    by = {r["checkpoint"]: r["loss"] for r in rows}
    assert by["end"] < 0.5 * by["start"], "EWA gradients must converge"
