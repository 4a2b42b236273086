"""Fit anisotropic 3D Gaussians to target views by gradient descent.

Demonstrates the full-covariance rendering path: a ground-truth anisotropic
cloud renders full target views; a perturbed copy is optimized by
:class:`repro.fit.SceneFitter` — means, per-axis log-scales, quaternions,
opacities, colors all receive analytic gradients through the EWA
projection — using the sparse pixel pipeline from several viewpoints,
until the renderings converge.

Run:  python examples/fit_anisotropic.py [--iterations 150]
"""

import argparse

import numpy as np

from repro.datasets.trajectory import look_at
from repro.fit import SceneFitter
from repro.gaussians import Camera, Intrinsics
from repro.metrics import psnr
from repro.render import AnisotropicCloud, render_sparse_anisotropic

#: The background the views are rendered over; the fitter composites
#: over the same 0.05 grey.
BG = np.full(3, 0.05)


def make_target_cloud(n=40, seed=3):
    rng = np.random.default_rng(seed)
    return AnisotropicCloud.create(
        means=np.stack([rng.uniform(-1, 1, n), rng.uniform(-0.7, 0.7, n),
                        rng.uniform(1.5, 3.5, n)], axis=-1),
        scales=rng.uniform(0.05, 0.35, (n, 3)),       # elongated splats
        quaternions=rng.normal(size=(n, 4)),
        opacities=rng.uniform(0.4, 0.9, n),
        colors=rng.uniform(0.1, 0.9, (n, 3)),
    )


def perturb(cloud: AnisotropicCloud, rng) -> AnisotropicCloud:
    vec = cloud.pack()
    return cloud.unpack(vec + rng.normal(0.0, 0.05, vec.shape))


def render_view(cloud, camera):
    """Full-frame ``(color, depth)`` of ``cloud`` seen from ``camera``."""
    intr = camera.intrinsics
    uu, vv = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
    out = render_sparse_anisotropic(
        cloud, camera, np.stack([uu.ravel(), vv.ravel()], axis=-1), BG)
    return (out.color.reshape(intr.height, intr.width, 3),
            out.depth.reshape(intr.height, intr.width))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=150)
    parser.add_argument("--views", type=int, default=4)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    target = make_target_cloud()
    intr = Intrinsics.from_fov(64, 48, 70.0)
    cameras = [
        Camera(intr, look_at(
            np.array([0.6 * np.cos(a), -0.1, 0.6 * np.sin(a) - 0.2]),
            np.array([0.0, 0.0, 2.5])))
        for a in np.linspace(0, 1.2, args.views)
    ]
    views = [(cam, *render_view(target, cam)) for cam in cameras]

    def view_psnr(cloud):
        return float(np.mean([psnr(render_view(cloud, cam)[0], color)
                              for cam, color, _ in views]))

    start = perturb(target, rng)
    print(f"{len(start)} anisotropic Gaussians, {args.views} views of "
          f"{intr.width}x{intr.height}")
    print(f"initial view PSNR: {view_psnr(start):.2f} dB")
    result = SceneFitter(start, views, iterations=args.iterations).fit()
    for it in range(30, args.iterations + 1, 30):
        print(f"iter {it:4d}  loss {result.losses[it - 1]:.5f}")
    print(f"final view PSNR: {view_psnr(result.cloud):.2f} dB")


if __name__ == "__main__":
    main()
