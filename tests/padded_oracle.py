"""Slot-major padded numpy oracle of the compiled composite kernel.

The render engine's composite and reverse pass once ran in numpy over
``(Lmax, K)`` slot-major arrays: row ``s`` holds list position ``s`` of
every pixel, rows past a pixel's list are padding (weight 0.0, channel
values 0.0, Γ carried), and every reduction is a sequential scan down the
slot axis (:func:`slot_scan`).  The compiled kernel
(``src/repro/render/kernels/_native.c``) walks the flat pair list instead
but keeps that arithmetic, padding included — so a pixel shorter than the
call's longest list adds ``+0.0`` to each forward total and starts each
reverse suffix scan from the padding term ``(Γ·0)·0``.

:func:`shadow_engine` installs checks that hold every kernel call
bit-identical to this oracle (``-0.0`` included), with either branch of
:func:`slot_scan`; ``tests/conftest.py``'s ``scan_branch`` fixture turns
it on for whole test classes.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from repro.render import rasterize
from repro.render.kernels import vectorized

#: Pixel count K from which :func:`slot_scan` walks the slot axis (one
#: K-lane ufunc call per list position) instead of calling the ufunc's
#: ``accumulate`` on axis 0.  Both branches perform the same IEEE
#: operations in the same order; the fixture forces each in turn.
WALK_MIN_PIXELS = 256


def slot_scan(ufunc, x, reverse=False, total=False):
    """Sequential inclusive scan of ``ufunc`` down the slot axis of an
    ``(L, K)`` array, ``L >= 1``: ``out[0] = x[0]`` and
    ``out[s] = ufunc(out[s - 1], x[s])`` — the operand order of
    ``ufunc.accumulate``.  ``reverse=True`` scans from the last slot up;
    ``total=True`` returns only the final ``(K,)`` row.  (A total is never
    ``ufunc.reduce``, which sums pairwise when the reduced axis is the
    innermost one.)
    """
    if reverse:
        x = x[::-1]
    if x.shape[1] < WALK_MIN_PIXELS:
        out = ufunc.accumulate(x, axis=0)
        if total:
            return out[-1]
    elif total:
        out = x[0].copy()
        for row in x[1:]:
            ufunc(out, row, out=out)
        return out
    else:
        out = np.empty(x.shape, dtype=x.dtype)
        out[0] = x[0]
        for s in range(1, len(x)):
            ufunc(out[s - 1], x[s], out=out[s])
    return out[::-1] if reverse else out


def _layout(lengths):
    """``(slot, valid, at)`` of the padded layout: ``at`` indexes each
    cell's flat pair (clamped in the padding)."""
    slot = np.arange(lengths.max())[:, None]
    offsets = np.cumsum(lengths) - lengths
    return slot, slot < lengths, np.minimum(offsets + slot, lengths.sum() - 1)


def _columns(proj):
    """Colour and depth as ``(4, M + 1)`` rows, each followed by the 0.0
    that the padding index ``M`` gathers."""
    m = len(proj)
    cols = np.zeros((4, m + 1))
    cols[:3, :m] = proj.color.T
    cols[3, :m] = proj.depth
    return cols


def composite(proj, gss, lengths, background, alpha, clipped,
              alpha_threshold, t_min):
    """The padded forward: ``(color, depth, silhouette, padded)``, with
    ``padded`` holding the slot-major cache arrays."""
    K = lengths.size
    slot, valid, at = _layout(lengths)
    gpad = np.where(valid, gss[at], len(proj))
    alpha = np.where(valid, alpha[at], 0.0)
    clipped = valid & clipped[at]
    passes = (alpha >= alpha_threshold) & valid
    gamma_incl = slot_scan(np.multiply, 1.0 - np.where(passes, alpha, 0.0))
    gamma = np.concatenate([np.ones((1, K)), gamma_incl[:-1]])
    contrib = passes & (gamma_incl >= t_min)
    weight = np.where(contrib, gamma * alpha, 0.0)
    *color_cols, depth_col = _columns(proj)
    color = np.stack([slot_scan(np.add, weight * col[gpad], total=True)
                      for col in color_cols], axis=-1)
    depth = slot_scan(np.add, weight * depth_col[gpad], total=True)
    silhouette = slot_scan(np.add, weight, total=True)
    gamma_final = 1.0 - silhouette
    color = color + gamma_final[:, None] * background[None, :]
    padded = SimpleNamespace(
        gpad=gpad, valid=valid, alpha=np.where(contrib, alpha, 0.0),
        gamma=gamma, contrib=contrib, clipped=clipped,
        gamma_end=gamma_incl[-1], gamma_final=gamma_final,
        touched=contrib.sum(axis=0))
    return color, depth, silhouette, padded


def pad(fc, proj):
    """The slot-major cache arrays of a flat composite cache; padding
    carries each pixel's final Γ."""
    slot, valid, at = _layout(fc.lengths)
    return SimpleNamespace(
        gpad=np.where(valid, fc.gss[at], len(proj)), valid=valid,
        alpha=np.where(valid, fc.alpha[at], 0.0),
        gamma=np.where(valid, fc.gamma[at], fc.gamma_end),
        contrib=valid & fc.contrib[at], clipped=valid & fc.clipped[at],
        gamma_end=fc.gamma_end, gamma_final=fc.gamma_final,
        touched=fc.touched)


def _exclusive_suffix(w):
    return slot_scan(np.add, w, reverse=True) - w


def reverse(fc, proj, d_color, d_depth, d_silhouette, pose_only, falloff):
    """The padded reverse pass: the fields of ``vectorized._reverse``."""
    pc = pad(fc, proj)
    K = fc.lengths.size
    gss = fc.gss
    rows = np.repeat(np.arange(K), fc.lengths)
    starts = np.cumsum(fc.lengths) - fc.lengths
    flat = (np.arange(gss.size) - starts[rows]) * K + rows
    weight_pad = pc.gamma * pc.alpha
    alpha, gamma, contrib, weight = (a.take(flat) for a in (
        pc.alpha, pc.gamma, pc.contrib, weight_pad))
    d_color_cols = [np.ascontiguousarray(col)[rows]
                    for col in np.asarray(d_color, float).T]
    d_depth_rows = np.asarray(d_depth, float)[rows]
    inv_one_minus = 1.0 / np.maximum(np.where(contrib, 1.0 - alpha, 1.0),
                                     1e-12)
    background_term = fc.gamma_final[rows]
    *color_cols, depth_col = _columns(proj)
    d_alpha = None
    for c, color in enumerate(color_cols):
        suffix_c = (_exclusive_suffix(weight_pad * color[pc.gpad]).take(flat)
                    + background_term * fc.background[c])
        term = d_color_cols[c] * (gamma * color[gss]
                                  - suffix_c * inv_one_minus)
        d_alpha = term if d_alpha is None else d_alpha + term
    suffix_d = _exclusive_suffix(weight_pad * depth_col[pc.gpad]).take(flat)
    suffix_s = _exclusive_suffix(weight_pad).take(flat)
    d_alpha = d_alpha + d_depth_rows * (gamma * proj.depth[gss]
                                        - suffix_d * inv_one_minus)
    d_alpha = d_alpha + np.asarray(d_silhouette, float)[rows] * (
        gamma - suffix_s * inv_one_minus)
    d_alpha = np.where(contrib & ~pc.clipped.take(flat), d_alpha, 0.0)
    opac = proj.opacity[gss]
    g = np.where(contrib, alpha / np.maximum(opac, 1e-12), 0.0)
    fields = dict(
        rows=rows, idx=gss, d_alpha=d_alpha, opacity=opac, g=g,
        d_color=(None if pose_only
                 else tuple(weight * dc for dc in d_color_cols)),
        d_depth=weight * d_depth_rows, touched=pc.contrib.sum(axis=0),
        contrib_flat=contrib)
    if falloff:
        sig = proj.sigma2d
        inv_var = 1.0 / (sig * sig)
        d_gg = d_alpha * opac * g
        du = fc.centres[rows, 0] - proj.mean2d[gss, 0]
        dv = fc.centres[rows, 1] - proj.mean2d[gss, 1]
        fields.update(
            d_mean2d=(d_gg * du * inv_var[gss], d_gg * dv * inv_var[gss]),
            d_sigma2d=d_gg * (du * du + dv * dv) * (inv_var / sig)[gss],
            d_opacity=None if pose_only else d_alpha * g)
    return fields


def same_bits(a, b):
    """Equal shapes and bits; any NaN matches any NaN (payloads are not
    part of numpy's contract)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind != "f":
        return np.array_equal(a, b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(np.where(nan, 0.0, a).view(np.uint64),
                               np.where(nan, 0.0, b).view(np.uint64)))


def _assert_same(name, got, want):
    if want is None or isinstance(want, tuple):
        assert (got is None) == (want is None), name
        for i, (g, w) in enumerate(zip(got or (), want or ())):
            assert same_bits(g, w), f"{name}[{i}]"
    else:
        assert same_bits(got, want), name


def checked_composite(proj, gss, lengths, centres, background, alpha,
                       clipped, alpha_threshold, t_min):
    out = _KERNEL["composite"](proj, gss, lengths, centres, background,
                               alpha, clipped, alpha_threshold, t_min)
    fc = out[3]
    if fc is not None:
        *want, padded = composite(proj, np.asarray(gss), np.asarray(lengths),
                                  np.asarray(background, float),
                                  np.asarray(alpha), np.asarray(clipped),
                                  alpha_threshold, t_min)
        for name, got, exp in zip(("color", "depth", "silhouette"),
                                  out[:3], want):
            _assert_same(name, got, exp)
        for name, got in vars(pad(fc, proj)).items():
            _assert_same(f"cache.{name}", got, getattr(padded, name))
    return out


def checked_reverse(fc, proj, d_color, d_depth, d_silhouette, pose_only,
                     falloff):
    got = _KERNEL["_reverse"](fc, proj, d_color, d_depth, d_silhouette,
                              pose_only, falloff)
    want = reverse(fc, proj, d_color, d_depth, d_silhouette, pose_only,
                   falloff)
    assert got.keys() == want.keys()
    for name in want:
        _assert_same(name, got[name], want[name])
    return got


_KERNEL = {"composite": vectorized.composite,
           "_reverse": vectorized._reverse}


@contextmanager
def shadow_engine(walk_min_pixels):
    """Check every composite and reverse-pass kernel call against this
    oracle, with :data:`WALK_MIN_PIXELS` set to ``walk_min_pixels``."""
    global WALK_MIN_PIXELS
    patches = [(vectorized, "composite", checked_composite),
               (rasterize, "composite", checked_composite),
               (vectorized, "_reverse", checked_reverse)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    saved_walk, WALK_MIN_PIXELS = WALK_MIN_PIXELS, walk_min_pixels
    for owner, name, fn in patches:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
        WALK_MIN_PIXELS = saved_walk
