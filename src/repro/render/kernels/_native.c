/*
 * The render engine's per-pixel composite and its reverse pass, compiled.
 *
 * Both functions walk K pixel segments of a flat pair list (CSR: pixel k
 * owns the next lengths[k] pairs, front-to-back) one pair per step, as the
 * render and reverse-render units of Sec. V do.  Every expression keeps
 * the operands and the order of operations of the per-pixel oracle
 * (render/compositing.py) and of the slot-major formulation that pads each
 * call's pixels to its longest list, Lmax (tests/padded_oracle.py).  That
 * includes the padding:
 *
 *   - a row shorter than Lmax adds +0.0 (a padding slot's weight times
 *     its zero channel value) to each forward total, which turns a -0.0
 *     total into +0.0;
 *   - each reverse suffix scan of such a row starts from the padding
 *     term (Γ·0)·0, Γ the row's final transmittance, which is ±0 or NaN.
 *
 * Compile without FMA contraction or fast-math (-ffp-contract=off
 * -fno-fast-math): either would change bits.
 *
 * Both return 0, or -1 without reading out of bounds when the lengths do
 * not sum to the pair count or a pair indexes no projected Gaussian
 * (m of them).
 */

#include <stdint.h>

/* np.maximum: NaN in the first operand propagates. */
static double maximum(double a, double b)
{
    return (a != a || a >= b) ? a : b;
}

static int64_t longest(int64_t K, const int64_t *lengths)
{
    int64_t lmax = 0;
    for (int64_t k = 0; k < K; k++)
        if (lengths[k] > lmax)
            lmax = lengths[k];
    return lmax;
}

/*
 * Forward composite.  Per pair: exclusive transmittance prefix gamma, α
 * zeroed unless the pair contributes (alpha_out) and the contributing
 * flag.  Per pixel: colour (K, 3) with the background composited under,
 * depth, silhouette, the final inclusive prefix gamma_end (1.0 for an
 * empty list), gamma_final = 1 - silhouette and the contributing count.
 * color holds one row-major RGB triple per projected Gaussian.
 */
int composite_forward(
    int64_t K, int64_t M, int64_t m, const int64_t *lengths,
    const int64_t *gss,
    const double *alpha, const double *color, const double *depth,
    const double *background, double alpha_threshold, double t_min,
    double *gamma, double *alpha_out, uint8_t *contrib,
    double *out_color, double *out_depth, double *out_sil,
    double *gamma_end, double *gamma_final, int64_t *touched)
{
    const int64_t lmax = longest(K, lengths);
    int64_t p = 0;
    for (int64_t k = 0; k < K; k++) {
        const int64_t n = lengths[k];
        if (n < 0 || n > M - p)
            return -1;
        double total[5] = {0.0, 0.0, 0.0, 0.0, 0.0};  /* r, g, b, depth, sil */
        double prefix = 1.0;
        int64_t count = 0;
        for (int64_t s = 0; s < n; s++, p++) {
            const int64_t j = gss[p];
            if (j < 0 || j >= m)
                return -1;
            const double a = alpha[p];
            const int passes = a >= alpha_threshold;
            const double factor = 1.0 - (passes ? a : 0.0);
            const double incl = s == 0 ? factor : prefix * factor;
            const int c = passes && incl >= t_min;
            const double w = c ? prefix * a : 0.0;
            const double *v = color + 3 * j;
            const double term[5] = {w * v[0], w * v[1], w * v[2],
                                    w * depth[j], w};
            gamma[p] = prefix;
            alpha_out[p] = c ? a : 0.0;
            contrib[p] = (uint8_t)c;
            count += c;
            for (int i = 0; i < 5; i++)
                total[i] = s == 0 ? term[i] : total[i] + term[i];
            prefix = incl;
        }
        if (n > 0 && n < lmax)
            for (int i = 0; i < 5; i++)
                total[i] = total[i] + 0.0;
        const double gf = 1.0 - total[4];
        for (int i = 0; i < 3; i++)
            out_color[3 * k + i] = total[i] + gf * background[i];
        out_depth[k] = total[3];
        out_sil[k] = total[4];
        gamma_end[k] = prefix;
        gamma_final[k] = gf;
        touched[k] = count;
    }
    return p == M ? 0 : -1;
}

/*
 * Reverse pass over the forward's per-pair state (P pairs): dL/dα, the
 * falloff value g = α/o, and the direct colour and depth partials, from
 * the five back-to-front suffix sums.  d_color is (K, 3); d_color_out is
 * three contiguous (P,) columns, or NULL to skip them (pose-only).
 *
 * With a non-NULL d_mean (two (P,) columns) the isotropic falloff
 * α = o·exp(-d²/2σ²) is reversed too, into d_mean, d_sigma and, unless
 * NULL (pose-only), d_opacity; centres and mean2d are row-major (u, v)
 * pairs per pixel and per projected Gaussian.  With a NULL d_mean
 * (alpha-only) the caller reverses its own falloff.
 */
int composite_reverse(
    int64_t K, int64_t P, int64_t m, const int64_t *lengths,
    const int64_t *gss,
    const double *gamma, const double *alpha, const uint8_t *contrib,
    const uint8_t *clipped, const double *gamma_end,
    const double *gamma_final, const double *background,
    const double *color, const double *depth, const double *opacity,
    const double *d_color, const double *d_depth, const double *d_sil,
    double *d_alpha, double *g_out, double *d_color_out, double *d_depth_out,
    const double *centres, const double *mean2d, const double *sigma2d,
    double *d_mean, double *d_sigma, double *d_opacity)
{
    const int64_t lmax = longest(K, lengths);
    int64_t start = 0;
    for (int64_t k = 0; k < K; k++) {
        const int64_t n = lengths[k];
        if (n < 0 || n > P - start)
            return -1;
        const int padded = n < lmax;
        const double pad_weight = gamma_end[k] * 0.0;
        double suffix[5];  /* inclusive, back to front: r, g, b, depth, sil */
        for (int i = 0; i < 4; i++)
            suffix[i] = pad_weight * 0.0;
        suffix[4] = pad_weight;
        const double *dc = d_color + 3 * k;
        for (int64_t s = n - 1; s >= 0; s--) {
            const int64_t p = start + s;
            const int64_t j = gss[p];
            if (j < 0 || j >= m)
                return -1;
            const double *v = color + 3 * j;
            const double gam = gamma[p];
            const double a = alpha[p];
            const double w = gam * a;
            const double term[5] = {w * v[0], w * v[1], w * v[2],
                                    w * depth[j], w};
            double excl[5];
            for (int i = 0; i < 5; i++) {
                suffix[i] = (s == n - 1 && !padded) ? term[i]
                                                    : suffix[i] + term[i];
                excl[i] = suffix[i] - term[i];
            }
            const int c = contrib[p];
            const double inv = 1.0 / maximum(c ? 1.0 - a : 1.0, 1e-12);
            /* The colour suffixes get the background, composited last. */
            double da = 0.0;
            for (int i = 0; i < 3; i++) {
                const double sfx = excl[i] + gamma_final[k] * background[i];
                const double t = dc[i] * (gam * v[i] - sfx * inv);
                da = i == 0 ? t : da + t;
            }
            da = da + d_depth[k] * (gam * depth[j] - excl[3] * inv);
            da = da + d_sil[k] * (gam - excl[4] * inv);
            da = (c && !clipped[p]) ? da : 0.0;
            const double o = opacity[j];
            const double g = c ? a / maximum(o, 1e-12) : 0.0;
            d_alpha[p] = da;
            g_out[p] = g;
            if (d_color_out)
                for (int i = 0; i < 3; i++)
                    d_color_out[i * P + p] = w * dc[i];
            d_depth_out[p] = w * d_depth[k];
            if (!d_mean)
                continue;
            const double sig = sigma2d[j];
            const double inv_var = 1.0 / (sig * sig);
            const double dgg = (da * o) * g;
            if (d_opacity)
                d_opacity[p] = da * g;
            const double du = centres[2 * k] - mean2d[2 * j];
            const double dv = centres[2 * k + 1] - mean2d[2 * j + 1];
            d_mean[p] = dgg * du * inv_var;
            d_mean[P + p] = dgg * dv * inv_var;
            d_sigma[p] = dgg * (du * du + dv * dv) * (inv_var / sig);
        }
        start += n;
    }
    return start == P ? 0 : -1;
}
