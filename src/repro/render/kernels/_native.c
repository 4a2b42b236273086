/*
 * The render engine's compiled stages, every per-iteration stage of a
 * sparse tracking iteration after the world-to-camera transform: the
 * projection, the sparse and dense α-culls, the dense α finish, the
 * per-pixel composite, its reverse pass and the pose-only re-projection.
 *
 * project_cull and project_gather finish the projection from numpy's
 * camera-frame centres: the depth test, u, v, σ and the bbox radius, the
 * on-screen test, the ascending-index compaction and the gathers,
 * np.clip's colour clamp included.  candidate_cull pairs each sampled
 * pixel with every projected Gaussian whose bbox holds its centre,
 * walking the Gaussians in depth rank (np.argsort(kind="stable")'s order,
 * ranked in the call) so that each pixel's pairs come out front-to-back;
 * with a cutoff it keeps only the pairs whose squared centre distance is
 * within the Gaussian's α cutoff, and candidate_place lays the kept pairs
 * out pixel-major at their exact count.  tile_cull pairs every rendered
 * pixel of a tile with the tile's depth-sorted list under the same
 * distance test, walking the list one pixel row's band at a time, and
 * tile_place copies its kept pairs out at their exact count.  Both culls
 * form that distance exactly as numpy does (du*du + dv*dv); tile_cull
 * goes on to the falloff's exponent (-d2)*(1/(2σσ)), with numpy's
 * operands and order, and alpha_finish takes its pairs from there, after
 * the caller's exp: α = o*g, the clip flag and clamp, the α >= τ filter
 * and its in-place compaction.
 *
 * The composite and its reverse pass walk K pixel segments of a flat pair
 * list (CSR: pixel k owns the next lengths[k] pairs, front-to-back) one
 * pair per step, as the render and reverse-render units of Sec. V do.
 * Every expression keeps the operands and the order of operations of the
 * per-pixel oracle (render/compositing.py) and of the slot-major
 * formulation that pads each call's pixels to its longest list, Lmax
 * (tests/padded_oracle.py).  That includes the padding:
 *
 *   - a row shorter than Lmax adds +0.0 (a padding slot's weight times
 *     its zero channel value) to each forward total, which turns a -0.0
 *     total into +0.0;
 *   - each reverse suffix scan of such a row starts from the padding
 *     term (Γ·0)·0, Γ the row's final transmittance, which is ±0 or NaN.
 *
 * reproject_twist turns a pose-only reverse pass's splat gradients into
 * the camera-twist gradient, in the order of the numpy einsum it
 * replaced.
 *
 * Nothing here calls a transcendental function: the falloff's exp and the
 * cutoff's log stay with the caller.  Compile without FMA contraction or
 * fast-math (-ffp-contract=off -fno-fast-math): either would change bits.
 *
 * Every entry point returns -1 without reading or writing out of bounds
 * when its counts do not sum to its array lengths or an index points
 * outside the array it indexes, and -2 when it cannot allocate its
 * scratch.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* np.clip(x, 0.0, 1.0): NaN and -0.0 pass through. */
static double clip01(double x)
{
    return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
}

/* A splat's pixel-space centre (u, v), σ and bbox radius r, from its
 * camera-frame centre p (x, y, z) and its scale, with numpy's operands and
 * order: u = fx*x/z + cx, v = fy*y/z + cy, σ = mean_focal*scale/z and r =
 * margin*σ. */
struct splat {
    double u, v, sigma, r;
};

static struct splat splat_of(const double *p, double scale, double fx,
                             double fy, double cx, double cy,
                             double mean_focal, double margin)
{
    const double sigma = mean_focal * scale / p[2];
    return (struct splat){fx * p[0] / p[2] + cx, fy * p[1] / p[2] + cy,
                          sigma, margin * sigma};
}

/*
 * Projection after the world-to-camera transform, first half: the cull.
 * p_cam holds the N camera-frame centres (row-major (x, y, z)).
 * Gaussian i is kept when near < z < far and its bbox (u, v) ± r
 * overlaps the image: u + r > 0, u - r < width, v + r > 0 and v - r <
 * height (splat_of; a NaN anywhere keeps nothing).  The kept indices are
 * written to index in ascending order, without a branch on the data.
 * Returns their count.
 */
int64_t project_cull(
    int64_t N, const double *p_cam, const double *scale, double fx,
    double fy, double cx, double cy, double mean_focal, double width,
    double height, double near, double far, double margin, int64_t *index)
{
    int64_t m = 0;
    for (int64_t i = 0; i < N; i++) {
        const double *p = p_cam + 3 * i;
        const struct splat s = splat_of(p, scale[i], fx, fy, cx, cy,
                                        mean_focal, margin);
        index[m] = i;
        m += (p[2] > near) & (p[2] < far) & (s.u + s.r > 0.0)
             & (s.u - s.r < width) & (s.v + s.r > 0.0) & (s.v - s.r < height);
    }
    return m;
}

/*
 * Second half: the M Gaussians project_cull kept (index, each below N),
 * gathered in that order: index into source_index, the centre into p_out
 * (row-major), (u, v) into mean2d (row-major), σ into sigma2d, z into
 * depth, opacity_out, the colour clipped to [0, 1] as np.clip clips it
 * into color_out (row-major), r into radius and scale_out.  Returns 0, or
 * -1 without writing when an index is out of range.
 */
int project_gather(
    int64_t M, const int64_t *index, int64_t N, const double *p_cam,
    const double *scale, const double *opacity, const double *colors,
    double fx, double fy, double cx, double cy, double mean_focal,
    double margin, int64_t *source_index, double *p_out, double *mean2d,
    double *sigma2d, double *depth, double *opacity_out, double *color_out,
    double *radius, double *scale_out)
{
    for (int64_t q = 0; q < M; q++)
        if (index[q] < 0 || index[q] >= N)
            return -1;
    for (int64_t q = 0; q < M; q++) {
        const int64_t i = index[q];
        const double *p = p_cam + 3 * i;
        const struct splat s = splat_of(p, scale[i], fx, fy, cx, cy,
                                        mean_focal, margin);
        source_index[q] = i;
        for (int c = 0; c < 3; c++) {
            p_out[3 * q + c] = p[c];
            color_out[3 * q + c] = clip01(colors[3 * i + c]);
        }
        mean2d[2 * q] = s.u;
        mean2d[2 * q + 1] = s.v;
        sigma2d[q] = s.sigma;
        depth[q] = p[2];
        opacity_out[q] = opacity[i];
        radius[q] = s.r;
        scale_out[q] = scale[i];
    }
    return 0;
}

/* First position in the n ascending values of v that is >= key (above =
 * 0) or > key (above = 1); key is not NaN.  Branch-free: the position
 * steps are conditional moves, which the unpredictable comparisons of a
 * bbox search would otherwise mispredict. */
static int64_t search(const double *v, int64_t n, double key, int above)
{
    if (n == 0)
        return 0;
    const double *base = v;
    while (n > 1) {
        const int64_t half = n / 2;
        const double x = base[half - 1];
        base += ((above ? x <= key : x < key) ? half : 0);
        n -= half;
    }
    return (base - v) + (above ? *base <= key : *base < key);
}

/* A pixel of the v-ordered index: its centre and its row in centres. */
struct centre {
    double v, u;
    int64_t k;
};

/* Pixels of equal v may come in any order: each pixel's list is filled
 * in rank order whatever order a Gaussian visits its band in. */
static int by_v(const void *a, const void *b)
{
    const struct centre *x = a, *y = b;
    return (x->v > y->v) - (x->v < y->v);
}

/* A Gaussian of the depth rank: its depth and its index. */
struct ranked {
    double d;
    int64_t j;
};

/* a goes before b: ascending depth, NaN after every number. */
static int before(struct ranked a, struct ranked b)
{
    return a.d < b.d || (b.d != b.d && a.d == a.d);
}

/*
 * The order of np.argsort(depth, kind="stable") over the m depths, in a
 * malloc'd array (NULL when out of memory): ascending depth, NaN last,
 * ties (-0.0 and 0.0 among them, and every NaN) by ascending index.  A
 * bottom-up merge sort, stable because a merge takes from the left run
 * unless the right one's head goes strictly before.
 */
static int64_t *depth_rank(int64_t m, const double *depth)
{
    struct ranked *a = malloc(((size_t)m + 1) * sizeof(struct ranked));
    struct ranked *b = malloc(((size_t)m + 1) * sizeof(struct ranked));
    int64_t *rank = malloc(((size_t)m + 1) * sizeof(int64_t));
    if (!a || !b || !rank) {
        free(rank);
        rank = NULL;
        goto done;
    }
    for (int64_t j = 0; j < m; j++)
        a[j] = (struct ranked){depth[j], j};
    for (int64_t width = 1; width < m; width *= 2) {
        for (int64_t lo = 0; lo < m; lo += 2 * width) {
            const int64_t mid = lo + width < m ? lo + width : m;
            const int64_t hi = mid + width < m ? mid + width : m;
            int64_t i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                b[o++] = before(a[j], a[i]) ? a[j++] : a[i++];
            while (i < mid)
                b[o++] = a[i++];
            while (j < hi)
                b[o++] = a[j++];
        }
        struct ranked *t = a;
        a = b;
        b = t;
    }
    for (int64_t r = 0; r < m; r++)
        rank[r] = a[r].j;
done:
    free(a);
    free(b);
    return rank;
}

/* A kept pair in the cull's scratch: pixel, Gaussian, squared distance. */
struct pair {
    int64_t k, j;
    double d2;
};

/*
 * Sparse candidate cull.  The m projected Gaussians are walked in depth
 * rank (depth_rank: np.argsort(depth, kind="stable")'s order).  Gaussian
 * j's bbox is (mu - r, mv - r,
 * mu + r, mv + r), (mu, mv) its row of mean2d (row-major) and r =
 * radius[j]: the bits numpy's mean2d ± r has.  A (pixel, Gaussian) pair
 * is a bbox candidate when u_min <= cu <= u_max and v_min <= cv <= v_max,
 * (cu, cv) the pixel's row of centres (a NaN anywhere makes it none).
 * With a cutoff, a candidate is kept when d2 = du*du + dv*dv, with du =
 * cu - mu and dv = cv - mv, is <= cutoff[j] (a NaN keeps nothing); with a
 * NULL cutoff every candidate is kept.
 *
 * Each Gaussian visits only the pixels whose v lies in its bbox, found by
 * binary search in a v-ordered index of the pixels, with no branch on
 * the data, and appends its kept pairs to a scratch it allocates; the
 * Gaussians come in rank order, so each pixel's pairs are front-to-back.
 * lengths[k] receives pixel k's kept count and *n_cand the number of bbox
 * candidates; returns the kept total and hands the scratch to *scratch,
 * which candidate_place must then be given.
 */
int64_t candidate_cull(
    int64_t K, int64_t m, const double *centres, const double *depth,
    const double *mean2d, const double *radius, const double *cutoff,
    int64_t *lengths, int64_t *n_cand, void **scratch)
{
    if (!scratch)
        return -1;
    *scratch = NULL;
    if (!lengths || !n_cand || !mean2d || !radius || !depth)
        return -1;
    /* The pixels with a non-NaN v, by v (index, and its v column vs);
     * the Gaussians in depth rank; the kept pairs, in visiting order
     * (out, capacity cap, one spare entry taking the writes of dropped
     * pairs). */
    struct centre *index = malloc(((size_t)K + 1) * sizeof(struct centre));
    double *vs = malloc(((size_t)K + 1) * sizeof(double));
    int64_t *rank = depth_rank(m, depth);
    int64_t cap = 4 * K + 16;
    struct pair *out = malloc((size_t)cap * sizeof(struct pair));
    int64_t kept = -2, cand = 0, n = 0;
    if (!index || !vs || !rank || !out)
        goto done;
    for (int64_t k = 0; k < K; k++) {
        const double v = centres[2 * k + 1];
        lengths[k] = 0;
        if (v == v)
            index[n++] = (struct centre){v, centres[2 * k], k};
    }
    qsort(index, (size_t)n, sizeof(struct centre), by_v);
    for (int64_t i = 0; i < n; i++)
        vs[i] = index[i].v;
    kept = 0;
    const int all = !cutoff;
    for (int64_t r = 0; r < m; r++) {
        const int64_t j = rank[r];
        const double mu = mean2d[2 * j], mv = mean2d[2 * j + 1];
        const double u_min = mu - radius[j], v_min = mv - radius[j];
        const double u_max = mu + radius[j], v_max = mv + radius[j];
        if (!(v_min <= v_max))
            continue;
        const double cut = cutoff ? cutoff[j] : 0.0;
        const int64_t start = search(vs, n, v_min, 0);
        const int64_t stop = search(vs, n, v_max, 1);
        if (kept + (stop - start) >= cap) {
            cap = 2 * (kept + (stop - start)) + 16;
            struct pair *grown = realloc(out, (size_t)cap * sizeof(struct pair));
            if (!grown) {
                kept = -2;
                goto done;
            }
            out = grown;
        }
        for (int64_t i = start; i < stop; i++) {
            const struct centre c = index[i];
            const int in = (c.u >= u_min) & (c.u <= u_max)
                           & (c.v >= v_min) & (c.v <= v_max);
            const double du = c.u - mu, dv = c.v - mv;
            const double d = du * du + dv * dv;
            const int keep = in & (all | (d <= cut));
            cand += in;
            out[kept] = (struct pair){c.k, j, d};
            lengths[c.k] += keep;
            kept += keep;
        }
    }
    *n_cand = cand;
done:
    free(index);
    free(vs);
    free(rank);
    if (kept >= 0)
        *scratch = out;
    else
        free(out);
    return kept;
}

/*
 * Lays the scratch of a candidate_cull call out pixel-major, into pix,
 * gss and (when not NULL) d2, each count long, given the call's lengths
 * and count; with a NULL pix it only frees the scratch.  Returns count,
 * or -1 when lengths do not match the scratch (no pair is written past
 * its pixel's list then).
 */
int64_t candidate_place(
    void *scratch, int64_t K, const int64_t *lengths, int64_t count,
    int64_t *pix, int64_t *gss, double *d2)
{
    const struct pair *out = scratch;
    int64_t *next = malloc(2 * ((size_t)K + 1) * sizeof(int64_t));
    int64_t *end = next + K + 1;
    int64_t total = -2;
    if (!pix || !next)
        goto done;
    total = 0;
    for (int64_t k = 0; k < K; k++) {
        if (lengths[k] < 0 || lengths[k] > count - total) {
            total = -1;
            goto done;
        }
        next[k] = total;
        total += lengths[k];
        end[k] = total;
    }
    if (total != count) {
        total = -1;
        goto done;
    }
    for (int64_t q = 0; q < count; q++) {
        const int64_t k = out[q].k, at = next[k]++;
        if (at >= end[k]) {
            total = -1;
            goto done;
        }
        pix[at] = k;
        gss[at] = out[q].j;
        if (d2)
            d2[at] = out[q].d2;
    }
done:
    free(next);
    free(scratch);
    return pix ? total : 0;
}

/* tile_cull's kept pairs, in emission order, until tile_place. */
struct tile_pairs {
    int64_t capacity;
    int64_t *slot;
    double *x;
};

static void free_tile_pairs(struct tile_pairs *out)
{
    if (out) {
        free(out->slot);
        free(out->x);
    }
    free(out);
}

/* Room for n more pairs after the kept ones; 0 when out of memory (the
 * kept pairs stay valid). */
static int reserve(struct tile_pairs *out, int64_t kept, int64_t n)
{
    if (n <= out->capacity - kept)
        return 1;
    const int64_t capacity = 2 * (kept + n) + 1024;
    int64_t *slot = realloc(out->slot, (size_t)capacity * sizeof(int64_t));
    if (slot)
        out->slot = slot;
    double *x = realloc(out->x, (size_t)capacity * sizeof(double));
    if (x)
        out->x = x;
    if (!slot || !x)
        return 0;
    out->capacity = capacity;
    return 1;
}

/*
 * Dense α-cull.  Tile t owns the next n_g[t] entries of lists (L in all,
 * projected-Gaussian indices, front-to-back) and the next n_px[t] of the
 * K rendered pixels px (row-major (u, v) integer pairs).  Every rendered
 * pixel of a tile is a candidate against the tile's whole list; a pair is
 * kept when d2 = du*du + dv*dv, with du = (u + 0.5) - mean2d[j][0] and dv
 * likewise, is <= cutoff[j] (a NaN keeps nothing).  Kept pairs come out
 * tile-major, then pixel, then list position, as (slot, x): the pair's
 * entry in lists and its falloff exponent x = (-d2)*(1/(2.0*σ*σ)), σ =
 * sigma2d[j] (numpy's falloff operands, in its order).
 *
 * The walk is row-banded (Axis-Shared Rasterization's row sharing,
 * applied to the walk): for each run of a tile's pixels on one row, the
 * list entries with dv*dv <= cutoff form the row's band, and each pixel
 * of the run is tested against the band alone, with the same du*du +
 * dv*dv <= cutoff.  That is exact: for a, b >= 0, fl(a + b) >= b, so no
 * entry outside the band passes, and a NaN fails both tests.  A pixel
 * subset (Org.+S) takes the same path; its rows need not be whole.
 *
 * Each candidate is tested once, branch-free, into a scratch the call
 * grows; lengths[k] receives pixel k's kept count.  Returns the kept
 * total and hands the scratch to *scratch, which tile_place must then be
 * given.
 */
int64_t tile_cull(
    int64_t T, int64_t L, int64_t K, int64_t m, const int64_t *n_g,
    const int64_t *n_px, const int64_t *lists, const int64_t *px,
    const double *mean2d, const double *sigma2d, const double *cutoff,
    int64_t *lengths, void **scratch)
{
    if (!scratch)
        return -1;
    *scratch = NULL;
    /* Columns of the tile's list (mu, mv, cutoff, 1/(2σσ)) and of a
     * row's band (mu, dv*dv, cutoff, 1/(2σσ), and the slot), gathered
     * once per tile and once per row. */
    const size_t rows = (size_t)longest(T, n_g) + 1;
    double *list = malloc(8 * rows * sizeof(double));
    int64_t *band_slot = malloc(rows * sizeof(int64_t));
    struct tile_pairs *out = calloc(1, sizeof(struct tile_pairs));
    int64_t kept = -2, s0 = 0, p0 = 0;
    if (!list || !band_slot || !out)
        goto done;
    kept = 0;
    for (int64_t t = 0; t < T; t++) {
        const int64_t ng = n_g[t], np_ = n_px[t];
        if (ng < 0 || np_ < 0 || ng > L - s0 || np_ > K - p0) {
            kept = -1;
            goto done;
        }
        double *mu = list, *mv = list + ng, *cut = list + 2 * ng,
               *inv = list + 3 * ng;
        double *b_mu = list + 4 * ng, *b_dv2 = list + 5 * ng,
               *b_cut = list + 6 * ng, *b_inv = list + 7 * ng;
        for (int64_t i = 0; i < ng; i++) {
            const int64_t j = lists[s0 + i];
            if (j < 0 || j >= m) {
                kept = -1;
                goto done;
            }
            const double s = sigma2d[j];
            mu[i] = mean2d[2 * j];
            mv[i] = mean2d[2 * j + 1];
            cut[i] = cutoff[j];
            inv[i] = 1.0 / (2.0 * s * s);
        }
        for (int64_t k = p0; k < p0 + np_;) {
            const int64_t v = px[2 * k + 1];
            const double cv = (double)v + 0.5;
            int64_t nb = 0;
            for (int64_t i = 0; i < ng; i++) {
                const double dv = cv - mv[i];
                b_mu[nb] = mu[i];
                b_dv2[nb] = dv * dv;
                b_cut[nb] = cut[i];
                b_inv[nb] = inv[i];
                band_slot[nb] = s0 + i;
                nb += b_dv2[nb] <= cut[i];
            }
            for (; k < p0 + np_ && px[2 * k + 1] == v; k++) {
                const double cu = (double)px[2 * k] + 0.5;
                if (!reserve(out, kept, nb)) {
                    kept = -2;
                    goto done;
                }
                /* A dropped pair's entry is overwritten by the next. */
                int64_t n = kept;
                for (int64_t q = 0; q < nb; q++) {
                    const double du = cu - b_mu[q];
                    const double d = du * du + b_dv2[q];
                    out->slot[n] = band_slot[q];
                    out->x[n] = -d * b_inv[q];
                    n += d <= b_cut[q];
                }
                lengths[k] = n - kept;
                kept = n;
            }
        }
        s0 += ng;
        p0 += np_;
    }
    if (s0 != L || p0 != K)
        kept = -1;
done:
    free(list);
    free(band_slot);
    if (kept >= 0)
        *scratch = out;
    else
        free_tile_pairs(out);
    return kept;
}

/*
 * Copies the count pairs of a tile_cull call's scratch into slot and x,
 * each count long, and frees the scratch; with a NULL slot it only frees
 * it.  Returns count, or -1 when the scratch holds fewer pairs.
 */
int64_t tile_place(void *scratch, int64_t count, int64_t *slot, double *x)
{
    struct tile_pairs *out = scratch;
    int64_t placed = 0;
    if (slot && (count < 0 || count > out->capacity))
        placed = -1;
    else if (slot && count > 0) {
        memcpy(slot, out->slot, (size_t)count * sizeof(int64_t));
        memcpy(x, out->x, (size_t)count * sizeof(double));
        placed = count;
    }
    free_tile_pairs(out);
    return placed;
}

/*
 * The dense α stage's finish, after the caller's exp: P pairs in K
 * pixel segments (pixel k owns the next lengths[k]), each with its
 * falloff g in alpha and its slot in lists (L projected-Gaussian
 * indices), as tile_place leaves them.  Per pair, with j = lists[slot],
 * α = opacity[j]*g, clipped = α > alpha_max, α is clamped to alpha_max
 * as np.minimum clamps it (a NaN stays NaN), and the pair is kept when
 * α >= tau.  The kept pairs are compacted in place, in order: slot, α
 * into alpha, the clip flag into clipped and j into gs; lengths[k]
 * becomes pixel k's kept count.  Returns the kept count.
 */
int64_t alpha_finish(
    int64_t K, int64_t P, int64_t L, int64_t m, int64_t *lengths,
    int64_t *slot, const int64_t *lists, int64_t *gs, double *alpha,
    uint8_t *clipped, const double *opacity, double alpha_max, double tau)
{
    int64_t p = 0, n = 0;
    for (int64_t k = 0; k < K; k++) {
        if (lengths[k] < 0 || lengths[k] > P - p)
            return -1;
        p += lengths[k];
    }
    if (p != P)
        return -1;
    p = 0;
    for (int64_t k = 0; k < K; k++) {
        const int64_t first = n;
        for (const int64_t end = p + lengths[k]; p < end; p++) {
            const int64_t i = slot[p];
            const int64_t j = i >= 0 && i < L ? lists[i] : -1;
            if (j < 0 || j >= m)
                return -1;
            const double a = opacity[j] * alpha[p];
            const int c = a > alpha_max;
            const double clamped = c ? alpha_max : a;
            slot[n] = i;
            gs[n] = j;
            alpha[n] = clamped;
            clipped[n] = (uint8_t)c;
            n += clamped >= tau;
        }
        lengths[k] = n - first;
    }
    return n;
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

/* Aggregating mode's partials per pair: u, v, σ, opacity, r, g, b, depth. */
#define NPART 8

/* lengths sum to P, every gss in [0, m) and, when given, every acc_index
 * in [0, n_acc). */
static int valid_pairs(int64_t K, int64_t P, int64_t m,
                       const int64_t *lengths, const int64_t *gss,
                       const int64_t *acc_index, int64_t n_acc)
{
    int64_t p = 0;
    for (int64_t k = 0; k < K; k++) {
        if (lengths[k] < 0 || lengths[k] > P - p)
            return 0;
        p += lengths[k];
    }
    if (p != P)
        return 0;
    for (p = 0; p < P; p++)
        if (gss[p] < 0 || gss[p] >= m
                || (acc_index && (acc_index[p] < 0 || acc_index[p] >= n_acc)))
            return 0;
    return 1;
}

/*
 * Reverse pass over the forward's per-pair state (P pairs), from the five
 * back-to-front suffix sums; d_color is (K, 3).  Two modes:
 *
 *   - per pair (NULL acc_index): dL/dα into d_alpha, the falloff value
 *     g = α/o into g_out, and the direct colour (three contiguous (P,)
 *     columns of d_color_out, or NULL to skip them) and depth partials.
 *     The caller reverses its own falloff.
 *   - aggregating: the isotropic falloff α = o·exp(-d²/2σ²) is reversed
 *     too, and each pair's partials are added into accumulator
 *     acc_index[p] of n_acc: acc_mean ((n_acc, 2)), acc_sigma,
 *     acc_opacity, acc_color ((n_acc, 3)) and acc_depth, row-major; a
 *     NULL acc_opacity or acc_color (pose-only) is skipped.  centres and
 *     mean2d are row-major (u, v) pairs per pixel and per projected
 *     Gaussian.  A pixel's partials are added front to back once its
 *     back-to-front walk is done, so every accumulator takes its adds in
 *     pair order, as np.add.at does.  The per-pair outputs are unused.
 *
 * Nothing is written when the inputs are rejected.
 */
int composite_reverse(
    int64_t K, int64_t P, int64_t m, int64_t n_acc, const int64_t *lengths,
    const int64_t *gss,
    const double *gamma, const double *alpha, const uint8_t *contrib,
    const uint8_t *clipped, const double *gamma_end,
    const double *gamma_final, const double *background,
    const double *color, const double *depth, const double *opacity,
    const double *d_color, const double *d_depth, const double *d_sil,
    double *d_alpha, double *g_out, double *d_color_out, double *d_depth_out,
    const double *centres, const double *mean2d, const double *sigma2d,
    const int64_t *acc_index, double *acc_mean, double *acc_sigma,
    double *acc_opacity, double *acc_color, double *acc_depth)
{
    if (!valid_pairs(K, P, m, lengths, gss, acc_index, n_acc))
        return -1;
    const int64_t lmax = longest(K, lengths);
    double *part = NULL;
    if (acc_index
            && !(part = malloc(NPART * (size_t)(lmax + 1) * sizeof(double))))
        return -2;
    int64_t start = 0;
    for (int64_t k = 0; k < K; k++) {
        const int64_t n = lengths[k];
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
            if (!acc_index) {
                d_alpha[p] = da;
                g_out[p] = g;
                if (d_color_out)
                    for (int i = 0; i < 3; i++)
                        d_color_out[i * P + p] = w * dc[i];
                d_depth_out[p] = w * d_depth[k];
                continue;
            }
            const double sig = sigma2d[j];
            const double inv_var = 1.0 / (sig * sig);
            const double dgg = (da * o) * g;
            const double du = centres[2 * k] - mean2d[2 * j];
            const double dv = centres[2 * k + 1] - mean2d[2 * j + 1];
            double *q = part + NPART * s;
            q[0] = dgg * du * inv_var;
            q[1] = dgg * dv * inv_var;
            q[2] = dgg * (du * du + dv * dv) * (inv_var / sig);
            q[3] = da * g;
            for (int i = 0; i < 3; i++)
                q[4 + i] = w * dc[i];
            q[7] = w * d_depth[k];
        }
        for (int64_t s = 0; part && s < n; s++) {
            const double *q = part + NPART * s;
            const int64_t i = acc_index[start + s];
            acc_mean[2 * i] += q[0];
            acc_mean[2 * i + 1] += q[1];
            acc_sigma[i] += q[2];
            if (acc_opacity)
                acc_opacity[i] += q[3];
            if (acc_color)
                for (int c = 0; c < 3; c++)
                    acc_color[3 * i + c] += q[4 + c];
            acc_depth[i] += q[7];
        }
        start += n;
    }
    free(part);
    return 0;
}

/*
 * Pose-only re-projection: the camera-twist gradient of M projected
 * Gaussians, from their camera-frame centres p_cam (row-major), the
 * scales they were projected with and their splat gradients d_mean2d
 * (row-major (du, dv)), d_sigma2d and d_depth.  Per Gaussian, the
 * camera-frame gradient d = (dx, dy, dz) is formed term for term as
 * reproject_gradients forms it in numpy; then each product J[i][j]*d[i]
 * of the twist Jacobian J = [-I | hat(p_cam)] (point_jacobian_wrt_twist,
 * its zeros included: 0*inf is NaN) is added onto twist[j] from +0.0,
 * Gaussian by Gaussian and row by row: the sum np.einsum("mij,mi->j")
 * takes.
 */
void reproject_twist(
    int64_t M, const double *p_cam, const double *scale,
    const double *d_mean2d, const double *d_sigma2d, const double *d_depth,
    double fx, double fy, double mean_focal, double *twist)
{
    for (int j = 0; j < 6; j++)
        twist[j] = 0.0;
    for (int64_t m = 0; m < M; m++) {
        const double x = p_cam[3 * m], y = p_cam[3 * m + 1],
                     z = p_cam[3 * m + 2];
        const double du = d_mean2d[2 * m], dv = d_mean2d[2 * m + 1];
        const double zz = z * z;
        const double d[3] = {
            du * fx / z,
            dv * fy / z,
            -du * fx * x / zz - dv * fy * y / zz
                - d_sigma2d[m] * mean_focal * scale[m] / zz + d_depth[m]};
        const double J[3][6] = {{-1.0, 0.0, 0.0, 0.0, -z, y},
                                {0.0, -1.0, 0.0, z, 0.0, -x},
                                {0.0, 0.0, -1.0, -y, x, 0.0}};
        for (int i = 0; i < 3; i++)
            for (int j = 0; j < 6; j++)
                twist[j] = twist[j] + J[i][j] * d[i];
    }
}
