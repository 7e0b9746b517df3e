/* The native body of simcol: the proposal loop of
 * simcol.dynamics.run_chain and the candidate shuffle and greedy fills of
 * simcol.graphs.random_graph_pair, compiled into one library.
 *
 * One function runs both chains (Glauber is the flip chain at p = (1,)).
 * It advances CPython's MT19937 state in place and makes exactly the
 * draws the Python loop makes: v and c from one 32-bit word shifted
 * right by 32 - bits, redrawn while out of range (getrandbits and
 * randrange for bits <= 32), and a uniform from two words,
 * ((a >> 5) * 2^26 + (b >> 6)) / 2^53, drawn only when 0 <= cut[s] < 1
 * (random.random()).  The walk, the tallies and the final state are
 * therefore those of the Python loop, which stays the reference.  The
 * shuffle draws its swap slots the same way, as random.shuffle does, so
 * the generator's pairs and final RNG state are those of its Python body.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

/* genrand_uint32 of CPython's Modules/_randommodule.c */
static uint32_t mt_word(uint32_t *mt, int32_t *index)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *index = 0;
    }
    y = mt[(*index)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* randrange(n) for 1 <= n < 2^31: getrandbits(bits) redrawn while >= n */
static int32_t mt_below(uint32_t *mt, int32_t *index, int32_t n, int bits)
{
    uint32_t r;
    do {
        r = mt_word(mt, index) >> (32 - bits);
    } while (r >= (uint32_t)n);
    return (int32_t)r;
}

/* random.random(): 53 bits from two words, the first drawn first */
static double uniform(uint32_t *mt, int32_t *index)
{
    uint32_t a = mt_word(mt, index) >> 5;
    uint32_t b = mt_word(mt, index) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int bit_length(int32_t n)
{
    int bits = 0;
    while (n) {
        bits++;
        n >>= 1;
    }
    return bits;
}

/* Advance assign (m vertices, colors 1..k, neighbors of v at
 * indices[indptr[v]:indptr[v + 1]]) by steps proposals at locality L.
 * cut has L + 1 entries; counts[s] (L + 1 entries) gains the accepted
 * flips of size s and *rejected the proposals declined by cut[s].
 * mt is the 624-word state and *index its position.  Returns 0, or -1
 * if the work arrays could not be allocated (nothing is then changed).
 */
int simcol_run_chain(int32_t m, const int32_t *indptr, const int32_t *indices,
                     int32_t *assign, int32_t k, int64_t steps,
                     int32_t locality, const double *cut,
                     uint32_t *mt, int32_t *index,
                     int64_t *counts, int64_t *rejected)
{
    int mbits = bit_length(m), kbits = bit_length(k);
    int32_t *members = malloc((size_t)locality * sizeof *members);
    uint32_t *seen = calloc((size_t)m, sizeof *seen);
    uint32_t stamp = 0;
    int64_t step;
    if (!members || !seen) {
        free(members);
        free(seen);
        return -1;
    }
    for (step = 0; step < steps; step++) {
        int32_t v = mt_below(mt, index, m, mbits);
        int32_t c = mt_below(mt, index, k, kbits) + 1;
        int32_t a = assign[v], s, i, j;
        double q;
        for (j = indptr[v]; j < indptr[v + 1]; j++)
            if (assign[indices[j]] == c)
                break;
        if (j == indptr[v + 1]) {
            /* no neighbor holds c, so the component is {v}; p_1 = 1
             * accepts it without a uniform draw */
            assign[v] = c;
            counts[1]++;
            continue;
        }
        if (locality == 1 && a != c)
            continue; /* the neighbor holding c is past locality 1 */
        members[0] = v;
        s = 1;
        if (a != c) {
            /* v's alternating component between a and c, stamped in
             * place of a seen set, given up once it outgrows L */
            if (++stamp == 0) {
                memset(seen, 0, (size_t)m * sizeof *seen);
                stamp = 1;
            }
            seen[v] = stamp;
            for (i = 0; i < s && s <= locality; i++) {
                int32_t u = members[i];
                int32_t want = assign[u] == a ? c : a;
                for (j = indptr[u]; j < indptr[u + 1]; j++) {
                    int32_t w = indices[j];
                    if (assign[w] != want || seen[w] == stamp)
                        continue;
                    seen[w] = stamp;
                    if (s == locality) {
                        s++;
                        break;
                    }
                    members[s++] = w;
                }
            }
            if (s > locality)
                continue;
        }
        q = cut[s];
        if (q < 0.0 || (q < 1.0 && uniform(mt, index) > q)) {
            ++*rejected;
            continue;
        }
        for (i = 0; i < s; i++) {
            int32_t u = members[i];
            assign[u] = assign[u] == a ? c : a;
        }
        counts[s]++;
    }
    free(members);
    free(seen);
    return 0;
}

/* The candidate edges (u, v), 1 <= u < v <= n, as the codes
 * u * (n + 1) + v in lexicographic order, written to codes (n(n - 1)/2
 * entries, fewer than 2^31) and shuffled in place by random.shuffle's
 * Fisher-Yates: slot i, from the last down to 1, swaps with
 * randrange(i + 1).  mt and *index are as in simcol_run_chain.
 */
void simcol_shuffled_candidates(int32_t n, int64_t *codes, uint32_t *mt, int32_t *index)
{
    int64_t size = 0, i;
    int32_t u, v;
    int bits;
    for (u = 1; u < n; u++)
        for (v = u + 1; v <= n; v++)
            codes[size++] = (int64_t)u * (n + 1) + v;
    bits = bit_length((int32_t)size);
    for (i = size - 1; i > 0; i--) {
        int64_t j, t;
        if ((i + 1) >> (bits - 1) == 0)
            bits--; /* bits stays the bit length of i + 1 */
        j = mt_below(mt, index, (int32_t)(i + 1), bits);
        t = codes[i];
        codes[i] = codes[j];
        codes[j] = t;
    }
}

/* Scan codes[0..size) in order and take each code u * (n + 1) + v whose
 * endpoints both have deg below delta, until limit are taken.  A taken
 * code goes to out (room for limit entries), adds one to deg[u] and
 * deg[v], and is marked taken in codes by its sign; codes an earlier
 * fill took are skipped.  Returns the number taken.
 */
int64_t simcol_greedy_fill(int32_t n, int64_t *codes, int64_t size, int32_t delta,
                           int32_t *deg, int64_t limit, int64_t *out)
{
    int64_t i, taken = 0;
    for (i = 0; i < size && taken < limit; i++) {
        int64_t code = codes[i];
        int32_t u, v;
        if (code < 0)
            continue; /* taken by an earlier fill */
        u = (int32_t)(code / (n + 1));
        v = (int32_t)(code % (n + 1));
        if (deg[u] < delta && deg[v] < delta) {
            deg[u]++;
            deg[v]++;
            out[taken++] = code;
            codes[i] = -code;
        }
    }
    return taken;
}
