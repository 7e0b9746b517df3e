/* The native body of simcol: the proposal loop of
 * simcol.dynamics.run_chain, the adjacent-pair sampler of
 * simcol.coupling.sample_adjacent_pairs, and the candidate shuffle and
 * greedy fills of simcol.graphs.random_graph_pair, compiled into one
 * library.
 *
 * Every draw goes through one reader of CPython's MT19937 state: on each
 * twist it tempers all 624 words into a buffer, and each exported
 * function keeps the reader, its position included, in a local variable
 * until it hands the position back.  The draws are exactly those of the
 * Python bodies: an integer below n from one 32-bit word shifted right
 * by 32 - bits, redrawn while out of range (getrandbits and randrange
 * for bits <= 32), and a uniform from two words,
 * ((a >> 5) * 2^26 + (b >> 6)) / 2^53 (random.random()).
 *
 * One walk runs both chains (Glauber is the flip chain at p = (1,)),
 * drawing the uniform only when 0 <= cut[s] < 1.  The walk, the tallies
 * and the final state are therefore those of the Python loop, which
 * stays the reference.  The pair sampler walks the same way and draws
 * its perturbation as the Python sampler does; the shuffles draw their
 * swap slots as random.shuffle does.  The pairs, the generator's pairs
 * and the final RNG states are those of the Python bodies.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

/* CPython's MT19937 state and its words tempered; the position of the
 * next word is kept apart, in a local variable of the reader's user */
struct mt_reader {
    uint32_t *mt;
    uint32_t words[MT_N];
};

/* the tempering of genrand_uint32 in CPython's Modules/_randommodule.c,
 * applied to all 624 words of mt at once */
static void temper(uint32_t *words, const uint32_t *mt)
{
    int i;
    for (i = 0; i < MT_N; i++) {
        uint32_t y = mt[i];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= (y >> 18);
        words[i] = y;
    }
}

/* the twist of genrand_uint32, in place */
static void twist(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
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
}

/* A reader of the 624-word state mt */
static void reader_open(struct mt_reader *r, uint32_t *mt)
{
    r->mt = mt;
    temper(r->words, mt);
}

/* genrand_uint32: the word at *at, twisting the state when all are read */
static inline uint32_t mt_word(struct mt_reader *r, int32_t *at)
{
    if (*at >= MT_N) {
        twist(r->mt);
        temper(r->words, r->mt);
        *at = 0;
    }
    return r->words[(*at)++];
}

/* randrange(n) for 1 <= n < 2^31: getrandbits(bits) redrawn while >= n */
static inline int32_t mt_below(struct mt_reader *r, int32_t *at, int32_t n, int bits)
{
    uint32_t x;
    do {
        x = mt_word(r, at) >> (32 - bits);
    } while (x >= (uint32_t)n);
    return (int32_t)x;
}

/* random.random(): 53 bits from two words, the first drawn first */
static inline double uniform(struct mt_reader *r, int32_t *at)
{
    uint32_t a = mt_word(r, at) >> 5;
    uint32_t b = mt_word(r, at) >> 6;
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

/* A flip chain on assign (m vertices, colors 1..k, neighbors of v at
 * indices[indptr[v]:indptr[v + 1]]) at locality L, with its acceptance
 * cuts cut[s] (L + 1 entries), its work arrays (members, L entries; seen,
 * m stamps) and its tallies: counts[s] (L + 1 entries) the accepted flips
 * of size s, *rejected the proposals cut[s] declined.
 */
struct chain {
    int32_t m, k, locality;
    const int32_t *indptr, *indices;
    int32_t *assign;
    const double *cut;
    int32_t *members;
    uint32_t *seen, stamp;
    int64_t *counts, *rejected;
};

/* Work arrays for c; 0, or -1 (none kept) if they could not be allocated */
static int chain_open(struct chain *c)
{
    c->members = malloc((size_t)c->locality * sizeof *c->members);
    c->seen = calloc((size_t)c->m, sizeof *c->seen);
    c->stamp = 0;
    if (!c->members || !c->seen) {
        free(c->members);
        free(c->seen);
        return -1;
    }
    return 0;
}

static void chain_close(struct chain *c)
{
    free(c->members);
    free(c->seen);
}

/* Advance the chain by steps proposals drawn from r at position at;
 * returns the position after them */
static int32_t walk(struct chain *ch, struct mt_reader *r, int32_t at, int64_t steps)
{
    const int32_t m = ch->m, k = ch->k, locality = ch->locality;
    const int32_t *indptr = ch->indptr, *indices = ch->indices;
    int32_t *assign = ch->assign, *members = ch->members;
    uint32_t *seen = ch->seen, stamp = ch->stamp;
    const double *cut = ch->cut;
    int64_t *counts = ch->counts, rejected = 0, step;
    int mbits = bit_length(m), kbits = bit_length(k);
    for (step = 0; step < steps; step++) {
        int32_t v = mt_below(r, &at, m, mbits);
        int32_t c = mt_below(r, &at, k, kbits) + 1;
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
        if (q < 0.0 || (q < 1.0 && uniform(r, &at) > q)) {
            rejected++;
            continue;
        }
        for (i = 0; i < s; i++) {
            int32_t u = members[i];
            assign[u] = assign[u] == a ? c : a;
        }
        counts[s]++;
    }
    ch->stamp = stamp;
    *ch->rejected += rejected;
    return at;
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
    struct chain ch = {m, k, locality, indptr, indices, assign, cut,
                       NULL, NULL, 0, counts, rejected};
    struct mt_reader r;
    if (chain_open(&ch))
        return -1;
    reader_open(&r, mt);
    *index = walk(&ch, &r, *index, steps);
    chain_close(&ch);
    return 0;
}

/* Walk the chain of simcol_run_chain at assign lead proposals, then
 * sample count adjacent pairs from it, gap proposals apart.  Each pair is
 * the Fisher-Yates of random.shuffle over order = 0..m-1 (slot i,
 * from m - 1 down to 1, swaps with randrange(i + 1)), and
 * randrange(free) picking the new color of v = order[0] among the free
 * colors, those neither v nor a neighbor holds, in increasing order.
 * Pair p writes assign to colorings[p * m ..] (count * m entries), v to
 * vstars[p] and the new color to colors[p].  mt and *index are as in
 * simcol_run_chain.  Returns 0; -1 if the work arrays could not be
 * allocated (nothing is then changed); -2 if a vertex had no free color
 * (assign and the state stand at that pair's draws).
 */
int simcol_sample_pairs(int32_t m, const int32_t *indptr, const int32_t *indices,
                        int32_t *assign, int32_t k, int32_t locality, const double *cut,
                        int64_t lead, int64_t gap, int32_t count,
                        uint32_t *mt, int32_t *index,
                        int32_t *colorings, int32_t *vstars, int32_t *colors)
{
    int64_t rejected = 0;
    int64_t *counts = calloc((size_t)locality + 1, sizeof *counts);
    struct chain ch = {m, k, locality, indptr, indices, assign, cut,
                       NULL, NULL, 0, counts, &rejected};
    struct mt_reader r;
    int32_t *order = malloc((size_t)m * sizeof *order);
    int32_t *taken = malloc((size_t)m * sizeof *taken); /* v's color, its neighbors' */
    int32_t p, at = *index, status = 0;
    if (!counts || !order || !taken || chain_open(&ch)) {
        free(counts);
        free(order);
        free(taken);
        return -1;
    }
    reader_open(&r, mt);
    at = walk(&ch, &r, at, lead);
    for (p = 0; p < count; p++) {
        int32_t i, j, v, n, free_colors, c;
        int bits;
        if (p)
            at = walk(&ch, &r, at, gap);
        for (i = 0; i < m; i++)
            order[i] = i;
        bits = bit_length(m);
        for (i = m - 1; i > 0; i--) {
            int32_t t;
            if ((i + 1) >> (bits - 1) == 0)
                bits--; /* bits stays the bit length of i + 1 */
            j = mt_below(&r, &at, i + 1, bits);
            t = order[i];
            order[i] = order[j];
            order[j] = t;
        }
        v = order[0];
        /* the distinct colors v and its neighbors hold, sorted */
        taken[0] = assign[v];
        n = 1;
        for (j = indptr[v]; j < indptr[v + 1]; j++) {
            int32_t t = assign[indices[j]];
            for (i = n; i > 0 && taken[i - 1] > t; i--)
                ;
            if (i > 0 && taken[i - 1] == t)
                continue;
            memmove(taken + i + 1, taken + i, (size_t)(n - i) * sizeof *taken);
            taken[i] = t;
            n++;
        }
        free_colors = k - n;
        if (free_colors < 1) {
            status = -2;
            break;
        }
        /* the free color of rank randrange(free_colors) */
        c = mt_below(&r, &at, free_colors, bit_length(free_colors)) + 1;
        for (i = 0; i < n && taken[i] <= c; i++)
            c++;
        memcpy(colorings + (int64_t)p * m, assign, (size_t)m * sizeof *assign);
        vstars[p] = v;
        colors[p] = c;
    }
    *index = at;
    chain_close(&ch);
    free(counts);
    free(order);
    free(taken);
    return status;
}

/* The candidate edges (u, v), 1 <= u < v <= n, as the codes
 * u * (n + 1) + v in lexicographic order, written to codes (n(n - 1)/2
 * entries, fewer than 2^31) and shuffled in place by random.shuffle's
 * Fisher-Yates: slot i, from the last down to 1, swaps with
 * randrange(i + 1).  mt and *index are as in simcol_run_chain.
 */
void simcol_shuffled_candidates(int32_t n, int64_t *codes, uint32_t *mt, int32_t *index)
{
    struct mt_reader r;
    int64_t size = 0, i;
    int32_t u, v, at = *index;
    int bits;
    for (u = 1; u < n; u++)
        for (v = u + 1; v <= n; v++)
            codes[size++] = (int64_t)u * (n + 1) + v;
    reader_open(&r, mt);
    bits = bit_length((int32_t)size);
    for (i = size - 1; i > 0; i--) {
        int64_t j, t;
        if ((i + 1) >> (bits - 1) == 0)
            bits--; /* bits stays the bit length of i + 1 */
        j = mt_below(&r, &at, (int32_t)(i + 1), bits);
        t = codes[i];
        codes[i] = codes[j];
        codes[j] = t;
    }
    *index = at;
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
