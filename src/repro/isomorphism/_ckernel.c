/* Native kernel: graph compilation (one call per graph and role),
 * verification (one call per query), path-feature extraction (one call per
 * graph) and the cache-side probe (one filter call and at most one
 * containment call per query and direction).
 *
 * `ck_verify_many` answers every (pattern, target) pair of one query in a
 * single ctypes call (`match_pairs` in src/repro/isomorphism/compiled.py),
 * in candidate order, with the interpreter lock released once.  It is the
 * only verification kernel; the pure-Python bigint kernel it was
 * transliterated from is its oracle in tests/kernel_oracle.py.  Per pair:
 *
 *   1. the signature prereject — vertex/edge counts, label histogram and
 *      per-label degree dominance (`prereject` in the oracle);
 *   2. the VF2 depth-first search on uint64 word arrays, the oracle's
 *      `bigint_has_embedding` on Python int bitmasks: identical matching
 *      order, identical ascending candidate order, identical degree /
 *      look-ahead / region predicates evaluated against the identical
 *      `used` state;
 *   3. with `by_component`, Grapes' component-restricted verification:
 *      the pair's region is the target's vertices that carry a label of
 *      the pattern (the OR of the target's `label_members` rows over the
 *      plan's `sig_labels`, which equals Grapes' location union, see
 *      `GrapesMethod.verify` in src/repro/methods/grapes.py) -> connected
 *      components -> (-size,
 *      rank) order -> size and edge-count pre-checks -> one counted test
 *      per surviving component -> stop at the first match (the oracle's
 *      `match_by_component`).
 *
 * Flags and per-pair test counts are therefore byte-identical to the
 * oracle's on every input, which is what the repository's accounting
 * contract (the paper's Figs. 7-11 count isomorphism tests) requires.
 *
 * `ck_path_features` enumerates the simple paths of one graph (the GGSX /
 * Grapes / Isub / Isuper feature class) and returns the distinct features
 * as 60-bit feature codes with their occurrence counts.  `path_features` +
 * `path_code` in src/repro/features/paths.py are the Python oracle it is
 * tested against and the route for graphs whose paths do not fit a
 * graph-local code (more than 255 labels or 7 edges).  `ck_path_coverage`
 * walks the same paths once more and returns one number, the vertices the
 * occurrences of each key cover summed over the keys: what Grapes'
 * location lists would hold (Fig. 18's byte count, `path_coverage` in
 * paths.py).
 *
 * The file is deliberately dependency-free C99 so it can be built two ways:
 *
 *   1. by setuptools as an extension module (setup.py defines
 *      CKERNEL_PYMODULE and links against Python for the no-op PyInit);
 *   2. by the loader's runtime compile (`_ckernel_loader.py`) with nothing
 *      but `cc -O3 -shared -fPIC` — no Python headers required; all entry
 *      points use a plain C ABI consumed through ctypes.
 *
 * `ck_table_*` / `ck_probe_filter` / `ck_probe_verify` are the iGQ component
 * indexes' probe: a slot-aligned table of the cached queries' feature codes,
 * sizes and compiled forms, filtered by sorted-merge dominance and verified
 * with the same prereject + search as every other pair.  `ck_mask_sums` adds
 * up the section 5.1 credits of one query's hits.  The Python loops they
 * replace (`isub_candidate_ids`, `isuper_candidate_ids` and `mask_sums` in
 * tests/kernel_oracle.py) are the oracles of tests/test_native_probe.py.
 *
 * Data layout, ABI 10 (ABI 6's layout; 7 dropped `ck_probe_filter`'s
 * `universe` argument, 8 made `ck_verify_many`'s `by_component` mode
 * compute its regions instead of reading them, 9 made `ck_path_features`
 * return hashed feature codes, 10 dropped its location rows and added
 * `ck_path_coverage`).  A `ck_target` /
 * `ck_plan` is built once per graph and role by `ck_compile_target` /
 * `ck_compile_plan` (new in ABI 5) from the graph's CSR — vertex positions
 * in `graph.vertices()` order, neighbours in `neighbors()` order, per
 * vertex its interned label id and its rank in the repr order of the
 * vertex ids; `FlatGraph` in compiled.py — as one malloc'd block that
 * Python owns and releases with `ck_free`.
 * `marshal_target` / `marshal_plan` in tests/kernel_oracle.py build the same
 * structs from the bigint state: the oracle the two entry points are tested
 * against.
 *
 *
 *   - adjacency:      n x num_words row-major uint64 neighbour bitsets;
 *   - label_members:  num_labels x num_words uint64 bitsets (the vertices
 *                     carrying each label — the unanchored candidate base);
 *   - ladj_*:         CSR label-partitioned adjacency: for vertex v the
 *                     entries [ladj_indptr[v], ladj_indptr[v+1]) name the
 *                     distinct labels of v's neighbourhood (ascending local
 *                     label row) and each entry carries a num_words bitset
 *                     of v's neighbours with that label (the anchored
 *                     candidate base: candidates = AND of the anchors' rows);
 *   - label_map:      labels are interned once per process (append-only
 *                     ids) and a target numbers its own by first appearance
 *                     over the vertex positions; label_map[id] is that
 *                     local label row, -1 when the target lacks the label,
 *                     and an id at or beyond label_map_len (the target's
 *                     largest id + 1) is one it lacks too;
 *   - ranks:          per vertex, its rank in the repr order of the vertex
 *                     ids — components of equal size are visited by
 *                     ascending smallest rank;
 *   - sig_*:          per local label row the descending degree list of its
 *                     vertices (the row length is the label's histogram
 *                     count); on the plan the same lists keyed by interned
 *                     label id;
 *   - step_labels:    the plan's per-step interned label id (the plan owns
 *                     them: nothing is marshalled per pair);
 *   - regions:        optional vertex masks, one row of the pair's target
 *                     width per pair, back to back (NULL = unmasked); each
 *                     restricts the pair's one test.  `by_component` takes
 *                     none: it builds each pair's region in a per-call
 *                     buffer sized to the widest target.
 *
 * Bits at positions >= n in the last word are never set by any of the
 * above, so word-wise AND chains never need a trailing-word trim.
 *
 * `ck_path_features` (marshalled per graph by `native_path_features` in
 * src/repro/features/paths.py; `ck_path_coverage` takes the same first five
 * arguments):
 *
 *   - offsets / neighbours: CSR adjacency over the vertex positions of
 *                     `graph.vertices()` (offsets has n + 1 entries);
 *   - ranks:          per vertex, the rank of `str(label)` among the
 *                     graph's distinct label strings in ascending order;
 *                     the caller guarantees fewer than 256 of them and
 *                     max_length <= 7, and falls back to Python otherwise;
 *   - local code:     one uint64 per canonical label sequence of the graph:
 *                     element i is stored as rank + 1 in byte i counted
 *                     from the most significant end, unused bytes are 0, so
 *                     comparing two codes as integers compares the
 *                     label-string tuples they stand for.  The canonical
 *                     direction of a path and the deduplication of its
 *                     occurrences are decided on these codes, so the keys
 *                     stay those of `canonical_path_key`;
 *   - label_hashes:   per rank the label's 64-bit BLAKE2 hash
 *                     (`label_hash` in paths.py);
 *   - feature code:   a local code's labels folded in path order,
 *                     code = mix(code ^ label_hash) from CK_PATH_SEED, mix
 *                     the splitmix64 finaliser, and its top 60 bits kept
 *                     (`path_code` in paths.py): a pure function of the
 *                     key, equal in every process.
 *                     Two keys of one graph may hash alike; their features
 *                     then merge (counts add up), which only widens a
 *                     filter;
 *   - result block:   malloc'd, released with `ck_free`: word 0 holds the
 *                     number of distinct feature codes D, then the D
 *                     (feature code, count) pairs, code ascending (up to
 *                     ABI 8 the codes spelt labels with a process-wide byte
 *                     table; up to ABI 9 D vertex-mask rows followed);
 *   - coverage:       per graph-local code, a ceil(n / 64)-word mask row of
 *                     the vertex positions its occurrences cover, OR-ed on
 *                     a second walk into scratch freed before the return;
 *                     the result is the rows' total popcount.  It is per
 *                     key: colliding feature codes do not shrink it.
 *
 * The probe table (new in ABI 4; driven by `ProbeTable` in
 * src/repro/core/probe.py):
 *
 *   - one row per slot of the owning index's `DensePositions`: the entry's
 *     id, vertex and edge counts, its (feature code, count) pairs — a
 *     malloc'd copy, code ascending — and the address of its compiled form:
 *     a `ck_target` when the entries play the target role (`Isub`), a
 *     `ck_plan` when they play the pattern role (`Isuper`).  The
 *     compiled form belongs to Python, which keeps it alive until the row
 *     is cleared;
 *   - a probe reads the table and writes only its caller's output buffers,
 *     so it needs no scratch of its own; `set` / `clear` / probe of one
 *     table are serialised by the caller (they are driver-thread operations).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The ABI version is checked by the loader after dlopen so a stale build
 * of an older layout can never be driven with new-layout pointers.  Bump
 * it whenever a struct or signature below changes. */
#define CK_ABI_VERSION 10

#if defined(_WIN32)
#define CK_EXPORT __declspec(dllexport)
#else
#define CK_EXPORT __attribute__((visibility("default")))
#endif

#if defined(__GNUC__) || defined(__clang__)
static inline int ck_ctz64(uint64_t word) { return __builtin_ctzll(word); }
static inline int ck_popcount64(uint64_t word) { return __builtin_popcountll(word); }
#else
static inline int ck_ctz64(uint64_t word) {
    int count = 0;
    while (!(word & 1u)) { word >>= 1; ++count; }
    return count;
}
static inline int ck_popcount64(uint64_t word) {
    int count = 0;
    while (word) { word &= word - 1; ++count; }
    return count;
}
#endif

typedef struct {
    int64_t n;              /* number of target vertices                  */
    int64_t num_words;      /* uint64 words per bitset row                */
    int64_t num_labels;     /* size of the target's label universe        */
    int64_t num_edges;
    int64_t label_map_len;
    const uint64_t *adjacency;     /* n * num_words                       */
    const uint64_t *label_members; /* num_labels * num_words              */
    const uint64_t *ladj_words;    /* ladj_indptr[n] * num_words bitsets  */
    const int64_t *degrees;        /* n                                   */
    const int64_t *ladj_indptr;    /* n + 1 (entry offsets)               */
    const int64_t *ladj_labels;    /* ladj_indptr[n] local label rows     */
    const int64_t *label_map;      /* label_map_len: interned id -> row   */
    const int64_t *ranks;          /* n                                   */
    const int64_t *sig_indptr;     /* num_labels + 1                      */
    const int64_t *sig_degrees;    /* n: descending degrees per label row */
} ck_target;

typedef struct {
    int64_t num_steps;
    int64_t num_edges;
    int64_t num_sig_labels;        /* distinct labels of the pattern      */
    const int64_t *min_degrees;    /* num_steps                           */
    const int64_t *lookaheads;     /* num_steps                           */
    const int64_t *step_labels;    /* num_steps interned label ids        */
    const int64_t *anchor_indptr;  /* num_steps + 1                       */
    const int64_t *anchors;        /* anchor_indptr[num_steps] positions  */
    const int64_t *sig_labels;     /* num_sig_labels interned label ids   */
    const int64_t *sig_indptr;     /* num_sig_labels + 1                  */
    const int64_t *sig_degrees;    /* num_steps: descending per label     */
} ck_plan;

CK_EXPORT int64_t ck_abi_version(void) { return CK_ABI_VERSION; }

/* The target's local row of an interned label id, -1 when it lacks it. */
static inline int64_t
ck_local_label(const ck_target *t, int64_t label)
{
    return label < t->label_map_len ? t->label_map[label] : -1;
}

static inline int64_t
ck_popcount_row(const uint64_t *row, int64_t W)
{
    int64_t count = 0;
    for (int64_t w = 0; w < W; ++w)
        count += ck_popcount64(row[w]);
    return count;
}

/* Row of v's label-partitioned adjacency for `label`, or NULL when no
 * neighbour of v carries the label (the oracle's `.get(label, 0)`). */
static inline const uint64_t *
ck_label_row(const ck_target *t, int64_t vertex, int64_t label)
{
    int64_t lo = t->ladj_indptr[vertex];
    int64_t hi = t->ladj_indptr[vertex + 1];
    for (int64_t k = lo; k < hi; ++k) {
        int64_t entry = t->ladj_labels[k];
        if (entry == label)
            return t->ladj_words + k * t->num_words;
        if (entry > label)  /* entries are ascending */
            break;
    }
    return NULL;
}

/* The oracle's `prereject`: 1 when cheap invariants already prove the
 * pattern cannot embed into the (whole) target. */
static int
ck_prereject(const ck_target *t, const ck_plan *p)
{
    if (p->num_steps > t->n || p->num_edges > t->num_edges)
        return 1;
    for (int64_t j = 0; j < p->num_sig_labels; ++j) {
        const int64_t row = ck_local_label(t, p->sig_labels[j]);
        if (row < 0)
            return 1;
        const int64_t *wanted = p->sig_degrees + p->sig_indptr[j];
        const int64_t needed = p->sig_indptr[j + 1] - p->sig_indptr[j];
        const int64_t *have = t->sig_degrees + t->sig_indptr[row];
        if (t->sig_indptr[row + 1] - t->sig_indptr[row] < needed)
            return 1;
        for (int64_t k = 0; k < needed; ++k)
            if (wanted[k] > have[k])
                return 1;
    }
    return 0;
}

/* True iff the plan's pattern (at least one step) embeds into the target
 * (image inside `region` when region is non-NULL).  Returns 1 / 0, or -1
 * on allocation failure. */
static int64_t
ck_has_embedding(const ck_target *t, const ck_plan *p, const uint64_t *region)
{
    const int64_t W = t->num_words;
    const int64_t depth_count = p->num_steps;

    /* Stack buffers cover every realistic plan/target; spill to malloc
     * beyond them.  Layout: pending masks (depth_count * W), used (W),
     * scratch candidate words are the pending row itself. */
    uint64_t stack_words[2048];
    int64_t stack_meta[256];
    uint64_t *words = stack_words;
    int64_t *meta = stack_meta;
    int64_t want_words = (depth_count + 1) * W;
    int64_t want_meta = 4 * depth_count;
    if (want_words > (int64_t)(sizeof(stack_words) / sizeof(uint64_t))) {
        words = (uint64_t *)malloc((size_t)want_words * sizeof(uint64_t));
        if (words == NULL)
            return -1;
    }
    if (want_meta > (int64_t)(sizeof(stack_meta) / sizeof(int64_t))) {
        meta = (int64_t *)malloc((size_t)want_meta * sizeof(int64_t));
        if (meta == NULL) {
            if (words != stack_words)
                free(words);
            return -1;
        }
    }
    uint64_t *pending = words;                     /* depth_count * W */
    uint64_t *used = words + depth_count * W;      /* W               */
    int64_t *images = meta;                        /* depth_count     */
    int64_t *image_words = meta + depth_count;     /* word index      */
    int64_t *image_bits = meta + 2 * depth_count;  /* bit index       */
    int64_t *labels = meta + 3 * depth_count;      /* local label row */
    memset(used, 0, (size_t)W * sizeof(uint64_t));
    for (int64_t d = 0; d < depth_count; ++d)
        labels[d] = ck_local_label(t, p->step_labels[d]);

    int64_t depth = 0;
    int advancing = 1;
    int64_t result = 0;

    for (;;) {
        const int64_t label = labels[depth];
        const int64_t min_degree = p->min_degrees[depth];
        const int64_t lookahead = p->lookaheads[depth];
        uint64_t *candidates = pending + depth * W;

        if (advancing) {
            const int64_t anchor_lo = p->anchor_indptr[depth];
            const int64_t anchor_hi = p->anchor_indptr[depth + 1];
            if (label < 0) {
                /* Label absent from the target: empty base. */
                memset(candidates, 0, (size_t)W * sizeof(uint64_t));
            } else if (anchor_lo < anchor_hi) {
                const uint64_t *row =
                    ck_label_row(t, images[p->anchors[anchor_lo]], label);
                if (row == NULL) {
                    memset(candidates, 0, (size_t)W * sizeof(uint64_t));
                } else {
                    memcpy(candidates, row, (size_t)W * sizeof(uint64_t));
                    for (int64_t a = anchor_lo + 1; a < anchor_hi; ++a) {
                        const uint64_t *other =
                            ck_label_row(t, images[p->anchors[a]], label);
                        if (other == NULL) {
                            memset(candidates, 0, (size_t)W * sizeof(uint64_t));
                            break;
                        }
                        uint64_t any = 0;
                        for (int64_t w = 0; w < W; ++w) {
                            candidates[w] &= other[w];
                            any |= candidates[w];
                        }
                        if (!any)
                            break;
                    }
                }
            } else {
                memcpy(candidates, t->label_members + label * W,
                       (size_t)W * sizeof(uint64_t));
            }
            if (region != NULL) {
                for (int64_t w = 0; w < W; ++w)
                    candidates[w] &= region[w] & ~used[w];
            } else {
                for (int64_t w = 0; w < W; ++w)
                    candidates[w] &= ~used[w];
            }
        }
        /* else: resume from the pending candidates stored at this depth. */

        int advanced = 0;
        for (int64_t w = 0; w < W && !advanced; ++w) {
            while (candidates[w]) {
                const uint64_t low = candidates[w] & (~candidates[w] + 1);
                const int bit = ck_ctz64(candidates[w]);
                candidates[w] ^= low;
                const int64_t vertex = (w << 6) + bit;
                if (t->degrees[vertex] < min_degree)
                    continue;
                if (lookahead) {
                    const uint64_t *adj_row = t->adjacency + vertex * W;
                    int64_t free_neighbors = 0;
                    if (region != NULL) {
                        for (int64_t v = 0; v < W; ++v)
                            free_neighbors += ck_popcount64(
                                adj_row[v] & region[v] & ~used[v]);
                    } else {
                        for (int64_t v = 0; v < W; ++v)
                            free_neighbors += ck_popcount64(adj_row[v] & ~used[v]);
                    }
                    if (free_neighbors < lookahead)
                        continue;
                }
                /* Accept this candidate and descend (the tried/skipped
                 * bits are already cleared in the pending row). */
                images[depth] = vertex;
                image_words[depth] = w;
                image_bits[depth] = bit;
                used[w] |= low;
                ++depth;
                if (depth == depth_count) {
                    result = 1;
                    goto done;
                }
                advanced = 1;
                break;
            }
        }
        if (advanced) {
            advancing = 1;
            continue;
        }
        /* Exhausted this depth: backtrack. */
        --depth;
        if (depth < 0) {
            result = 0;
            goto done;
        }
        used[image_words[depth]] ^= (uint64_t)1 << image_bits[depth];
        advancing = 0;
    }

done:
    if (words != stack_words)
        free(words);
    if (meta != stack_meta)
        free(meta);
    return result;
}

/* One counted test (`_match_one` in compiled.py): the empty pattern always
 * matches, a region smaller than the pattern or a prerejected pair never
 * does, everything else is searched.  `prerejected` is the pair's
 * whole-target prereject verdict, computed once by the caller. */
static int64_t
ck_match_one(const ck_target *t, const ck_plan *p, const uint64_t *region,
             int prerejected)
{
    if (p->num_steps == 0)
        return 1;
    if (region != NULL && ck_popcount_row(region, t->num_words) < p->num_steps)
        return 0;
    if (prerejected)
        return 0;
    return ck_has_embedding(t, p, region);
}

/* Grow-only scratch shared by every pair of one ck_verify_many call. */
typedef struct {
    uint64_t *words;
    int64_t capacity;
} ck_scratch;

static uint64_t *
ck_reserve(ck_scratch *scratch, int64_t want)
{
    if (want > scratch->capacity) {
        free(scratch->words);
        scratch->words = (uint64_t *)malloc((size_t)want * sizeof(uint64_t));
        scratch->capacity = scratch->words == NULL ? 0 : want;
    }
    return scratch->words;
}

/* Component-restricted verification of one pair (`_match_by_component`).
 * Components smaller than the pattern are dropped as they are found — the
 * oracle skips them without a test, and dropping them keeps the relative
 * order of the rest.  Writes the number of counted tests to *tests and
 * returns the match flag, or -1 on allocation failure. */
static int64_t
ck_match_by_component(const ck_target *t, const ck_plan *p,
                      const uint64_t *region, int prerejected,
                      ck_scratch *scratch, int64_t *tests)
{
    const int64_t W = t->num_words;
    const int64_t steps = p->num_steps;
    const int64_t region_size = ck_popcount_row(region, W);
    *tests = 0;
    if (region_size < steps)
        return 0;

    /* remaining, frontier, reached (W each), then per component slot its
     * mask (W), size and smallest rank.  Kept components are disjoint and
     * hold >= steps region vertices each, so at most region_size / steps
     * are kept; one more slot takes the component being explored. */
    const int64_t slots = region_size / (steps > 0 ? steps : 1) + 1;
    uint64_t *words = ck_reserve(scratch, 3 * W + slots * (W + 2));
    if (words == NULL)
        return -1;
    uint64_t *remaining = words;
    uint64_t *frontier = words + W;
    uint64_t *reached = words + 2 * W;
    uint64_t *masks = words + 3 * W;
    int64_t *sizes = (int64_t *)(masks + slots * W);
    int64_t *min_ranks = sizes + slots;
    int64_t kept = 0;

    memcpy(remaining, region, (size_t)W * sizeof(uint64_t));
    for (int64_t seed_word = 0; seed_word < W; ++seed_word) {
        while (remaining[seed_word]) {
            uint64_t *component = masks + kept * W;
            memset(component, 0, (size_t)W * sizeof(uint64_t));
            memset(frontier, 0, (size_t)W * sizeof(uint64_t));
            frontier[seed_word] =
                remaining[seed_word] & (~remaining[seed_word] + 1);
            int64_t size = 0;
            int64_t min_rank = INT64_MAX;
            for (;;) {
                memset(reached, 0, (size_t)W * sizeof(uint64_t));
                int any = 0;
                for (int64_t w = 0; w < W; ++w) {
                    uint64_t bits = frontier[w];
                    component[w] |= bits;
                    while (bits) {
                        const int64_t vertex = (w << 6) + ck_ctz64(bits);
                        bits &= bits - 1;
                        ++size;
                        if (t->ranks[vertex] < min_rank)
                            min_rank = t->ranks[vertex];
                        const uint64_t *adj_row = t->adjacency + vertex * W;
                        for (int64_t v = 0; v < W; ++v)
                            reached[v] |= adj_row[v];
                    }
                }
                for (int64_t w = 0; w < W; ++w) {
                    frontier[w] = reached[w] & region[w] & ~component[w];
                    any |= frontier[w] != 0;
                }
                if (!any)
                    break;
            }
            for (int64_t w = 0; w < W; ++w)
                remaining[w] &= ~component[w];
            if (size >= steps) {
                sizes[kept] = size;
                min_ranks[kept] = min_rank;
                ++kept;
            }
        }
    }

    /* Visit by decreasing size, ties by ascending smallest rank: selection
     * of the next-best component per round (kept is small). */
    for (int64_t round = 0; round < kept; ++round) {
        int64_t best = -1;
        for (int64_t c = 0; c < kept; ++c) {
            if (sizes[c] < 0)
                continue;
            if (best < 0 || sizes[c] > sizes[best] ||
                (sizes[c] == sizes[best] && min_ranks[c] < min_ranks[best]))
                best = c;
        }
        const uint64_t *component = masks + best * W;
        sizes[best] = -1;  /* visited */
        int64_t endpoints = 0;
        for (int64_t w = 0; w < W; ++w) {
            uint64_t bits = component[w];
            while (bits) {
                const uint64_t *adj_row =
                    t->adjacency + ((w << 6) + ck_ctz64(bits)) * W;
                bits &= bits - 1;
                for (int64_t v = 0; v < W; ++v)
                    endpoints += ck_popcount64(adj_row[v] & component[v]);
            }
        }
        if (endpoints / 2 < p->num_edges)
            continue;
        ++*tests;
        const int64_t matched = ck_match_one(t, p, component, prerejected);
        if (matched != 0)
            return matched;  /* first match, or -1 */
    }
    return 0;
}

/* Grapes' region of one pair: the target's vertices whose label occurs in
 * the pattern, the OR of their `label_members` rows (a pattern label the
 * target lacks adds nothing).  Writes t->num_words words to `region`. */
static void
ck_label_region(const ck_target *t, const ck_plan *p, uint64_t *region)
{
    const int64_t W = t->num_words;
    memset(region, 0, (size_t)W * sizeof(uint64_t));
    for (int64_t j = 0; j < p->num_sig_labels; ++j) {
        const int64_t row = ck_local_label(t, p->sig_labels[j]);
        if (row < 0)
            continue;
        const uint64_t *members = t->label_members + row * W;
        for (int64_t w = 0; w < W; ++w)
            region[w] |= members[w];
    }
}

/* Verify n = max(num_targets, num_plans) pairs in order; a side given as a
 * single element is shared by every pair (one plan against many targets
 * for subgraph verification and Isub, many plans against one target for
 * supergraph verification and Isuper).  `regions` (optional) holds pair
 * i's vertex mask as the next targets[i]->num_words words and restricts
 * the pair's one test.  With `by_component` (`regions` must be NULL) each
 * pair's region is its label region (`ck_label_region`), decomposed and
 * tested component by component.  Writes per pair the match flag and the
 * number of counted tests; returns 0, or -1 on allocation failure (the
 * Python wrapper raises MemoryError and never reads the outputs). */
CK_EXPORT int64_t
ck_verify_many(const ck_target *const *targets, int64_t num_targets,
               const ck_plan *const *plans, int64_t num_plans,
               const uint64_t *regions, int64_t by_component,
               uint8_t *out_matched, int64_t *out_tests)
{
    const int64_t n = num_targets > num_plans ? num_targets : num_plans;
    ck_scratch scratch = {NULL, 0};
    uint64_t *label_region = NULL;
    if (by_component && n > 0) {
        /* one buffer for the call, as wide as the widest target; not part
         * of `scratch`, which ck_reserve may move while a region is read */
        int64_t widest = 0;
        for (int64_t k = 0; k < num_targets; ++k)
            if (targets[k]->num_words > widest)
                widest = targets[k]->num_words;
        label_region = (uint64_t *)malloc((size_t)widest * sizeof(uint64_t));
        if (label_region == NULL)
            return -1;
    }
    int64_t status = 0;
    for (int64_t i = 0; i < n; ++i) {
        const ck_target *t = targets[num_targets == 1 ? 0 : i];
        const ck_plan *p = plans[num_plans == 1 ? 0 : i];
        const int prerejected = ck_prereject(t, p);
        int64_t matched;
        int64_t tests = 1;
        if (by_component) {
            ck_label_region(t, p, label_region);
            matched = ck_match_by_component(t, p, label_region, prerejected,
                                            &scratch, &tests);
        } else {
            matched = ck_match_one(t, p, regions, prerejected);
        }
        if (matched < 0) {
            status = -1;
            break;
        }
        out_matched[i] = (uint8_t)matched;
        out_tests[i] = tests;
        if (regions != NULL)
            regions += t->num_words;
    }
    free(label_region);
    free(scratch.words);
    return status;
}

/* ---------------------------------------------------------------------
 * Path-feature extraction
 * ------------------------------------------------------------------- */

/* A graph-local path code spends one byte per vertex. */
#define CK_MAX_PATH_VERTICES 8

/* Where every feature code's fold starts (`_PATH_SEED` in paths.py). */
#define CK_PATH_SEED 0x9e3779b97f4a7c15ULL

/* Grow-only list of path codes; graphs of query size never leave the
 * inline buffer. */
typedef struct {
    uint64_t *items;
    int64_t size;
    int64_t capacity;
    uint64_t inline_items[1024];
} ck_code_list;

static int
ck_push_code(ck_code_list *list, uint64_t code)
{
    if (list->size == list->capacity) {
        const int64_t capacity = 2 * list->capacity;
        uint64_t *grown = (uint64_t *)malloc((size_t)capacity * sizeof(uint64_t));
        if (grown == NULL)
            return -1;
        memcpy(grown, list->items, (size_t)list->size * sizeof(uint64_t));
        if (list->items != list->inline_items)
            free(list->items);
        list->items = grown;
        list->capacity = capacity;
    }
    list->items[list->size++] = code;
    return 0;
}

static int
ck_compare_codes(const void *left, const void *right)
{
    const uint64_t a = *(const uint64_t *)left;
    const uint64_t b = *(const uint64_t *)right;
    return (a > b) - (a < b);
}

/* Where ck_walk_paths reports an occurrence.  Counting walk (`masks`
 * NULL): its code is appended to `found`.  Coverage walk: its vertices are
 * OR-ed into the mask row of its code, located by bisection in the
 * ascending distinct `codes` (every reported code is among them). */
typedef struct {
    ck_code_list *found;
    const uint64_t *codes;
    int64_t num_codes;
    uint64_t *masks;
    int64_t num_words;
} ck_path_sink;

static inline int
ck_report_path(const ck_path_sink *sink, uint64_t code, const int64_t *path,
               int64_t num_vertices)
{
    if (sink->masks == NULL)
        return ck_push_code(sink->found, code);
    int64_t lo = 0, hi = sink->num_codes - 1;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (sink->codes[mid] < code)
            lo = mid + 1;
        else
            hi = mid;
    }
    uint64_t *row = sink->masks + lo * sink->num_words;
    for (int64_t i = 0; i < num_vertices; ++i)
        row[path[i] >> 6] |= (uint64_t)1 << (path[i] & 63);
    return 0;
}

/* Depth-first enumeration of every simple path of 0..max_length edges
 * (`enumerate_simple_paths` is the Python oracle).  Both directions of an
 * undirected path are walked; the occurrence is the one whose code is
 * smaller — on a palindrome, the one starting at the smaller vertex — so
 * each path is reported once, under its canonical label sequence.  Returns
 * 0, or -1 on allocation failure (counting walk only). */
static int
ck_walk_paths(int64_t n, const int64_t *offsets, const int64_t *neighbours,
              const int64_t *ranks, int64_t max_length,
              const ck_path_sink *sink)
{
    int64_t path[CK_MAX_PATH_VERTICES];
    int64_t cursor[CK_MAX_PATH_VERTICES];    /* next neighbour to try    */
    uint64_t forward[CK_MAX_PATH_VERTICES];  /* code of path[0..depth]   */
    uint64_t backward[CK_MAX_PATH_VERTICES]; /* code of path[depth..0]   */

    for (int64_t start = 0; start < n; ++start) {
        path[0] = start;
        cursor[0] = offsets[start];
        forward[0] = backward[0] = (uint64_t)(ranks[start] + 1) << 56;
        if (ck_report_path(sink, forward[0], path, 1) < 0)
            return -1;
        int64_t depth = max_length > 0 ? 0 : -1;
        while (depth >= 0) {
            const int64_t vertex = path[depth];
            if (cursor[depth] == offsets[vertex + 1]) {
                --depth;
                continue;
            }
            const int64_t next = neighbours[cursor[depth]++];
            int on_path = 0;
            for (int64_t i = 0; i <= depth; ++i)
                on_path |= path[i] == next;
            if (on_path)
                continue;
            const int64_t deeper = depth + 1;
            const uint64_t slot = (uint64_t)(ranks[next] + 1);
            const uint64_t ahead = forward[depth] | slot << (56 - 8 * deeper);
            const uint64_t behind = backward[depth] >> 8 | slot << 56;
            path[deeper] = next;
            if ((ahead < behind || (ahead == behind && start < next)) &&
                ck_report_path(sink, ahead, path, deeper + 1) < 0)
                return -1;
            if (deeper < max_length) {
                cursor[deeper] = offsets[next];
                forward[deeper] = ahead;
                backward[deeper] = behind;
                depth = deeper;
            }
        }
    }
    return 0;
}

/* The splitmix64 finaliser: a bijection of the 64-bit words. */
static inline uint64_t
ck_mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* A graph-local path code as its feature code: the labels' hashes folded
 * in path order, top 60 bits (`path_code` in src/repro/features/paths.py). */
static uint64_t
ck_feature_code(uint64_t local, const uint64_t *label_hashes)
{
    uint64_t code = CK_PATH_SEED;
    for (int shift = 56; shift >= 0; shift -= 8) {
        const uint64_t slot = local >> shift & 0xff;
        if (!slot)
            break;
        code = ck_mix(code ^ label_hashes[slot - 1]);
    }
    return code >> 4;
}

/* A feature code and the occurrence count of its graph-local code; the
 * code comes first, so `ck_compare_codes` orders these by it. */
typedef struct {
    uint64_t code;
    uint64_t count;
} ck_coded_count;

/* Every occurrence's graph-local code into `found` (initialised here;
 * the caller frees `found.items` when it is not the inline buffer),
 * ascending.  Returns 0, or -1 on allocation failure. */
static int
ck_collect_paths(int64_t n, const int64_t *offsets, const int64_t *neighbours,
                 const int64_t *ranks, int64_t max_length, ck_code_list *found)
{
    found->items = found->inline_items;
    found->size = 0;
    found->capacity = (int64_t)(sizeof(found->inline_items) / sizeof(uint64_t));
    const ck_path_sink sink = {found, NULL, 0, NULL, 0};
    if (ck_walk_paths(n, offsets, neighbours, ranks, max_length, &sink) < 0)
        return -1;
    qsort(found->items, (size_t)found->size, sizeof(uint64_t), ck_compare_codes);
    return 0;
}

/* Path features of one graph (see the header for the argument and result
 * layout).  Returns the malloc'd result block, to be released with
 * `ck_free`, or NULL on allocation failure. */
CK_EXPORT uint64_t *
ck_path_features(int64_t n, const int64_t *offsets, const int64_t *neighbours,
                 const int64_t *ranks, int64_t max_length,
                 const uint64_t *label_hashes)
{
    ck_code_list found;
    uint64_t *block = NULL;
    ck_coded_count *order = NULL;

    if (ck_collect_paths(n, offsets, neighbours, ranks, max_length, &found) < 0)
        goto done;
    int64_t distinct = 0;
    for (int64_t i = 0; i < found.size; ++i)
        distinct += i == 0 || found.items[i] != found.items[i - 1];
    order = (ck_coded_count *)malloc((size_t)(distinct + 1) * sizeof(ck_coded_count));
    block = (uint64_t *)calloc((size_t)(1 + 2 * distinct), sizeof(uint64_t));
    if (order == NULL || block == NULL) {
        free(block);
        block = NULL;
        goto done;
    }
    int64_t row = -1;
    for (int64_t i = 0; i < found.size; ++i) {
        if (i == 0 || found.items[i] != found.items[i - 1]) {
            order[++row].code = ck_feature_code(found.items[i], label_hashes);
            order[row].count = 0;
        }
        ++order[row].count;
    }
    qsort(order, (size_t)distinct, sizeof(ck_coded_count), ck_compare_codes);
    /* equal feature codes (a hash collision) merge: counts add up */
    uint64_t *pairs = block + 1;
    int64_t merged = -1;
    for (int64_t i = 0; i < distinct; ++i) {
        if (i == 0 || order[i].code != order[i - 1].code) {
            ++merged;
            pairs[2 * merged] = order[i].code;
        }
        pairs[2 * merged + 1] += order[i].count;
    }
    block[0] = (uint64_t)(merged + 1);
done:
    free(order);
    if (found.items != found.inline_items)
        free(found.items);
    return block;
}

/* Location coverage of one graph (arguments as `ck_path_features`'): the
 * sum over its distinct path keys of the number of vertices the key's
 * occurrences cover, counted per graph-local code, so before any feature
 * codes merge.  The mask rows live only for the call.  Returns the sum,
 * or -1 on allocation failure. */
CK_EXPORT int64_t
ck_path_coverage(int64_t n, const int64_t *offsets, const int64_t *neighbours,
                 const int64_t *ranks, int64_t max_length)
{
    ck_code_list found;
    uint64_t *masks = NULL;
    int64_t covered = -1;

    if (ck_collect_paths(n, offsets, neighbours, ranks, max_length, &found) < 0)
        goto done;
    int64_t distinct = 0;
    for (int64_t i = 0; i < found.size; ++i)
        if (i == 0 || found.items[i] != found.items[distinct - 1])
            found.items[distinct++] = found.items[i];
    const int64_t num_words = (n + 63) / 64;
    masks = (uint64_t *)calloc((size_t)(distinct * num_words + 1), sizeof(uint64_t));
    if (masks == NULL)
        goto done;
    const ck_path_sink sink = {&found, found.items, distinct, masks, num_words};
    ck_walk_paths(n, offsets, neighbours, ranks, max_length, &sink);
    covered = 0;
    for (int64_t w = 0; w < distinct * num_words; ++w)
        covered += ck_popcount64(masks[w]);
done:
    free(masks);
    if (found.items != found.inline_items)
        free(found.items);
    return covered;
}

CK_EXPORT void
ck_free(void *block)
{
    free(block);
}

/* ---------------------------------------------------------------------
 * Graph compilation
 * ------------------------------------------------------------------- */

static int
ck_compare_int64(const void *left, const void *right)
{
    const int64_t a = *(const int64_t *)left;
    const int64_t b = *(const int64_t *)right;
    return (a > b) - (a < b);
}

static int
ck_compare_int64_descending(const void *left, const void *right)
{
    return ck_compare_int64(right, left);
}

/* One past the largest interned label id of the graph (0 when it is empty):
 * the length of a `label_map` covering every label it carries. */
static int64_t
ck_label_map_len(int64_t n, const int64_t *label_ids)
{
    int64_t len = 0;
    for (int64_t v = 0; v < n; ++v)
        if (label_ids[v] >= len)
            len = label_ids[v] + 1;
    return len;
}

/* Number the graph's labels by first appearance over the vertex positions.
 * Writes interned id -> local row (-1: not in the graph) to `label_map`
 * (map_len entries), each vertex's row to `vertex_rows` and, when
 * `row_labels` is not NULL, each row's interned id; returns the number of
 * rows. */
static int64_t
ck_label_rows(int64_t n, const int64_t *label_ids, int64_t map_len,
              int64_t *label_map, int64_t *vertex_rows, int64_t *row_labels)
{
    int64_t num_rows = 0;
    for (int64_t id = 0; id < map_len; ++id)
        label_map[id] = -1;
    for (int64_t v = 0; v < n; ++v) {
        const int64_t id = label_ids[v];
        if (label_map[id] < 0) {
            if (row_labels != NULL)
                row_labels[num_rows] = id;
            label_map[id] = num_rows++;
        }
        vertex_rows[v] = label_map[id];
    }
    return num_rows;
}

/* The prereject signature: per label row the degrees of its vertices,
 * descending, as `sig_indptr` (num_rows + 1) and `sig_degrees` (n). */
static void
ck_degree_signature(int64_t n, const int64_t *offsets,
                    const int64_t *vertex_rows, int64_t num_rows,
                    int64_t *sig_indptr, int64_t *sig_degrees)
{
    memset(sig_indptr, 0, (size_t)(num_rows + 1) * sizeof(int64_t));
    for (int64_t v = 0; v < n; ++v)
        ++sig_indptr[vertex_rows[v] + 1];
    for (int64_t row = 0; row < num_rows; ++row)
        sig_indptr[row + 1] += sig_indptr[row];
    /* fill with each row's start as its cursor, then shift the starts back */
    for (int64_t v = 0; v < n; ++v)
        sig_degrees[sig_indptr[vertex_rows[v]]++] = offsets[v + 1] - offsets[v];
    for (int64_t row = num_rows; row > 0; --row)
        sig_indptr[row] = sig_indptr[row - 1];
    sig_indptr[0] = 0;
    for (int64_t row = 0; row < num_rows; ++row) {
        const int64_t size = sig_indptr[row + 1] - sig_indptr[row];
        if (size > 1)
            qsort(sig_degrees + sig_indptr[row], (size_t)size,
                  sizeof(int64_t), ck_compare_int64_descending);
    }
}

/* Compile a graph, given as the CSR of `FlatGraph` in compiled.py, into the
 * `ck_target` the search runs against: one malloc'd block, the struct first
 * and its arrays behind it, released with `ck_free`; NULL on allocation
 * failure.  Field for field what `marshal_target` in tests/kernel_oracle.py
 * builds from the bigint state (tests/test_native_compile.py). */
CK_EXPORT ck_target *
ck_compile_target(int64_t n, const int64_t *offsets, const int64_t *neighbours,
                  const int64_t *label_ids, const int64_t *ranks)
{
    const int64_t W = n > 0 ? (n + 63) / 64 : 1;
    const int64_t map_len = ck_label_map_len(n, label_ids);
    /* label_map, then per vertex its row, then per row the vertex that last
     * saw it among its neighbours and the row's entry in that vertex's list */
    int64_t *scratch =
        (int64_t *)malloc((size_t)(map_len + 3 * n + 1) * sizeof(int64_t));
    if (scratch == NULL)
        return NULL;
    int64_t *label_map = scratch;
    int64_t *vertex_rows = label_map + map_len;
    int64_t *seen_by = vertex_rows + n;
    int64_t *entry_of = seen_by + n;
    const int64_t num_rows =
        ck_label_rows(n, label_ids, map_len, label_map, vertex_rows, NULL);

    int64_t entries = 0;
    for (int64_t row = 0; row < num_rows; ++row)
        seen_by[row] = -1;
    for (int64_t v = 0; v < n; ++v)
        for (int64_t k = offsets[v]; k < offsets[v + 1]; ++k) {
            const int64_t row = vertex_rows[neighbours[k]];
            entries += seen_by[row] != v;
            seen_by[row] = v;
        }

    const int64_t num_words = (n + num_rows + entries) * W;
    const int64_t num_ints = 4 * n + 2 + entries + map_len + num_rows;
    ck_target *t = (ck_target *)calloc(
        1, sizeof(ck_target) + (size_t)(num_words + num_ints) * 8);
    if (t == NULL) {
        free(scratch);
        return NULL;
    }
    uint64_t *adjacency = (uint64_t *)(t + 1);
    uint64_t *members = adjacency + n * W;
    uint64_t *ladj_words = members + num_rows * W;
    int64_t *degrees = (int64_t *)(ladj_words + entries * W);
    int64_t *ladj_indptr = degrees + n;
    int64_t *ladj_labels = ladj_indptr + n + 1;
    int64_t *block_map = ladj_labels + entries;
    int64_t *block_ranks = block_map + map_len;
    int64_t *sig_indptr = block_ranks + n;
    int64_t *sig_degrees = sig_indptr + num_rows + 1;

    for (int64_t row = 0; row < num_rows; ++row)
        seen_by[row] = -1;
    for (int64_t v = 0; v < n; ++v) {
        const int64_t lo = offsets[v], hi = offsets[v + 1];
        const int64_t start = ladj_indptr[v];
        int64_t count = 0;
        degrees[v] = hi - lo;
        members[vertex_rows[v] * W + (v >> 6)] |= (uint64_t)1 << (v & 63);
        /* the distinct rows of v's neighbourhood, ascending (insertion
         * sort: a vertex sees a handful of labels) */
        for (int64_t k = lo; k < hi; ++k) {
            const int64_t u = neighbours[k];
            const int64_t row = vertex_rows[u];
            adjacency[v * W + (u >> 6)] |= (uint64_t)1 << (u & 63);
            if (seen_by[row] == v)
                continue;
            seen_by[row] = v;
            int64_t at = start + count++;
            for (; at > start && ladj_labels[at - 1] > row; --at)
                ladj_labels[at] = ladj_labels[at - 1];
            ladj_labels[at] = row;
        }
        ladj_indptr[v + 1] = start + count;
        for (int64_t e = start; e < start + count; ++e)
            entry_of[ladj_labels[e]] = e;
        for (int64_t k = lo; k < hi; ++k) {
            const int64_t u = neighbours[k];
            ladj_words[entry_of[vertex_rows[u]] * W + (u >> 6)] |=
                (uint64_t)1 << (u & 63);
        }
    }
    memcpy(block_map, label_map, (size_t)map_len * sizeof(int64_t));
    if (n > 0) /* an empty graph passes no rank column */
        memcpy(block_ranks, ranks, (size_t)n * sizeof(int64_t));
    ck_degree_signature(n, offsets, vertex_rows, num_rows, sig_indptr,
                        sig_degrees);
    free(scratch);

    t->n = n;
    t->num_words = W;
    t->num_labels = num_rows;
    t->num_edges = offsets[n] / 2;
    t->label_map_len = map_len;
    t->adjacency = adjacency;
    t->label_members = members;
    t->ladj_words = ladj_words;
    t->degrees = degrees;
    t->ladj_indptr = ladj_indptr;
    t->ladj_labels = ladj_labels;
    t->label_map = block_map;
    t->ranks = block_ranks;
    t->sig_indptr = sig_indptr;
    t->sig_degrees = sig_degrees;
    return t;
}

/* Compile the same CSR into the `ck_plan` of the graph as a pattern: one
 * block like ck_compile_target's; NULL on allocation failure.  The matching
 * order is the oracle's `matching_order`: a component starts at its
 * vertex of highest degree, then the frontier vertex with most placed
 * neighbours, then highest degree, is placed next; every tie goes to the
 * smaller rank.  `ranks` is a permutation of 0..n-1 (repr order, equal
 * reprs by position), so every tie is decided, and `marshal_plan` is the
 * oracle, field for field. */
CK_EXPORT ck_plan *
ck_compile_plan(int64_t n, const int64_t *offsets, const int64_t *neighbours,
                const int64_t *label_ids, const int64_t *ranks)
{
    const int64_t map_len = ck_label_map_len(n, label_ids);
    const int64_t num_edges = offsets[n] / 2;
    int64_t *scratch =
        (int64_t *)malloc((size_t)(map_len + 7 * n + 1) * sizeof(int64_t));
    if (scratch == NULL)
        return NULL;
    int64_t *label_map = scratch;
    int64_t *vertex_rows = label_map + map_len;
    int64_t *row_labels = vertex_rows + n;
    int64_t *starts = row_labels + n;        /* (-degree, rank) ascending  */
    int64_t *by_rank = starts + n;
    int64_t *placed_neighbours = by_rank + n;
    int64_t *position = placed_neighbours + n;  /* in the order; -1: not yet */
    int64_t *frontier = position + n;
    const int64_t num_rows = ck_label_rows(n, label_ids, map_len, label_map,
                                           vertex_rows, row_labels);

    const int64_t num_ints = 5 * n + 2 + num_edges + 2 * num_rows;
    ck_plan *p = (ck_plan *)calloc(
        1, sizeof(ck_plan) + (size_t)num_ints * sizeof(int64_t));
    if (p == NULL) {
        free(scratch);
        return NULL;
    }
    int64_t *min_degrees = (int64_t *)(p + 1);
    int64_t *lookaheads = min_degrees + n;
    int64_t *step_labels = lookaheads + n;
    int64_t *anchor_indptr = step_labels + n;
    int64_t *anchors = anchor_indptr + n + 1;
    int64_t *sig_labels = anchors + num_edges;
    int64_t *sig_indptr = sig_labels + num_rows;
    int64_t *sig_degrees = sig_indptr + num_rows + 1;
    int64_t *order = sig_degrees;  /* free until the signature is written */

    for (int64_t v = 0; v < n; ++v) {
        starts[v] = (n - 1 - (offsets[v + 1] - offsets[v])) * n + ranks[v];
        by_rank[ranks[v]] = v;
        placed_neighbours[v] = 0;
        position[v] = -1;
    }
    qsort(starts, (size_t)n, sizeof(int64_t), ck_compare_int64);
    int64_t next_start = 0;
    int64_t frontier_size = 0;
    for (int64_t placed = 0; placed < n; ++placed) {
        int64_t vertex;
        if (frontier_size == 0) {
            do
                vertex = by_rank[starts[next_start++] % n];
            while (position[vertex] >= 0);
        } else {
            int64_t best = 0;
            for (int64_t f = 1; f < frontier_size; ++f) {
                const int64_t a = frontier[f], b = frontier[best];
                const int64_t degree_a = offsets[a + 1] - offsets[a];
                const int64_t degree_b = offsets[b + 1] - offsets[b];
                if (placed_neighbours[a] != placed_neighbours[b]
                        ? placed_neighbours[a] > placed_neighbours[b]
                        : degree_a != degree_b ? degree_a > degree_b
                                               : ranks[a] < ranks[b])
                    best = f;
            }
            vertex = frontier[best];
            frontier[best] = frontier[--frontier_size];
        }
        order[placed] = vertex;
        position[vertex] = placed;
        for (int64_t k = offsets[vertex]; k < offsets[vertex + 1]; ++k) {
            const int64_t u = neighbours[k];
            if (position[u] < 0 && placed_neighbours[u]++ == 0)
                frontier[frontier_size++] = u;
        }
    }

    int64_t num_anchors = 0;
    for (int64_t step = 0; step < n; ++step) {
        const int64_t vertex = order[step];
        const int64_t lo = offsets[vertex], hi = offsets[vertex + 1];
        min_degrees[step] = hi - lo;
        step_labels[step] = label_ids[vertex];
        for (int64_t k = lo; k < hi; ++k) {
            const int64_t at = position[neighbours[k]];
            if (at < step)
                anchors[num_anchors++] = at;
            else
                ++lookaheads[step];
        }
        anchor_indptr[step + 1] = num_anchors;
    }
    memcpy(sig_labels, row_labels, (size_t)num_rows * sizeof(int64_t));
    ck_degree_signature(n, offsets, vertex_rows, num_rows, sig_indptr,
                        sig_degrees);
    free(scratch);

    p->num_steps = n;
    p->num_edges = num_edges;
    p->num_sig_labels = num_rows;
    p->min_degrees = min_degrees;
    p->lookaheads = lookaheads;
    p->step_labels = step_labels;
    p->anchor_indptr = anchor_indptr;
    p->anchors = anchors;
    p->sig_labels = sig_labels;
    p->sig_indptr = sig_indptr;
    p->sig_degrees = sig_degrees;
    return p;
}

/* ---------------------------------------------------------------------
 * Cache-side probe
 * ------------------------------------------------------------------- */

typedef struct {
    int64_t num_features;  /* -1: the slot is empty                        */
    int64_t num_vertices;
    int64_t num_edges;
    int64_t entry_id;
    const void *compiled;  /* ck_target / ck_plan of the entry, not owned  */
    uint64_t *features;    /* num_features (code, count) pairs, owned      */
} ck_row;

typedef struct {
    int64_t entries_are_targets;  /* Isub: 1, Isuper: 0                    */
    int64_t num_slots;
    int64_t feature_words;        /* over the live rows (size accounting)  */
    ck_row *rows;
} ck_table;

CK_EXPORT ck_table *
ck_table_new(int64_t entries_are_targets)
{
    ck_table *table = (ck_table *)calloc(1, sizeof(ck_table));
    if (table != NULL)
        table->entries_are_targets = entries_are_targets;
    return table;
}

CK_EXPORT void
ck_table_clear(ck_table *table, int64_t slot)
{
    if (slot < 0 || slot >= table->num_slots)
        return;
    ck_row *row = table->rows + slot;
    if (row->num_features < 0)
        return;
    table->feature_words -= 2 * row->num_features;
    free(row->features);
    row->features = NULL;
    row->compiled = NULL;
    row->num_features = -1;
}

CK_EXPORT void
ck_table_free(ck_table *table)
{
    if (table == NULL)
        return;
    for (int64_t slot = 0; slot < table->num_slots; ++slot)
        free(table->rows[slot].features);
    free(table->rows);
    free(table);
}

/* Write the row of `slot` (replacing a live one), growing the table to
 * reach it.  `pairs` is copied.  Returns 0, or -1 on allocation failure,
 * which leaves the table as it was. */
CK_EXPORT int64_t
ck_table_set(ck_table *table, int64_t slot, int64_t entry_id,
             const uint64_t *pairs, int64_t num_pairs, int64_t num_vertices,
             int64_t num_edges, const void *compiled)
{
    uint64_t *features = NULL;
    if (num_pairs > 0) {
        features = (uint64_t *)malloc((size_t)num_pairs * 2 * sizeof(uint64_t));
        if (features == NULL)
            return -1;
        memcpy(features, pairs, (size_t)num_pairs * 2 * sizeof(uint64_t));
    }
    if (slot >= table->num_slots) {
        int64_t num_slots = 2 * table->num_slots;
        if (num_slots <= slot)
            num_slots = slot + 1;
        ck_row *rows = (ck_row *)realloc(table->rows,
                                         (size_t)num_slots * sizeof(ck_row));
        if (rows == NULL) {
            free(features);
            return -1;
        }
        for (int64_t fresh = table->num_slots; fresh < num_slots; ++fresh) {
            rows[fresh].num_features = -1;
            rows[fresh].features = NULL;
            rows[fresh].compiled = NULL;
        }
        table->rows = rows;
        table->num_slots = num_slots;
    }
    ck_table_clear(table, slot);
    ck_row *row = table->rows + slot;
    row->num_features = num_pairs;
    row->num_vertices = num_vertices;
    row->num_edges = num_edges;
    row->entry_id = entry_id;
    row->compiled = compiled;
    row->features = features;
    table->feature_words += 2 * num_pairs;
    return 0;
}

/* Heap bytes held by the table (the Figure 18 quantity). */
CK_EXPORT int64_t
ck_table_bytes(const ck_table *table)
{
    return (int64_t)sizeof(ck_table) +
           table->num_slots * (int64_t)sizeof(ck_row) +
           table->feature_words * (int64_t)sizeof(uint64_t);
}

/* Read a row back (tests, diagnostics): header receives num_features (-1
 * for an empty or unknown slot), num_vertices, num_edges, entry_id and the
 * address of the pairs. */
CK_EXPORT void
ck_table_row(const ck_table *table, int64_t slot, int64_t *header)
{
    header[0] = -1;
    if (slot < 0 || slot >= table->num_slots)
        return;
    const ck_row *row = table->rows + slot;
    header[0] = row->num_features;
    header[1] = row->num_vertices;
    header[2] = row->num_edges;
    header[3] = row->entry_id;
    header[4] = (int64_t)(intptr_t)row->features;
}

/* True iff every (code, count) pair of `needed` has its code in `have`
 * with at least that count; both ascending by code. */
static int
ck_pairs_dominate(const uint64_t *have, int64_t num_have,
                  const uint64_t *needed, int64_t num_needed)
{
    int64_t h = 0;
    for (int64_t i = 0; i < num_needed; ++i) {
        if (num_have - h < num_needed - i)
            return 0;  /* fewer codes left than still needed */
        const uint64_t code = needed[2 * i];
        while (h < num_have && have[2 * h] < code)
            ++h;
        if (h == num_have || have[2 * h] != code ||
            have[2 * h + 1] < needed[2 * i + 1])
            return 0;
        ++h;
    }
    return 1;
}

/* The candidate filter of one direction plus the size pre-checks.  Target
 * rows (`Isub`) survive when they hold every pair of the query at least as
 * often and are no smaller than (num_vertices, num_edges); pattern rows
 * (`Isuper`, Algorithm 2's condition) when the query holds every pair of
 * theirs at least as often and they are no larger.  Considers every live
 * slot; writes the surviving slots ascending to `out_slots` (room for
 * num_slots) and returns how many. */
CK_EXPORT int64_t
ck_probe_filter(const ck_table *table, const uint64_t *pairs,
                int64_t num_pairs, int64_t num_vertices, int64_t num_edges,
                int64_t *out_slots)
{
    int64_t found = 0;
    for (int64_t slot = 0; slot < table->num_slots; ++slot) {
        const ck_row *row = table->rows + slot;
        if (row->num_features < 0)
            continue;
        if (table->entries_are_targets) {
            if (row->num_vertices < num_vertices ||
                row->num_edges < num_edges ||
                !ck_pairs_dominate(row->features, row->num_features,
                                   pairs, num_pairs))
                continue;
        } else if (row->num_vertices > num_vertices ||
                   row->num_edges > num_edges ||
                   !ck_pairs_dominate(pairs, num_pairs, row->features,
                                      row->num_features)) {
            continue;
        }
        out_slots[found++] = slot;
    }
    return found;
}

/* One counted containment test per slot of `slots` (live rows, as returned
 * by ck_probe_filter) against the query's compiled side — its ck_plan when
 * the rows are targets, its ck_target when they are patterns: prereject,
 * then search, exactly as ck_verify_many runs a pair.  Writes the entry ids
 * of the rows that matched to `out_hit_ids` in ascending order (room for
 * num_slots) and returns how many, or -1 on allocation failure. */
CK_EXPORT int64_t
ck_probe_verify(const ck_table *table, const void *query_side,
                const int64_t *slots, int64_t num_slots, int64_t *out_hit_ids)
{
    int64_t hits = 0;
    for (int64_t i = 0; i < num_slots; ++i) {
        const ck_row *row = table->rows + slots[i];
        const ck_target *t = (const ck_target *)(
            table->entries_are_targets ? row->compiled : query_side);
        const ck_plan *p = (const ck_plan *)(
            table->entries_are_targets ? query_side : row->compiled);
        const int64_t matched = ck_match_one(t, p, NULL, ck_prereject(t, p));
        if (matched < 0)
            return -1;
        if (!matched)
            continue;
        /* recycled slots make slot order meaningless: insert by entry id */
        int64_t at = hits++;
        for (; at > 0 && out_hit_ids[at - 1] > row->entry_id; --at)
            out_hit_ids[at] = out_hit_ids[at - 1];
        out_hit_ids[at] = row->entry_id;
    }
    return hits;
}

/* Per mask (mask_words words each, back to back) the sum of `costs` over
 * its set bits, added in ascending position order from 0.0 — the order of
 * the Python loop it replaces, so the totals are the same doubles. */
CK_EXPORT void
ck_mask_sums(const double *costs, int64_t num_positions,
             const uint64_t *masks, int64_t num_masks, int64_t mask_words,
             double *out_totals)
{
    for (int64_t m = 0; m < num_masks; ++m) {
        const uint64_t *mask = masks + m * mask_words;
        double total = 0.0;
        for (int64_t w = 0; w < mask_words; ++w) {
            uint64_t bits = mask[w];
            while (bits) {
                const int64_t position = (w << 6) + ck_ctz64(bits);
                bits &= bits - 1;
                if (position < num_positions)
                    total += costs[position];
            }
        }
        out_totals[m] = total;
    }
}

#ifdef CKERNEL_PYMODULE
/* Minimal module object so setuptools can build this file as an importable
 * extension (`repro.isomorphism._ckernel`).  The kernel is still driven
 * through ctypes against the shared object's exported symbols — the module
 * body exists only to make the build artifact a valid import target and to
 * advertise where the symbols live. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

static struct PyModuleDef ck_module = {
    PyModuleDef_HEAD_INIT,
    "_ckernel",
    "Native VF2 and path-feature kernels (symbols consumed via ctypes; see _ckernel_loader).",
    -1,
    NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *module = PyModule_Create(&ck_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "ABI_VERSION", CK_ABI_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
#endif  /* CKERNEL_PYMODULE */
