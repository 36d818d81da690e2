/* Native kernel: graph compilation (one call per graph and role),
 * verification (one call per query), path-feature extraction (one call per
 * graph), the cache-side probe (one filter call and at most one
 * containment call per query and direction) and the public embedding API
 * (`ck_find_embedding`, the same search writing out its images).
 *
 * `ck_verify_many` answers every (pattern, target) pair of one query in a
 * single ctypes call (`match_mask` in src/repro/isomorphism/compiled.py,
 * and `match_pairs`, which calls it): it reads the candidates' compiled
 * forms from a table indexed by dataset position, walks the set bits of
 * the query's remaining mask in ascending position, writes the answer
 * mask and returns the tests counted, with the interpreter lock released
 * once.  It is the only verification loop; the pure-Python bigint kernel
 * it was transliterated from is its oracle in tests/kernel_oracle.py.
 * Per pair:
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
 *      `match_by_component`); a disconnected pattern gets one whole-graph
 *      test instead (the plan's `connected` flag).
 *
 * Flags and per-pair test counts are therefore byte-identical to the
 * oracle's on every input, which is what the repository's accounting
 * contract (the paper's Figs. 7-11 count isomorphism tests) requires.
 *
 * `ck_path_features` enumerates the simple paths of one graph (the GGSX /
 * Grapes / Isub / Isuper feature class), at any label count and any
 * length, and returns the distinct features as 60-bit feature codes with
 * their occurrence counts; the Python enumeration in tests/kernel_oracle.py
 * (`path_occurrences`, coded by `path_code` in
 * src/repro/features/paths.py) is the oracle it is tested against.
 * `ck_path_coverage` walks the same paths and returns one number, the
 * vertices the occurrences of each key cover summed over the keys: what
 * Grapes' location lists would hold (Fig. 18's byte count, `path_coverage`
 * in paths.py).
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
 * with the same prereject + search as every other pair.  The Python loops
 * they replace (`isub_candidate_ids`, `isuper_candidate_ids` in
 * tests/kernel_oracle.py) are the oracles of tests/test_native_probe.py.
 * `ck_block_*` is the cache's column block: `ck_block_plan` combines one
 * query's hits by formulae (3)-(5) and credits them (section 5.1) in one
 * call, `ck_block_credit` replays a plan's credits; the Python loops over
 * the entries they replace (`combine`, `hit_credits`, `record_hit` and the
 * `mask_sums` credit sum) are the oracle engine of
 * tests/test_plan_columns.py.
 *
 * Data layout, ABI 14 (ABI 6's layout; 7 dropped `ck_probe_filter`'s
 * `universe` argument, 8 made `ck_verify_many`'s `by_component` mode
 * compute its regions instead of reading them, 9 made `ck_path_features`
 * return hashed feature codes, 10 dropped its location rows and added
 * `ck_path_coverage`, 11 replaced `ck_mask_sums` with the column block,
 * 12 sized the path walk per call — no label-count or length limit — and
 * added the plan's `order` and `ck_find_embedding`, 13 made
 * `ck_verify_many` read a position table under a mask, write the answer
 * mask and return the test total, added the plan's `connected` flag and passed
 * `ck_block_plan`'s arguments in one `ck_plan_call`, 14 replaced
 * `ck_table_set` / `ck_table_clear` with `ck_table_apply`, one call a
 * window flush, and made each row own its compiled form).
 * A `ck_target` /
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
 *   - order:          the plan's per-step pattern vertex position, through
 *                     which `ck_find_embedding` writes each image back to
 *                     its pattern position;
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
 *                     graph's distinct label strings in ascending order
 *                     (any number of them);
 *   - path record:    a walk keeps the path's vertex positions, a neighbour
 *                     cursor per depth and the fold of every prefix, in
 *                     one buffer sized for the call by min(max_length + 1,
 *                     n) vertices, so any label count and any length
 *                     fit.  A path is reported from the end whose rank sequence,
 *                     compared from both ends, is the smaller — on a
 *                     palindrome, from the smaller start vertex — so each
 *                     occurrence counts once under its canonical label
 *                     sequence, the key of `canonical_path_key`;
 *   - label_hashes:   per rank the label's 64-bit BLAKE2 hash
 *                     (`label_hash` in paths.py);
 *   - feature code:   the canonical direction's labels folded in order,
 *                     code = mix(code ^ label_hash) from CK_PATH_SEED, mix
 *                     the splitmix64 finaliser, and its top 60 bits kept
 *                     (`path_code` in paths.py): a pure function of the
 *                     key, equal in every process.  Each occurrence's code
 *                     is counted in an open-addressing table during the
 *                     walk, and only the distinct codes are sorted.  Two
 *                     keys of one graph may hash alike; their features
 *                     then merge (counts add up), which only widens a
 *                     filter;
 *   - result block:   malloc'd, released with `ck_free`: word 0 holds the
 *                     number of distinct feature codes D, then the D
 *                     (feature code, count) pairs, code ascending (up to
 *                     ABI 8 the codes spelt labels with a process-wide byte
 *                     table; up to ABI 9 D vertex-mask rows followed);
 *   - coverage:       per distinct key (a fold of its ranks, its vertex
 *                     count and its rank sequence, found through an
 *                     open-addressing table during the one walk), a
 *                     ceil(n / 64)-word mask row of the vertex positions
 *                     its occurrences cover, in scratch freed before the
 *                     return; the result is the rows' total popcount.  It
 *                     is per key: colliding feature codes do not shrink it.
 *
 * The probe table (new in ABI 4; driven by `ProbeTable` in
 * src/repro/core/probe.py):
 *
 *   - one row per slot of the owning index's `DensePositions`: the entry's
 *     id, vertex and edge counts, its (feature code, count) pairs — a
 *     malloc'd copy, code ascending — and the address of its compiled form:
 *     a `ck_target` when the entries play the target role (`Isub`), a
 *     `ck_plan` when they play the pattern role (`Isuper`);
 *   - rows change only through `ck_table_apply`, one call a window flush
 *     (or a warm start): it clears the evicted rows, then writes the
 *     inserted ones.  The table owns each row's compiled form: it takes
 *     over the block the entry's query compiled, or compiles one in the
 *     same call from the graph's CSR, and frees it with the row;
 *   - a probe reads the table and writes only its caller's output buffers,
 *     so it needs no scratch of its own; apply and probe of one table are
 *     serialised by the caller (they are driver-thread operations).
 *
 * The column block (new in ABI 11; driven by `ColumnBlock` in
 * src/repro/core/probe.py, owned by the engine's `QueryCache`, one per
 * engine whatever its shard count):
 *
 *   - one row per live cache entry, in columns of `capacity` items: entry
 *     id (-1 marks a free row), |V|, |E|, the query counter at insertion,
 *     H(g), R(g) (int64) and C(g) (double), and an answer row of
 *     `mask_words` uint64 words (the entry's answer set as a mask over the
 *     engine's dataset id space, bit i = id-space position i);
 *   - rows are written when entries join the cache (`ck_block_add`, a
 *     flush's insertions in one call) and freed when they leave
 *     (`ck_block_remove`, which hands back the final H/R/C); freed rows are
 *     reused, and `order` keeps the live rows by ascending entry id, so a
 *     row is found by id with a binary search and `ck_block_columns` reads
 *     the statistics in cache order;
 *   - the kernel owns every column (malloc'd, grown by doubling, freed
 *     with the block); Python holds no pointer into them — it passes ids
 *     and reads results through per-call output buffers.  A plan's
 *     credits name rows, valid until the next add or remove (a window
 *     flush, which also drops every stored plan);
 *   - C(g) grows by sums added from 0.0 in ascending position order, the
 *     order of the Python loop it replaces, so it is the same double.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The ABI version is checked by the loader after dlopen so a stale build
 * of an older layout can never be driven with new-layout pointers.  Bump
 * it whenever a struct or signature below changes. */
#define CK_ABI_VERSION 14

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
    int64_t connected;             /* 1 when the pattern is connected (the
                                      empty pattern is)                   */
    const int64_t *min_degrees;    /* num_steps                           */
    const int64_t *lookaheads;     /* num_steps                           */
    const int64_t *step_labels;    /* num_steps interned label ids        */
    const int64_t *anchor_indptr;  /* num_steps + 1                       */
    const int64_t *anchors;        /* anchor_indptr[num_steps] positions  */
    const int64_t *sig_labels;     /* num_sig_labels interned label ids   */
    const int64_t *sig_indptr;     /* num_sig_labels + 1                  */
    const int64_t *sig_degrees;    /* num_steps: descending per label     */
    const int64_t *order;          /* num_steps: each step's pattern position */
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
 * (image inside `region` when region is non-NULL).  On a match, when
 * `out_images` is non-NULL, writes per pattern position the target position
 * of its image there.  Returns 1 / 0, or -1 on allocation failure. */
static int64_t
ck_has_embedding(const ck_target *t, const ck_plan *p, const uint64_t *region,
                 int64_t *out_images)
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
                    if (out_images != NULL)
                        for (int64_t d = 0; d < depth_count; ++d)
                            out_images[p->order[d]] = images[d];
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
    return ck_has_embedding(t, p, region, NULL);
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

/* Verify the pairs of one query named by a mask of table positions.
 *
 * `table` holds per position the compiled form of one candidate — a
 * ck_target when `table_holds_targets` (one plan against many targets:
 * subgraph verification), a ck_plan otherwise (many plans against one
 * target: supergraph verification) — and `shared` the query's form of the
 * other kind.  The pairs are the set bits of `mask` (`mask_words` words),
 * visited in ascending position; only those positions of `table` are read.
 * `regions` (optional) holds the next pair's vertex mask as the next
 * t->num_words words and restricts the pair's one test.  With
 * `by_component` (`regions` must be NULL) a connected pattern's region is
 * its label region (`ck_label_region`), decomposed and tested component by
 * component; a disconnected pattern gets one whole-graph test (the region
 * only bounds connected embeddings).
 *
 * Writes the positions that matched to `out_answer` (`mask_words` words;
 * the matches are its popcount) and, when `out_tests` is not NULL, each
 * pair's test count at its position.  Returns the number of tests counted,
 * or -1 on allocation failure (the Python wrapper raises MemoryError and
 * never reads the outputs). */
CK_EXPORT int64_t
ck_verify_many(const void *const *table, const void *shared,
               int64_t table_holds_targets, const uint64_t *mask,
               int64_t mask_words, const uint64_t *regions,
               int64_t by_component, uint64_t *out_answer,
               int64_t *out_tests)
{
    ck_scratch scratch = {NULL, 0};
    /* grows to the widest target; apart from `scratch`, which
     * ck_reserve may move while a region is read */
    ck_scratch label_region = {NULL, 0};
    int64_t status = 0, total_tests = 0;
    memset(out_answer, 0, (size_t)mask_words * sizeof(uint64_t));
    for (int64_t w = 0; w < mask_words && status == 0; ++w) {
        uint64_t bits = mask[w];
        while (bits) {
            const int64_t position = (w << 6) + ck_ctz64(bits);
            const uint64_t bit = bits & (~bits + 1);
            bits ^= bit;
            const ck_target *t = (const ck_target *)(
                table_holds_targets ? table[position] : shared);
            const ck_plan *p = (const ck_plan *)(
                table_holds_targets ? shared : table[position]);
            const int prerejected = ck_prereject(t, p);
            int64_t matched;
            int64_t tests = 1;
            if (by_component && p->connected) {
                uint64_t *region = ck_reserve(&label_region, t->num_words);
                if (region == NULL) {
                    status = -1;
                    break;
                }
                ck_label_region(t, p, region);
                matched = ck_match_by_component(t, p, region, prerejected,
                                                &scratch, &tests);
            } else {
                matched = ck_match_one(t, p, regions, prerejected);
            }
            if (matched < 0) {
                status = -1;
                break;
            }
            if (matched)
                out_answer[w] |= bit;
            total_tests += tests;
            if (out_tests != NULL)
                out_tests[position] = tests;
            if (regions != NULL)
                regions += t->num_words;
        }
    }
    free(label_region.words);
    free(scratch.words);
    return status < 0 ? status : total_tests;
}

/* One embedding of the plan's pattern into the whole target, found by the
 * search every verification runs (`find_subgraph_embedding` in compiled.py):
 * on a match, per pattern position the target position of its image into
 * `out_images` (num_steps entries; nothing for the empty pattern).  Returns
 * 1 / 0, or -1 on allocation failure. */
CK_EXPORT int64_t
ck_find_embedding(const ck_target *t, const ck_plan *p, int64_t *out_images)
{
    if (p->num_steps == 0)
        return 1;
    if (ck_prereject(t, p))
        return 0;
    return ck_has_embedding(t, p, NULL, out_images);
}

/* ---------------------------------------------------------------------
 * Path-feature extraction
 * ------------------------------------------------------------------- */

/* Where every feature code's fold starts (`_PATH_SEED` in paths.py). */
#define CK_PATH_SEED 0x9e3779b97f4a7c15ULL

/* The splitmix64 finaliser: a bijection of the 64-bit words. */
static inline uint64_t
ck_mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* The occurrence count of each feature code seen so far: an
 * open-addressing table of (code, count) pairs, `slots` a power of two
 * kept at least twice the distinct codes, a zero count marking an empty
 * slot.  Codes are the top bits of a splitmix64 output, so their low bits
 * index the table directly.  Graphs of query size never leave the inline
 * table. */
typedef struct {
    uint64_t *pairs;
    int64_t slots;
    int64_t distinct;
    uint64_t inline_pairs[2 * 128];
} ck_code_counts;

/* Double the table, rehashing every code.  Returns 0, or -1 on allocation
 * failure, which leaves `counts` as it was. */
static int
ck_code_counts_grow(ck_code_counts *counts)
{
    const int64_t slots = 2 * counts->slots;
    const uint64_t wrap = (uint64_t)(slots - 1);
    uint64_t *pairs = (uint64_t *)calloc((size_t)(2 * slots), sizeof(uint64_t));
    if (pairs == NULL)
        return -1;
    for (int64_t old = 0; old < counts->slots; ++old) {
        if (counts->pairs[2 * old + 1] == 0)
            continue;
        uint64_t at = counts->pairs[2 * old] & wrap;
        while (pairs[2 * at + 1] != 0)
            at = (at + 1) & wrap;
        pairs[2 * at] = counts->pairs[2 * old];
        pairs[2 * at + 1] = counts->pairs[2 * old + 1];
    }
    if (counts->pairs != counts->inline_pairs)
        free(counts->pairs);
    counts->pairs = pairs;
    counts->slots = slots;
    return 0;
}

/* Count one occurrence of `code`.  Returns 0, or -1 on allocation failure. */
static int
ck_count_code(ck_code_counts *counts, uint64_t code)
{
    uint64_t wrap = (uint64_t)(counts->slots - 1);
    uint64_t at = code & wrap;
    for (; counts->pairs[2 * at + 1] != 0; at = (at + 1) & wrap) {
        if (counts->pairs[2 * at] == code) {
            ++counts->pairs[2 * at + 1];
            return 0;
        }
    }
    if (2 * (counts->distinct + 1) > counts->slots) {
        if (ck_code_counts_grow(counts) < 0)
            return -1;
        wrap = (uint64_t)(counts->slots - 1);
        for (at = code & wrap; counts->pairs[2 * at + 1] != 0; at = (at + 1) & wrap)
            ;
    }
    counts->pairs[2 * at] = code;
    counts->pairs[2 * at + 1] = 1;
    ++counts->distinct;
    return 0;
}

/* Order (code, count) pairs by code. */
static int
ck_compare_pairs(const void *left, const void *right)
{
    const uint64_t a = *(const uint64_t *)left;
    const uint64_t b = *(const uint64_t *)right;
    return (a > b) - (a < b);
}

/* The coverage of one graph as it is walked: every distinct path key seen
 * so far — its fold, vertex count and rank sequence, `key_words` words —
 * with a mask row of the `num_words`-word vertex set its occurrences
 * cover, and an open-addressing table (`slots` a power of two, -1 empty)
 * of the keys' indices, probed from the fold and decided on the whole key.
 * Keys are label-rank sequences, so two keys that share a feature code
 * still count apart. */
typedef struct {
    int64_t key_words;
    int64_t num_words;
    int64_t num_keys;
    int64_t capacity;   /* keys and mask rows allocated */
    uint64_t *keys;
    uint64_t *masks;
    int64_t slots;
    int64_t *table;
} ck_coverage;

/* Double the key and mask storage, or the table (rehashing every key).
 * Returns 0, or -1 on allocation failure, which leaves `cover` usable. */
static int
ck_coverage_grow(ck_coverage *cover)
{
    if (cover->num_keys == cover->capacity) {
        const int64_t capacity = 2 * cover->capacity;
        uint64_t *keys = (uint64_t *)realloc(
            cover->keys, (size_t)(capacity * cover->key_words) * sizeof(uint64_t));
        if (keys == NULL)
            return -1;
        cover->keys = keys;
        uint64_t *masks = (uint64_t *)realloc(
            cover->masks, (size_t)(capacity * cover->num_words) * sizeof(uint64_t));
        if (masks == NULL)
            return -1;
        memset(masks + cover->capacity * cover->num_words, 0,
               (size_t)((capacity - cover->capacity) * cover->num_words) * sizeof(uint64_t));
        cover->masks = masks;
        cover->capacity = capacity;
    }
    if (2 * (cover->num_keys + 1) > cover->slots) {
        const int64_t slots = 2 * cover->slots;
        int64_t *table = (int64_t *)malloc((size_t)slots * sizeof(int64_t));
        if (table == NULL)
            return -1;
        for (int64_t at = 0; at < slots; ++at)
            table[at] = -1;
        for (int64_t key = 0; key < cover->num_keys; ++key) {
            uint64_t at = cover->keys[key * cover->key_words] & (uint64_t)(slots - 1);
            while (table[at] >= 0)
                at = (at + 1) & (uint64_t)(slots - 1);
            table[at] = key;
        }
        free(cover->table);
        cover->table = table;
        cover->slots = slots;
    }
    return 0;
}

/* The mask row of `key` (fold, vertex count, ranks), added on first sight;
 * NULL on allocation failure. */
static uint64_t *
ck_coverage_row(ck_coverage *cover, const uint64_t *key)
{
    const size_t key_bytes = (size_t)(2 + key[1]) * sizeof(uint64_t);
    const uint64_t wrap = (uint64_t)(cover->slots - 1);
    uint64_t at = key[0] & wrap;
    for (; cover->table[at] >= 0; at = (at + 1) & wrap) {
        const int64_t seen = cover->table[at];
        if (memcmp(cover->keys + seen * cover->key_words, key, key_bytes) == 0)
            return cover->masks + seen * cover->num_words;
    }
    if (2 * (cover->num_keys + 1) > cover->slots || cover->num_keys == cover->capacity) {
        if (ck_coverage_grow(cover) < 0)
            return NULL;
        return ck_coverage_row(cover, key);  /* probe the grown table */
    }
    const int64_t added = cover->num_keys++;
    memcpy(cover->keys + added * cover->key_words, key, key_bytes);
    cover->table[at] = added;
    return cover->masks + added * cover->num_words;
}

/* Where ck_walk_paths reports an occurrence, path[0..last] read in its
 * canonical direction, with `fold`, its labels' hashes folded in that
 * order.  Feature walk (`codes`): its feature code, the fold's top 60
 * bits, is counted.  Coverage walk (`cover`): its key is built in `key`
 * and its vertices are OR-ed into that key's mask row. */
typedef struct {
    ck_code_counts *codes;
    ck_coverage *cover;
} ck_path_sink;

static inline int
ck_report_path(const ck_path_sink *sink, const int64_t *path, int64_t last,
               const int64_t *ranks, uint64_t fold, uint64_t *key)
{
    if (sink->codes != NULL)
        return ck_count_code(sink->codes, fold >> 4);
    key[0] = fold;
    key[1] = (uint64_t)(last + 1);
    for (int64_t i = 0; i <= last; ++i)
        key[2 + i] = (uint64_t)ranks[path[i]];
    uint64_t *row = ck_coverage_row(sink->cover, key);
    if (row == NULL)
        return -1;
    for (int64_t i = 0; i <= last; ++i)
        row[path[i] >> 6] |= (uint64_t)1 << (path[i] & 63);
    return 0;
}

/* Vertices of the longest path a walk reports: max_length + 1, at most n. */
static inline int64_t
ck_path_slots(int64_t n, int64_t max_length)
{
    const int64_t edges = max_length < 0 ? 0 : max_length;
    return edges < n ? edges + 1 : n;
}

/* 1 iff path[0..last] read forward is its canonical direction: its label
 * ranks, compared from both ends, are not larger than read backward (the
 * endpoints decide unless their labels are equal); on a palindrome, the
 * direction that starts at the smaller vertex. */
static inline int
ck_forward_is_canonical(const int64_t *path, int64_t last, const int64_t *ranks)
{
    for (int64_t i = 0, j = last; i < j; ++i, --j) {
        const int64_t a = ranks[path[i]], b = ranks[path[j]];
        if (a != b)
            return a < b;
    }
    return path[0] < path[last];
}

/* Depth-first enumeration of every simple path of 0..max_length edges
 * (`enumerate_simple_paths` in tests/kernel_oracle.py is the oracle).  Both
 * directions of an undirected path are walked and the occurrence is
 * reported by the walk that reads it in its canonical direction, so each
 * path is reported once, under its canonical label sequence, with the fold
 * of its labels' `label_hashes` (per rank).  The path, cursor, fold and
 * key buffers are sized for this call.
 * Returns 0, or -1 on allocation failure. */
static int
ck_walk_paths(int64_t n, const int64_t *offsets, const int64_t *neighbours,
              const int64_t *ranks, int64_t max_length,
              const uint64_t *label_hashes, const ck_path_sink *sink)
{
    const int64_t slots = ck_path_slots(n, max_length);
    if (slots == 0)
        return 0;
    const int64_t limit = slots - 1;
    /* path, cursor (next neighbour to try), fold of path[0..depth], key */
    int64_t *buffer = (int64_t *)calloc((size_t)(4 * slots + 2), sizeof(int64_t));
    if (buffer == NULL)
        return -1;
    int64_t *path = buffer;
    int64_t *cursor = path + slots;
    uint64_t *fold = (uint64_t *)(cursor + slots);
    uint64_t *key = fold + slots;
    int status = 0;

    for (int64_t start = 0; start < n && status == 0; ++start) {
        path[0] = start;
        cursor[0] = offsets[start];
        fold[0] = ck_mix(CK_PATH_SEED ^ label_hashes[ranks[start]]);
        status = ck_report_path(sink, path, 0, ranks, fold[0], key);
        int64_t depth = limit > 0 ? 0 : -1;
        while (depth >= 0 && status == 0) {
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
            path[deeper] = next;
            fold[deeper] = ck_mix(fold[depth] ^ label_hashes[ranks[next]]);
            if (ck_forward_is_canonical(path, deeper, ranks))
                status = ck_report_path(sink, path, deeper, ranks, fold[deeper], key);
            if (deeper < limit) {
                cursor[deeper] = offsets[next];
                depth = deeper;
            }
        }
    }
    free(buffer);
    return status;
}

/* Path features of one graph (see the header for the argument and result
 * layout): every occurrence's feature code counted in a `ck_code_counts`
 * during the walk, so keys that share a code merge, then only the
 * distinct codes sorted.  Returns the malloc'd result block, to be
 * released with `ck_free`, or NULL on allocation failure. */
CK_EXPORT uint64_t *
ck_path_features(int64_t n, const int64_t *offsets, const int64_t *neighbours,
                 const int64_t *ranks, int64_t max_length,
                 const uint64_t *label_hashes)
{
    ck_code_counts counts;
    counts.pairs = counts.inline_pairs;
    counts.slots = (int64_t)(sizeof(counts.inline_pairs) / (2 * sizeof(uint64_t)));
    counts.distinct = 0;
    memset(counts.inline_pairs, 0, sizeof(counts.inline_pairs));
    uint64_t *block = NULL;
    const ck_path_sink sink = {&counts, NULL};

    if (ck_walk_paths(n, offsets, neighbours, ranks, max_length, label_hashes,
                      &sink) < 0)
        goto done;
    block = (uint64_t *)malloc((size_t)(1 + 2 * counts.distinct) * sizeof(uint64_t));
    if (block == NULL)
        goto done;
    block[0] = (uint64_t)counts.distinct;
    uint64_t *pairs = block + 1;
    int64_t row = 0;
    for (int64_t at = 0; at < counts.slots; ++at) {
        if (counts.pairs[2 * at + 1] != 0) {
            pairs[2 * row] = counts.pairs[2 * at];
            pairs[2 * row + 1] = counts.pairs[2 * at + 1];
            ++row;
        }
    }
    qsort(pairs, (size_t)counts.distinct, 2 * sizeof(uint64_t), ck_compare_pairs);
done:
    if (counts.pairs != counts.inline_pairs)
        free(counts.pairs);
    return block;
}

/* Location coverage of one graph (arguments as `ck_path_features`', less
 * the hashes): the sum over its distinct path keys of the number of
 * vertices the key's occurrences cover, from one walk into a
 * `ck_coverage` whose folds hash each rank by itself.  Per key, so before
 * any feature codes merge; the keys and mask rows live only for the call.
 * Returns the sum, or -1 on allocation failure. */
CK_EXPORT int64_t
ck_path_coverage(int64_t n, const int64_t *offsets, const int64_t *neighbours,
                 const int64_t *ranks, int64_t max_length)
{
    ck_coverage cover = {ck_path_slots(n, max_length) + 2, (n + 63) / 64,
                         0, 0, NULL, NULL, 0, NULL};
    const ck_path_sink sink = {NULL, &cover};
    int64_t covered = -1;
    int64_t num_ranks = 0;
    for (int64_t v = 0; v < n; ++v)
        if (ranks[v] >= num_ranks)
            num_ranks = ranks[v] + 1;
    uint64_t *rank_hashes = (uint64_t *)malloc((size_t)(num_ranks + 1) * sizeof(uint64_t));
    if (rank_hashes == NULL)
        goto done;
    for (int64_t rank = 0; rank < num_ranks; ++rank)
        rank_hashes[rank] = ck_mix((uint64_t)rank);
    cover.capacity = 64;
    cover.keys = (uint64_t *)malloc((size_t)(64 * cover.key_words) * sizeof(uint64_t));
    cover.masks = (uint64_t *)calloc((size_t)(64 * cover.num_words + 1), sizeof(uint64_t));
    cover.slots = 128;
    cover.table = (int64_t *)malloc(128 * sizeof(int64_t));
    if (cover.keys == NULL || cover.masks == NULL || cover.table == NULL)
        goto done;
    for (int64_t at = 0; at < cover.slots; ++at)
        cover.table[at] = -1;
    if (ck_walk_paths(n, offsets, neighbours, ranks, max_length, rank_hashes,
                      &sink) < 0)
        goto done;
    covered = 0;
    for (int64_t w = 0; w < cover.num_keys * cover.num_words; ++w)
        covered += ck_popcount64(cover.masks[w]);
done:
    free(rank_hashes);
    free(cover.keys);
    free(cover.masks);
    free(cover.table);
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

    const int64_t num_ints = 6 * n + 2 + num_edges + 2 * num_rows;
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
    int64_t *order = sig_degrees + n;

    for (int64_t v = 0; v < n; ++v) {
        starts[v] = (n - 1 - (offsets[v + 1] - offsets[v])) * n + ranks[v];
        by_rank[ranks[v]] = v;
        placed_neighbours[v] = 0;
        position[v] = -1;
    }
    qsort(starts, (size_t)n, sizeof(int64_t), ck_compare_int64);
    int64_t next_start = 0;
    int64_t frontier_size = 0;
    int64_t components = 0;
    for (int64_t placed = 0; placed < n; ++placed) {
        int64_t vertex;
        if (frontier_size == 0) {
            ++components;  /* the order restarts on a new component */
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
    p->connected = components <= 1;
    p->min_degrees = min_degrees;
    p->lookaheads = lookaheads;
    p->step_labels = step_labels;
    p->anchor_indptr = anchor_indptr;
    p->anchors = anchors;
    p->sig_labels = sig_labels;
    p->sig_indptr = sig_indptr;
    p->sig_degrees = sig_degrees;
    p->order = order;
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
    void *compiled;        /* ck_target / ck_plan of the entry, owned      */
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

/* Empty the row of `slot` (out of range or empty: nothing to do), freeing
 * its pairs and its compiled form. */
static void
ck_table_clear(ck_table *table, int64_t slot)
{
    if (slot < 0 || slot >= table->num_slots)
        return;
    ck_row *row = table->rows + slot;
    if (row->num_features < 0)
        return;
    table->feature_words -= 2 * row->num_features;
    free(row->features);
    free(row->compiled);
    row->features = NULL;
    row->compiled = NULL;
    row->num_features = -1;
}

CK_EXPORT void
ck_table_free(ck_table *table)
{
    if (table == NULL)
        return;
    for (int64_t slot = 0; slot < table->num_slots; ++slot) {
        free(table->rows[slot].features);
        free(table->rows[slot].compiled);
    }
    free(table->rows);
    free(table);
}

/* The fields of one inserted row of ck_table_apply, CK_ROW_FIELDS int64s
 * a row: its slot, entry id, number of (code, count) pairs, vertex and
 * edge counts, then either the address of a compiled form the table takes
 * over (CK_ROW_COMPILED non-zero) or, with 0 there, the graph's
 * `ck_compile_*` arguments (n, offsets*, neighbours*, label_ids*, ranks*)
 * to compile it from. */
enum {
    CK_ROW_SLOT, CK_ROW_ENTRY, CK_ROW_PAIRS, CK_ROW_VERTICES, CK_ROW_EDGES,
    CK_ROW_COMPILED, CK_ROW_GRAPH, CK_ROW_FIELDS = CK_ROW_GRAPH + 5
};

/* One window flush of a table: empty the rows of the `num_clears` slots
 * `clears` names (an empty or unknown slot is skipped), then write the
 * `num_rows` rows `rows` describes (CK_ROW_FIELDS each), a live row's slot
 * replaced, growing the table to reach every slot.  `pairs` holds the
 * rows' (code, count) pairs back to back, row order; each row gets a
 * malloc'd copy.  A row's compiled form becomes the table's: it is freed
 * when the row is cleared or replaced, or with the table.  Everything is
 * allocated before anything is committed, so a failure leaves the table
 * as it was and takes over no form.  Returns 0, -1 on allocation failure
 * or -2 on a negative slot or pair count. */
CK_EXPORT int64_t
ck_table_apply(ck_table *table, const int64_t *clears, int64_t num_clears,
               const int64_t *rows, int64_t num_rows, const uint64_t *pairs)
{
    int64_t num_slots = table->num_slots;
    for (int64_t i = 0; i < num_rows; ++i) {
        const int64_t *in = rows + i * CK_ROW_FIELDS;
        if (in[CK_ROW_SLOT] < 0 || in[CK_ROW_PAIRS] < 0)
            return -2;
        if (in[CK_ROW_SLOT] >= num_slots)
            num_slots = in[CK_ROW_SLOT] + 1;
    }
    /* per row its pairs' copy, then its compiled form (compiled here or
     * taken over: only the first kind is freed on failure) */
    void **made = (void **)calloc((size_t)(2 * num_rows + 1), sizeof(void *));
    if (made == NULL)
        return -1;
    const uint64_t *next = pairs;
    int64_t i = 0;
    for (; i < num_rows; ++i) {
        const int64_t *in = rows + i * CK_ROW_FIELDS;
        const int64_t num_pairs = in[CK_ROW_PAIRS];
        if (num_pairs > 0) {
            const size_t size = (size_t)num_pairs * 2 * sizeof(uint64_t);
            if ((made[2 * i] = malloc(size)) == NULL)
                break;
            memcpy(made[2 * i], next, size);
            next += 2 * num_pairs;
        }
        if (in[CK_ROW_COMPILED] != 0)
            continue;
        const int64_t *g = in + CK_ROW_GRAPH;
        const int64_t *offsets = (const int64_t *)(intptr_t)g[1];
        const int64_t *neighbours = (const int64_t *)(intptr_t)g[2];
        const int64_t *label_ids = (const int64_t *)(intptr_t)g[3];
        const int64_t *ranks = (const int64_t *)(intptr_t)g[4];
        made[2 * i + 1] = table->entries_are_targets
            ? (void *)ck_compile_target(g[0], offsets, neighbours, label_ids, ranks)
            : (void *)ck_compile_plan(g[0], offsets, neighbours, label_ids, ranks);
        if (made[2 * i + 1] == NULL)
            break;
    }
    if (i == num_rows && num_slots > table->num_slots) {
        int64_t grown = 2 * table->num_slots;
        if (grown < num_slots)
            grown = num_slots;
        ck_row *bigger = (ck_row *)realloc(table->rows, (size_t)grown * sizeof(ck_row));
        if (bigger == NULL) {
            i = -1;
        } else {
            for (int64_t fresh = table->num_slots; fresh < grown; ++fresh) {
                bigger[fresh].num_features = -1;
                bigger[fresh].features = NULL;
                bigger[fresh].compiled = NULL;
            }
            table->rows = bigger;
            table->num_slots = grown;
        }
    }
    if (i != num_rows) {
        for (int64_t j = 0; j < 2 * num_rows; ++j)
            free(made[j]);
        free(made);
        return -1;
    }
    for (int64_t c = 0; c < num_clears; ++c)
        ck_table_clear(table, clears[c]);
    for (i = 0; i < num_rows; ++i) {
        const int64_t *in = rows + i * CK_ROW_FIELDS;
        const int64_t slot = in[CK_ROW_SLOT];
        ck_table_clear(table, slot);
        ck_row *row = table->rows + slot;
        row->num_features = in[CK_ROW_PAIRS];
        row->num_vertices = in[CK_ROW_VERTICES];
        row->num_edges = in[CK_ROW_EDGES];
        row->entry_id = in[CK_ROW_ENTRY];
        row->compiled = in[CK_ROW_COMPILED] != 0
            ? (void *)(intptr_t)in[CK_ROW_COMPILED] : made[2 * i + 1];
        row->features = (uint64_t *)made[2 * i];
        table->feature_words += 2 * in[CK_ROW_PAIRS];
    }
    free(made);
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
 * for an empty or unknown slot), num_vertices, num_edges, entry_id, the
 * address of the pairs and that of the compiled form. */
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
    header[5] = (int64_t)(intptr_t)row->compiled;
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

/* ---------------------------------------------------------------------
 * The cache's column block
 * ------------------------------------------------------------------- */

typedef struct {
    int64_t capacity;      /* rows allocated                               */
    int64_t mask_words;    /* uint64 words of each answer row              */
    int64_t live;          /* live rows                                    */
    int64_t free_count;    /* free rows below `top`, stacked in free_rows  */
    int64_t top;           /* rows ever handed out (one past the highest)  */
    int64_t *entry_ids;    /* capacity; -1 marks a free row                */
    int64_t *num_vertices;
    int64_t *num_edges;
    int64_t *added_at;
    int64_t *hits;         /* H(g)                                         */
    int64_t *removed;      /* R(g)                                         */
    double *costs;         /* C(g)                                         */
    int64_t *order;        /* live rows by ascending entry id              */
    int64_t *free_rows;    /* capacity                                     */
    uint64_t *answers;     /* capacity * mask_words                        */
} ck_block;

CK_EXPORT void
ck_block_free(ck_block *block)
{
    if (block == NULL)
        return;
    free(block->entry_ids);
    free(block->num_vertices);
    free(block->num_edges);
    free(block->added_at);
    free(block->hits);
    free(block->removed);
    free(block->costs);
    free(block->order);
    free(block->free_rows);
    free(block->answers);
    free(block);
}

CK_EXPORT ck_block *
ck_block_new(void)
{
    return (ck_block *)calloc(1, sizeof(ck_block));
}

/* realloc `*column` to `capacity` items of `size` bytes; 0 or -1. */
static int
ck_grow_column(void **column, int64_t capacity, size_t size)
{
    void *grown = realloc(*column, (size_t)capacity * size);
    if (grown == NULL)
        return -1;
    *column = grown;
    return 0;
}

static int
ck_block_reserve(ck_block *block, int64_t want)
{
    if (want <= block->capacity)
        return 0;
    int64_t capacity = block->capacity ? 2 * block->capacity : 16;
    if (capacity < want)
        capacity = want;
    /* each column grows on its own: a failure leaves the grown ones larger
     * than `capacity` says, which is harmless */
    if (ck_grow_column((void **)&block->entry_ids, capacity, sizeof(int64_t)) ||
        ck_grow_column((void **)&block->num_vertices, capacity, sizeof(int64_t)) ||
        ck_grow_column((void **)&block->num_edges, capacity, sizeof(int64_t)) ||
        ck_grow_column((void **)&block->added_at, capacity, sizeof(int64_t)) ||
        ck_grow_column((void **)&block->hits, capacity, sizeof(int64_t)) ||
        ck_grow_column((void **)&block->removed, capacity, sizeof(int64_t)) ||
        ck_grow_column((void **)&block->costs, capacity, sizeof(double)) ||
        ck_grow_column((void **)&block->order, capacity, sizeof(int64_t)) ||
        ck_grow_column((void **)&block->free_rows, capacity, sizeof(int64_t)))
        return -1;
    if (block->mask_words > 0 &&
        ck_grow_column((void **)&block->answers, capacity,
                       (size_t)block->mask_words * sizeof(uint64_t)))
        return -1;
    block->capacity = capacity;
    return 0;
}

/* Where `entry_id` is or would go in `order`: the first position whose id
 * is not below it. */
static int64_t
ck_block_seek(const ck_block *block, int64_t entry_id)
{
    int64_t low = 0, high = block->live;
    while (low < high) {
        const int64_t middle = low + (high - low) / 2;
        if (block->entry_ids[block->order[middle]] < entry_id)
            low = middle + 1;
        else
            high = middle;
    }
    return low;
}

/* The row of `entry_id`, -1 when it has none. */
static int64_t
ck_block_find(const ck_block *block, int64_t entry_id)
{
    const int64_t at = ck_block_seek(block, entry_id);
    if (at == block->live || block->entry_ids[block->order[at]] != entry_id)
        return -1;
    return block->order[at];
}

/* Give each of `count` entries a row.  `rows` holds CK_BLOCK_FIELDS int64
 * per entry, row-major: entry id, |V|, |E|, insertion counter, H, R;
 * `costs` its C; `answers` its answer row (`count` rows of the block's
 * width back to back; NULL leaves the answers empty).  Returns 0, -1 on
 * allocation failure or -2 when an id already has a row or repeats; a
 * failure leaves the block as it was. */
#define CK_BLOCK_FIELDS 6
CK_EXPORT int64_t
ck_block_add(ck_block *block, int64_t count, const int64_t *rows,
             const double *costs, const uint64_t *answers)
{
    for (int64_t i = 0; i < count; ++i) {
        const int64_t entry_id = rows[i * CK_BLOCK_FIELDS];
        if (ck_block_find(block, entry_id) >= 0)
            return -2;
        for (int64_t j = 0; j < i; ++j)
            if (rows[j * CK_BLOCK_FIELDS] == entry_id)
                return -2;
    }
    if (ck_block_reserve(block, block->live + count))
        return -1;
    const int64_t W = block->mask_words;
    for (int64_t i = 0; i < count; ++i) {
        const int64_t *fields = rows + i * CK_BLOCK_FIELDS;
        const int64_t row = block->free_count
                                ? block->free_rows[--block->free_count]
                                : block->top++;
        block->entry_ids[row] = fields[0];
        block->num_vertices[row] = fields[1];
        block->num_edges[row] = fields[2];
        block->added_at[row] = fields[3];
        block->hits[row] = fields[4];
        block->removed[row] = fields[5];
        block->costs[row] = costs[i];
        if (W > 0) {
            if (answers != NULL)
                memcpy(block->answers + row * W, answers + i * W,
                       (size_t)W * sizeof(uint64_t));
            else
                memset(block->answers + row * W, 0, (size_t)W * sizeof(uint64_t));
        }
        const int64_t at = ck_block_seek(block, fields[0]);
        memmove(block->order + at + 1, block->order + at,
                (size_t)(block->live - at) * sizeof(int64_t));
        block->order[at] = row;
        ++block->live;
    }
    return 0;
}

/* Free the rows of `count` entries, writing each one's final H, R and C
 * to the outputs.  Returns 0, or -1 when an id has no row or repeats
 * (nothing is freed then). */
CK_EXPORT int64_t
ck_block_remove(ck_block *block, int64_t count, const int64_t *entry_ids,
                int64_t *out_hits, int64_t *out_removed, double *out_costs)
{
    for (int64_t i = 0; i < count; ++i) {
        if (ck_block_find(block, entry_ids[i]) < 0)
            return -1;
        for (int64_t j = 0; j < i; ++j)
            if (entry_ids[j] == entry_ids[i])
                return -1;
    }
    for (int64_t i = 0; i < count; ++i) {
        const int64_t at = ck_block_seek(block, entry_ids[i]);
        const int64_t row = block->order[at];
        out_hits[i] = block->hits[row];
        out_removed[i] = block->removed[row];
        out_costs[i] = block->costs[row];
        block->entry_ids[row] = -1;
        block->free_rows[block->free_count++] = row;
        --block->live;
        memmove(block->order + at, block->order + at + 1,
                (size_t)(block->live - at) * sizeof(int64_t));
    }
    return 0;
}

/* Set the answer width to `mask_words` (at least 1) words; every answer
 * row reads empty until it is written again.  0, or -1 on a width below 1
 * or an allocation failure (the old width stays). */
CK_EXPORT int64_t
ck_block_set_width(ck_block *block, int64_t mask_words)
{
    uint64_t *answers = NULL;
    if (mask_words < 1)
        return -1;
    if (block->capacity > 0) {
        answers = (uint64_t *)calloc((size_t)(block->capacity * mask_words),
                                     sizeof(uint64_t));
        if (answers == NULL)
            return -1;
    }
    free(block->answers);
    block->answers = answers;
    block->mask_words = mask_words;
    return 0;
}

/* Copy answer row i of `masks` (`count` rows of the block's width back to
 * back) into the row of entry_ids[i]; 0, or -1 when an id has no row or no
 * width is set (nothing is written then). */
CK_EXPORT int64_t
ck_block_set_answers(ck_block *block, int64_t count, const int64_t *entry_ids,
                     const uint64_t *masks)
{
    const int64_t W = block->mask_words;
    if (W == 0)
        return -1;
    for (int64_t i = 0; i < count; ++i)
        if (ck_block_find(block, entry_ids[i]) < 0)
            return -1;
    for (int64_t i = 0; i < count; ++i)
        memcpy(block->answers + ck_block_find(block, entry_ids[i]) * W,
               masks + i * W, (size_t)W * sizeof(uint64_t));
    return 0;
}

/* Read (`write` 0) or overwrite the H, R and C of `entry_id`: counts[0..1]
 * are H and R, *cost is C.  0, or -1 when the id has no row. */
CK_EXPORT int64_t
ck_block_stats(ck_block *block, int64_t entry_id, int64_t write,
               int64_t *counts, double *cost)
{
    const int64_t row = ck_block_find(block, entry_id);
    if (row < 0)
        return -1;
    if (write) {
        block->hits[row] = counts[0];
        block->removed[row] = counts[1];
        block->costs[row] = *cost;
    } else {
        counts[0] = block->hits[row];
        counts[1] = block->removed[row];
        *cost = block->costs[row];
    }
    return 0;
}

/* The live rows' columns by ascending entry id (each output has room for
 * the live count, which is returned; NULL outputs only count). */
CK_EXPORT int64_t
ck_block_columns(const ck_block *block, int64_t *out_ids, int64_t *out_added,
                 int64_t *out_hits, int64_t *out_removed, double *out_costs)
{
    if (out_ids == NULL || out_added == NULL || out_hits == NULL ||
        out_removed == NULL || out_costs == NULL)
        return block->live;
    for (int64_t at = 0; at < block->live; ++at) {
        const int64_t row = block->order[at];
        out_ids[at] = block->entry_ids[row];
        out_added[at] = block->added_at[row];
        out_hits[at] = block->hits[row];
        out_removed[at] = block->removed[row];
        out_costs[at] = block->costs[row];
    }
    return block->live;
}

/* Heap bytes held by the block. */
CK_EXPORT int64_t
ck_block_bytes(const ck_block *block)
{
    return (int64_t)sizeof(ck_block) +
           block->capacity * (int64_t)(9 * sizeof(int64_t)) +
           (block->answers == NULL ? 0 : block->capacity * block->mask_words *
                                         (int64_t)sizeof(uint64_t));
}

/* One hit's section 5.1 credit: H += 1, R += `removed`, C += `cost`. */
static inline void
ck_block_credit_row(ck_block *block, int64_t row, int64_t removed, double cost)
{
    block->hits[row] += 1;
    block->removed[row] += removed;
    block->costs[row] += cost;
}

/* Formulae (3)-(5) and the section 4.4 mirror over one query's hits, and
 * their section 5.1 credits.
 *
 * `hit_ids` are the guaranteeing component's hits (the first
 * `num_guaranteeing`), then the restricting component's, each ascending.
 * `candidates` is CS(g) and `costs` the cost of one test per position
 * (`num_positions` of them).  Writes four masks of the block's width to
 * `out_masks`: the guaranteed OR, the pruned candidates, the remaining
 * candidates and the answer of the first hit whose |V| and |E| equal
 * (`query_vertices`, `query_edges`) — an isomorphic earlier query,
 * section 4.3 case 1 — with its position in `hit_ids` as out_flags[1] (-1
 * and an empty mask without one).  out_flags[0] is 1 when a restricting
 * hit's answer is empty (section 4.3 case 2: everything not guaranteed is
 * pruned).
 *
 * Each hit's credit is the candidates it frees (guaranteeing: its answer
 * AND CS(g); restricting: CS(g) AND NOT its answer): R adds their count, C
 * their costs added from 0.0 in ascending position order.  The credits are
 * applied in hit order and also written out per hit (row, removed, cost)
 * for a replay (ck_block_credit).  Returns 0, or -1 when an id has no row
 * or no width is set (nothing is written or credited then).
 *
 * The arguments but the block and CS(g) travel in one `ck_plan_call`, which
 * the caller keeps and rewrites per call (`ColumnBlock.plan` in
 * src/repro/core/probe.py): one pointer converts faster than a dozen
 * scalars. */
typedef struct {
    const int64_t *hit_ids;
    int64_t num_hits;
    int64_t num_guaranteeing;
    const double *costs;
    int64_t num_positions;
    int64_t query_vertices;
    int64_t query_edges;
    uint64_t *out_masks;
    int64_t *out_rows;
    int64_t *out_removed;
    double *out_costs;
    int64_t *out_flags;
} ck_plan_call;

CK_EXPORT int64_t
ck_block_plan(ck_block *block, const ck_plan_call *call,
              const uint64_t *candidates)
{
    const int64_t *hit_ids = call->hit_ids;
    const int64_t num_hits = call->num_hits;
    const int64_t num_guaranteeing = call->num_guaranteeing;
    const double *costs = call->costs;
    const int64_t num_positions = call->num_positions;
    const int64_t query_vertices = call->query_vertices;
    const int64_t query_edges = call->query_edges;
    uint64_t *out_masks = call->out_masks;
    int64_t *out_rows = call->out_rows;
    int64_t *out_removed = call->out_removed;
    double *out_costs = call->out_costs;
    int64_t *out_flags = call->out_flags;
    const int64_t W = block->mask_words;
    if (W == 0)
        return -1;
    for (int64_t i = 0; i < num_hits; ++i) {
        out_rows[i] = ck_block_find(block, hit_ids[i]);
        if (out_rows[i] < 0)
            return -1;
    }
    uint64_t *guaranteed = out_masks, *pruned = out_masks + W,
             *remaining = out_masks + 2 * W, *exact = out_masks + 3 * W;
    memset(out_masks, 0, (size_t)(4 * W) * sizeof(uint64_t));
    out_flags[0] = 0;
    out_flags[1] = -1;
    for (int64_t i = 0; i < num_hits; ++i) {
        const int64_t row = out_rows[i];
        if (block->num_vertices[row] == query_vertices &&
            block->num_edges[row] == query_edges) {
            out_flags[1] = i;
            memcpy(exact, block->answers + row * W, (size_t)W * sizeof(uint64_t));
            break;
        }
    }
    int any_empty = 0;
    for (int64_t i = num_guaranteeing; i < num_hits && !any_empty; ++i) {
        const uint64_t *answer = block->answers + out_rows[i] * W;
        any_empty = 1;
        for (int64_t w = 0; w < W && any_empty; ++w)
            any_empty = answer[w] == 0;
    }
    out_flags[0] = any_empty;
    for (int64_t w = 0; w < W; ++w) {
        uint64_t ored = 0, allowed = ~(uint64_t)0;
        for (int64_t i = 0; i < num_guaranteeing; ++i)
            ored |= block->answers[out_rows[i] * W + w];
        for (int64_t i = num_guaranteeing; i < num_hits; ++i)
            allowed &= block->answers[out_rows[i] * W + w];
        const uint64_t left = candidates[w] & ~ored;
        const uint64_t kept = left & allowed;  /* 0 with an empty answer */
        guaranteed[w] = ored;
        remaining[w] = kept;
        pruned[w] = (candidates[w] & ored) | (left & ~kept);
    }
    for (int64_t i = 0; i < num_hits; ++i) {
        const int64_t row = out_rows[i];
        const uint64_t *answer = block->answers + row * W;
        int64_t count = 0;
        double total = 0.0;
        for (int64_t w = 0; w < W; ++w) {
            uint64_t bits = i < num_guaranteeing ? answer[w] & candidates[w]
                                                 : candidates[w] & ~answer[w];
            count += ck_popcount64(bits);
            while (bits) {
                const int64_t position = (w << 6) + ck_ctz64(bits);
                bits &= bits - 1;
                if (position < num_positions)
                    total += costs[position];
            }
        }
        out_removed[i] = count;
        out_costs[i] = total;
        ck_block_credit_row(block, row, count, total);
    }
    return 0;
}

/* Re-apply a plan's credits, (rows[i], removed[i], costs[i]) in order, as
 * ck_block_plan wrote them.  The caller replays only while the live set is
 * the one the plan was made on; a row that is not live is skipped. */
CK_EXPORT void
ck_block_credit(ck_block *block, const int64_t *rows, const int64_t *removed,
                const double *costs, int64_t num_credits)
{
    for (int64_t i = 0; i < num_credits; ++i) {
        const int64_t row = rows[i];
        if (row >= 0 && row < block->top && block->entry_ids[row] >= 0)
            ck_block_credit_row(block, row, removed[i], costs[i]);
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
