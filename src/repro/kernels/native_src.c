/* Struct-of-arrays batch kernels for the RWP cache simulator.
 *
 * Compiled on demand by repro.kernels.build with the system C compiler
 * and bound via ctypes.  Every loop here replays exactly what a Python
 * batch driver in repro/cache/cache.py does (same operation order, same
 * IEEE-754 double arithmetic), so results are bit-identical to the
 * dict-driven paths and the scalar access() walk:
 *
 *   rw_run_trace   <->  SetAssociativeCache.run_trace, recency-stamped
 *                       plans and the DIP/DRRIP/SHiP/RRP comparators
 *                       (timed or untimed)
 *   rw_lru_filter  <->  SetAssociativeCache.run_lru_filter
 *   rw_multicore   <->  SharedLLCSystem.run over run_trace_session
 *   rw_timing_walk <->  HierarchyRunner.run's measured timing walk, over
 *                       the flat TimingModel or a PCMBackend
 *
 * With the sharer columns bound (CacheCtx.sharers != NULL), rw_run_trace
 * and rw_multicore also keep the multicore SharerDirectory inline, in
 * the order its observe/on_evict listeners fire on the scalar walk, and
 * rwp-core routes shared lines to its shared claimant.  The flag is read
 * once per call: untracked replays run the loop compiled without it.
 *
 * The paper's comparator policies (CacheCtx.policy_kind != 0) run in a
 * third copy of the loop with their hooks ported from repro/cache/dip.py,
 * rrip.py, ship.py and repro/core/rrp.py: set-dueling PSEL, the CheapLCG
 * coin, the PC-indexed counter table and RRP's write bypass, over three
 * more per-line columns (rrpv, signature, outcome).
 *
 * Floating point: additions and subtractions only, in source order.
 * Build flags must keep IEEE semantics (-ffp-contract=off, no
 * -ffast-math); nextafter() matches Python's math.nextafter.
 *
 * The RWP shadow sampler runs in C (it fires per sampled access); the
 * epoch repartition stays in Python and is reached through a ctypes
 * callback that reads/writes the shared context struct.
 */

#include <math.h>
#include <stdint.h>

#define RW_KERNEL_ABI 4

/* victim kinds */
#define VICTIM_MIN_STAMP 0
#define VICTIM_RWP 1
#define VICTIM_CORE_RWP 2
#define VICTIM_CORE_RWP_SHARED 3 /* rwp-core plus the shared-line group */

/* comparator policies (CacheCtx.policy_kind); 0 runs victim_kind */
#define POLICY_STAMPED 0
#define POLICY_DIP 1
#define POLICY_DRRIP 2
#define POLICY_SHIP 3
#define POLICY_RRP 4

/* SetDueling roles (repro/cache/dueling.py); FOLLOWER (2) follows PSEL */
#define TEAM_A 0
#define TEAM_B 1

/* 2-bit re-reference prediction values (repro/cache/rrip.py) */
#define RRPV_MAX 3
#define RRPV_LONG 2

/* run status */
#define STATUS_OK 0
#define STATUS_CALLBACK_ABORT 2

#define MAX_POLICY_CORES 64

/* Returns nonzero to abort the run (a Python-side exception). */
typedef int32_t (*epoch_cb_t)(void);

typedef struct {
    /* geometry */
    int64_t num_sets, ways, index_bits, offset_bits;
    /* per-line state [num_sets * ways], way-major within a set */
    int64_t *tag;
    int64_t *stamp;
    int64_t *owner;
    uint8_t *valid;
    uint8_t *dirty;
    uint8_t *read_seen;
    uint8_t *write_seen;
    /* per-set state [num_sets] */
    int64_t *filled;
    int64_t *dirty_lines;
    /* sharer directory columns [num_sets * ways]; sharers == NULL: off.
     * A zero mask is an untracked line (its last_writer reads -1). */
    uint64_t *sharers;
    int64_t *last_writer;
    /* policy */
    int64_t victim_kind;
    int64_t target_clean;   /* RWP; the epoch callback refreshes it */
    int64_t policy_cores;   /* rwp-core: owner group = owner % policy_cores */
    int64_t *clean_targets; /* [policy_cores] */
    int64_t *dirty_targets; /* [policy_cores (+1 shared group)] */
    int64_t clock;          /* RecencyStampMixin._clock */
    /* shadow sampler (sample_stride == 0: none) */
    int64_t sample_stride;
    int64_t sampler_route_mod; /* 0: single sampler; else core % mod */
    int64_t shadow_slots;      /* slots per sampler = ceil(num_sets/stride) */
    int64_t shared_sampler;    /* shared lines' sampler (>= 1); 0: none */
    int64_t *sh_tags;          /* [samplers][slots][2][ways], 0=clean 1=dirty */
    int64_t *sh_len;           /* [samplers][slots][2] */
    uint8_t *sh_touched;       /* [samplers][slots] */
    int64_t *hist;             /* [samplers][2][ways] read-hit histograms */
    /* epoch */
    int64_t epoch_period;
    int64_t epoch_left;
    epoch_cb_t epoch_cb;
    /* cache-wide statistics (absolute values, flushed by scatter) */
    int64_t read_hits, write_hits, read_misses, write_misses;
    int64_t evictions, dirty_evictions, writebacks;
    int64_t evicted_ro, evicted_wo, evicted_rw;
    /* SharerDirectory counters (tracked == len(table)) */
    int64_t tracked, peak_tracked, shared_lines, shared_accesses;
    int64_t shared_writes, write_migrations, shared_evictions;
    int64_t status;
    /* comparator policies (policy_kind != POLICY_STAMPED); appended so
     * the stamped loops see the struct layout they always have */
    int64_t policy_kind;
    int64_t *rrpv;         /* per-line columns [num_sets * ways] */
    int64_t *signature;
    int64_t *outcome;
    const uint8_t *roles;  /* [num_sets] SetDueling role (DIP, DRRIP) */
    int64_t psel, psel_max, psel_mid;
    int64_t coin;          /* CheapLCG state, a uint32 */
    int64_t coin_odds;     /* coin.chance(coin_odds), >= 1 */
    int64_t *counters;     /* SHiP SHCT / RRP predictor [counter_mask + 1] */
    int64_t counter_mask;
    int64_t counter_max;
    int64_t bypass_writes; /* RRP: write misses may bypass */
    int64_t bypassed_writes;
    int64_t bypasses;      /* CacheStats.bypasses */
} CacheCtx;

typedef struct {
    /* decoded streams (absolute indices) */
    const int64_t *set_stream;
    const int64_t *tag_stream;
    const uint8_t *write_stream;
    const double *cycle_stream; /* NULL when untimed */
    const int64_t *gap_stream;  /* NULL when untimed */
    /* timing accumulator (TimingModel fields) */
    int64_t timed;
    double hit_stall, miss_stall;
    double cycles, read_stall, write_stall;
    int64_t instructions;
    double cycle_limit; /* INFINITY when unbounded */
    /* write buffer ring (WriteBufferModel._completions) */
    double *wb_ring;
    int64_t wb_cap, wb_head, wb_len, wb_entries;
    double wb_drain, wb_server_free, wb_stall_cycles;
    int64_t wb_writes;
    /* issuing core and per-core tallies (sessions) */
    int64_t core;
    int64_t rh, rm, wh, wm;
    int64_t first_unconditional; /* session: first access ignores limit */
    /* hierarchy LLC-residue attribution (collect mode, untimed):
     * levels != NULL switches it on */
    const int64_t *origin_stream;
    int64_t *levels;  /* per-origin service level (2 = LLC, 3 = memory) */
    int64_t *mem;     /* per-origin memory-write count */
    int64_t *wb_out;  /* writeback block addresses, residue order */
    int64_t wb_out_count;
    const int64_t *pc_stream; /* SHiP/RRP only; NULL otherwise */
} LaneCtx;

/* PCMBackend (repro/mem/pcm.py) state for rw_timing_walk. */
typedef struct {
    /* request address -> partition: a block is address >> offset_bits,
     * a read's block is (tag << read_index_bits) | set of the demand
     * streams, and partition = (block >> block_shift) & part_mask */
    int64_t read_index_bits;
    int64_t block_shift;
    int64_t part_mask;
    double read_latency;
    double write_latency;
    double slice_len; /* write_latency / pause_slices */
    double mlp;       /* CoreConfig.mlp: a read stalls latency / mlp */
    int64_t queue_entries;
    double *write_free; /* [part_mask + 1] */
    double *read_free;  /* [part_mask + 1] */
    double *queue;      /* write completions, a heapq-layout min-heap */
    int64_t queue_len;
    int64_t reads, writes, pause_events, queue_full_stalls;
    double read_wait_cycles, write_stall_cycles, write_busy_cycles;
} PcmCtx;

typedef struct {
    int64_t num_cores;
    LaneCtx *lanes;         /* [num_cores] */
    const int64_t *lengths; /* per-core trace length */
    int64_t warmup;
    int64_t *position;
    uint8_t *done;
    double *effective;
    int64_t *base_rh, *base_rm, *base_wh, *base_wm;
    /* tallies snapshotted when the core freezes (it keeps replaying for
     * pressure afterwards, so the live lane counters run past these) */
    int64_t *frozen_rh, *frozen_rm, *frozen_wh, *frozen_wm;
    int64_t *frozen_instr;
    double *frozen_cycles;
    int64_t *ticks;
    int64_t remaining;
} MultiCtx;

typedef struct {
    const int64_t *set_stream;
    const int64_t *tag_stream;
    const uint8_t *write_stream;
    const int64_t *origins; /* NULL: demand mode */
    int64_t *levels;        /* may be NULL */
    int64_t level;
    int64_t core;
    int64_t *out_blocks;
    uint8_t *out_write;
    int64_t *out_origin;
    int64_t out_count; /* in/out append cursor */
    int64_t forwarded; /* out */
} FilterCtx;

int64_t rw_abi_version(void) { return RW_KERNEL_ABI; }

/* A line's block address, (tag << index_bits) | set, shifted unsigned so
 * no tag is undefined behaviour; callers that emit blocks first check
 * that every tag they can meet fits (the Python side declines). */
#define BLOCK_OF(tag, index_bits, si) \
    ((int64_t)(((uint64_t)(tag) << (index_bits)) | (uint64_t)(si)))

/* The lane loop is compiled twice, with and without sharer tracking;
 * forcing its helpers inline keeps both copies the shape of the one
 * loop the untracked replays have always run. */
#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* Two or more bits set: a line two cores touched in one residency. */
#define MULTI_SHARER(mask) (((mask) & ((mask) - 1)) != 0)

/* ReadWriteSampler.observe, ported stack-for-stack. */
ALWAYS_INLINE void sampler_observe(
    CacheCtx *c, int64_t core, int64_t si, int64_t tag, int w
) {
    int64_t ways = c->ways;
    int64_t sampler = c->sampler_route_mod > 0 ? core % c->sampler_route_mod : 0;
    int64_t slot = si / c->sample_stride;
    int64_t sbase = sampler * c->shadow_slots + slot;
    int64_t *clean = c->sh_tags + sbase * 2 * ways;
    int64_t *dirty = clean + ways;
    int64_t *clen = c->sh_len + sbase * 2;
    int64_t *dlen = clen + 1;
    int64_t *hist_clean = c->hist + sampler * 2 * ways;
    int64_t *hist_dirty = hist_clean + ways;
    int64_t p, q, keep;

    c->sh_touched[sbase] = 1;

    for (p = 0; p < *clen; p++) {
        if (clean[p] == tag) {
            for (q = p; q < *clen - 1; q++) clean[q] = clean[q + 1];
            (*clen)--;
            if (w) {
                /* becomes dirty: dirty.insert(0, tag), capped at ways */
                keep = *dlen < ways ? *dlen : ways - 1;
                for (q = keep; q > 0; q--) dirty[q] = dirty[q - 1];
                dirty[0] = tag;
                *dlen = keep + 1;
            } else {
                hist_clean[p]++;
                for (q = *clen; q > 0; q--) clean[q] = clean[q - 1];
                clean[0] = tag;
                (*clen)++;
            }
            return;
        }
    }
    for (p = 0; p < *dlen; p++) {
        if (dirty[p] == tag) {
            if (!w) hist_dirty[p]++;
            for (q = p; q > 0; q--) dirty[q] = dirty[q - 1];
            dirty[0] = tag;
            return;
        }
    }
    /* shadow miss: fill the matching partition's stack */
    {
        int64_t *stack = w ? dirty : clean;
        int64_t *slen = w ? dlen : clen;
        keep = *slen < ways ? *slen : ways - 1;
        for (q = keep; q > 0; q--) stack[q] = stack[q - 1];
        stack[0] = tag;
        *slen = keep + 1;
    }
}

static int64_t min_stamp_way(const int64_t *stamp, int64_t ways) {
    int64_t wy, best = 0, best_stamp = stamp[0];
    for (wy = 1; wy < ways; wy++) {
        if (stamp[wy] < best_stamp) {
            best = wy;
            best_stamp = stamp[wy];
        }
    }
    return best;
}

/* CoreAwareRWPPolicy.victim (shared == 0) and ._victim_shared
 * (shared == 1, num_cores + 1 groups: a line with two or more sharers
 * belongs to group num_cores, whoever filled it). */
ALWAYS_INLINE int64_t core_rwp_victim(
    const CacheCtx *c, int64_t base, const int shared
) {
    int64_t ways = c->ways;
    int64_t cores = c->policy_cores;
    const int64_t *stamp = c->stamp + base;
    const uint8_t *dirty = c->dirty + base;
    const int64_t *owner = c->owner + base;
    const uint64_t *sharers = shared ? c->sharers + base : 0;
    int64_t clean_occ[MAX_POLICY_CORES + 1] = {0};
    int64_t dirty_occ[MAX_POLICY_CORES + 1] = {0};
    int64_t wy, best, best_stamp;
    /* owner % cores, skipping the division for the usual owner < cores */
#define GROUP_OF(wy)                                                   \
    (shared && MULTI_SHARER(sharers[wy]) ? cores                       \
     : owner[wy] < cores ? owner[wy] : owner[wy] % cores)
    for (wy = 0; wy < ways; wy++) {
        int64_t who = GROUP_OF(wy);
        if (dirty[wy]) dirty_occ[who]++;
        else clean_occ[who]++;
    }
    best = -1;
    best_stamp = 0;
    for (wy = 0; wy < ways; wy++) {
        int64_t who = GROUP_OF(wy);
        int over = dirty[wy]
            ? dirty_occ[who] >= c->dirty_targets[who]
            : clean_occ[who] >= c->clean_targets[who];
        if (over && (best < 0 || stamp[wy] < best_stamp)) {
            best = wy;
            best_stamp = stamp[wy];
        }
    }
#undef GROUP_OF
    if (best >= 0) return best;
    /* every occupied group under budget: whole-set LRU */
    return min_stamp_way(stamp, ways);
}

/* Victim way for a full set.  Stamps are unique per policy clock, so a
 * strict-min scan picks the same line as the reference drivers' dict
 * iteration / min() calls. */
static int64_t select_victim(
    const CacheCtx *c, int64_t si, int64_t base, int w
) {
    int64_t ways = c->ways;
    const int64_t *stamp = c->stamp + base;
    const uint8_t *dirty = c->dirty + base;
    int64_t wy, best, best_stamp;

    if (c->victim_kind == VICTIM_RWP) {
        int64_t dc = c->dirty_lines[si];
        int64_t td = ways - c->target_clean;
        int evict_dirty = dc > td ? 1 : (dc < td ? 0 : w);
        if (evict_dirty ? dc != 0 : dc != ways) {
            best = -1;
            best_stamp = 0;
            for (wy = 0; wy < ways; wy++) {
                if ((dirty[wy] != 0) == evict_dirty) {
                    if (best < 0 || stamp[wy] < best_stamp) {
                        best = wy;
                        best_stamp = stamp[wy];
                    }
                }
            }
            return best;
        }
        /* chosen partition empty: whole-set LRU below */
    } else if (c->victim_kind == VICTIM_CORE_RWP) {
        return core_rwp_victim(c, base, 0);
    } else if (c->victim_kind == VICTIM_CORE_RWP_SHARED) {
        return core_rwp_victim(c, base, 1);
    }
    return min_stamp_way(stamp, ways);
}

/* Inlined WriteBufferModel.issue(cycles): same arithmetic, same order. */
ALWAYS_INLINE void wb_issue(LaneCtx *l, double *cycles, double *write_stall) {
    while (l->wb_len && l->wb_ring[l->wb_head] <= *cycles) {
        l->wb_head = (l->wb_head + 1) % l->wb_cap;
        l->wb_len--;
    }
    if (l->wb_len >= l->wb_entries) {
        double stall = l->wb_ring[l->wb_head] - *cycles;
        l->wb_head = (l->wb_head + 1) % l->wb_cap;
        l->wb_len--;
        l->wb_stall_cycles += stall;
        *write_stall += stall;
        *cycles += stall;
    }
    l->wb_server_free =
        (*cycles > l->wb_server_free ? *cycles : l->wb_server_free)
        + l->wb_drain;
    l->wb_ring[(l->wb_head + l->wb_len) % l->wb_cap] = l->wb_server_free;
    l->wb_len++;
    l->wb_writes++;
}

/* Way holding ``tag`` in the set at ``base``, or -1. */
ALWAYS_INLINE int64_t find_way(
    const uint8_t *valid, const int64_t *tags, int64_t base, int64_t ways,
    int64_t tag
) {
    int64_t wy;
    for (wy = 0; wy < ways; wy++) {
        if (valid[base + wy] && tags[base + wy] == tag) return base + wy;
    }
    return -1;
}

/* CheapLCG.chance: advance the ranqd1 state, then test state % odds. */
ALWAYS_INLINE int coin_chance(CacheCtx *c) {
    uint32_t state = (uint32_t)c->coin * 1664525u + 1013904223u;
    c->coin = state;
    return state % (uint64_t)c->coin_odds == 0;
}

/* pc_signature of ship.py / rrp.py.  Python multiplies unbounded ints;
 * the masked low bits of the uint64 product are the same. */
ALWAYS_INLINE int64_t pc_signature(int64_t pc, int64_t mask) {
    return (int64_t)(((uint64_t)(pc >> 2) * 2654435761u) & (uint64_t)mask);
}

/* SetDueling.record_miss, then team_for(set) == TEAM_A. */
ALWAYS_INLINE int duel_team_a(CacheCtx *c, int64_t si) {
    int64_t role = c->roles[si];
    if (role == TEAM_A) {
        if (c->psel < c->psel_max) c->psel++;
        return 1;
    }
    if (role == TEAM_B) {
        if (c->psel > 0) c->psel--;
        return 0;
    }
    /* a follower: a high PSEL means team A misses more, follow B */
    return c->psel < c->psel_mid;
}

/* The LRU-position stamp of DIP/RRP inserts: one below every stamp in
 * the set, the just-reset filled way (stamp 0) and invalid ways
 * included. */
ALWAYS_INLINE int64_t lru_position(const int64_t *stamp, int64_t ways) {
    int64_t wy, low = stamp[0];
    for (wy = 1; wy < ways; wy++) {
        if (stamp[wy] < low) low = stamp[wy];
    }
    return low - 1;
}

/* rrip._rrip_victim: age every line by one until one reaches RRPV_MAX;
 * the first such way wins.  Aging all the missing rounds at once picks
 * the same way: the first one holding the set's largest RRPV. */
ALWAYS_INLINE int64_t rrip_victim(int64_t *rrpv, int64_t ways) {
    int64_t wy, best = 0, top = rrpv[0];
    for (wy = 0; wy < ways; wy++) {
        if (rrpv[wy] >= RRPV_MAX) return wy;
    }
    /* every line below RRPV_MAX: age them all by RRPV_MAX - top */
    for (wy = 1; wy < ways; wy++) {
        if (rrpv[wy] > top) {
            best = wy;
            top = rrpv[wy];
        }
    }
    for (wy = 0; wy < ways; wy++) rrpv[wy] += RRPV_MAX - top;
    return best;
}

/* on_hit of DIP (the recency stamp), DRRIP, SHiP and RRP. */
ALWAYS_INLINE void comparator_hit(
    CacheCtx *c, int64_t li, int w, int64_t *clock
) {
    int64_t *outcome = c->outcome + li;
    int64_t *counter;
    switch (c->policy_kind) {
    case POLICY_DIP:
        c->stamp[li] = ++*clock;
        return;
    case POLICY_DRRIP:
        c->rrpv[li] = 0;
        return;
    case POLICY_SHIP:
        c->rrpv[li] = 0;
        break;
    default: /* POLICY_RRP */
        ++*clock;
        /* a write to a line that served no read keeps its recency */
        if (w && *outcome == 0) return;
        c->stamp[li] = *clock;
        if (w) return;
        break;
    }
    /* first reuse (SHiP) / first read (RRP) trains the signature up */
    if (*outcome == 0) {
        *outcome = 1;
        counter = c->counters + c->signature[li];
        if (*counter < c->counter_max) (*counter)++;
    }
}

/* on_fill of the four, after reset_for_fill zeroed the policy columns
 * and the stamp.  A coin is drawn only where Python short-circuits. */
ALWAYS_INLINE void comparator_fill(
    CacheCtx *c, int64_t si, int64_t base, int64_t li, int w, int64_t pc,
    int64_t *clock
) {
    int64_t sig;
    switch (c->policy_kind) {
    case POLICY_DIP:
        if (duel_team_a(c, si) || coin_chance(c)) {
            c->stamp[li] = ++*clock;
        } else {
            c->stamp[li] = lru_position(c->stamp + base, c->ways);
        }
        return;
    case POLICY_DRRIP:
        c->rrpv[li] =
            duel_team_a(c, si) || coin_chance(c) ? RRPV_LONG : RRPV_MAX;
        return;
    case POLICY_SHIP:
        sig = pc_signature(pc, c->counter_mask);
        c->signature[li] = sig;
        c->rrpv[li] = c->counters[sig] > 0 ? RRPV_LONG : RRPV_MAX;
        return;
    default: /* POLICY_RRP */
        sig = pc_signature(pc, c->counter_mask);
        c->signature[li] = sig;
        ++*clock;
        /* a read fill predicted read-dead parks at the LRU position */
        c->stamp[li] = !w && c->counters[sig] <= 0
            ? lru_position(c->stamp + base, c->ways)
            : *clock;
        return;
    }
}

/* RRPPolicy.should_bypass for a write miss with bypassing armed. */
ALWAYS_INLINE int comparator_bypass(CacheCtx *c, int64_t pc) {
    if (c->counters[pc_signature(pc, c->counter_mask)] > 0) return 0;
    /* one in coin_odds predicted-dead writes fills, so the signature
     * stays trainable */
    if (coin_chance(c)) return 0;
    c->bypassed_writes++;
    return 1;
}

/* Victim way of a full set, then SHiP/RRP eviction training: a line
 * that saw no reuse trains its signature down. */
ALWAYS_INLINE int64_t comparator_victim(CacheCtx *c, int64_t base) {
    int64_t li;
    int64_t *counter;
    if (c->policy_kind == POLICY_DRRIP || c->policy_kind == POLICY_SHIP) {
        li = base + rrip_victim(c->rrpv + base, c->ways);
    } else {
        li = base + min_stamp_way(c->stamp + base, c->ways);
    }
    if (c->policy_kind >= POLICY_SHIP && c->outcome[li] == 0) {
        counter = c->counters + c->signature[li];
        if (*counter > 0) (*counter)--;
    }
    return li;
}

/* One bounded replay of lane accesses [start, stop): the shared inner
 * loop of rw_run_trace and rw_multicore.  Mirrors run_trace /
 * run_trace_session access-for-access; with ``track`` (a compile-time
 * constant) it also runs SharerDirectory.observe before the sampler and
 * SharerDirectory.on_evict on every eviction, as the scalar walk does.
 * With ``comparator`` (also constant) the policy hooks are the
 * comparator_* ports instead of the recency stamp and select_victim. */
ALWAYS_INLINE int64_t lane_loop(
    CacheCtx *c, LaneCtx *l, int64_t start, int64_t stop, const int track,
    const int comparator
) {
    const int64_t *set_stream = l->set_stream;
    const int64_t *tag_stream = l->tag_stream;
    const uint8_t *write_stream = l->write_stream;
    const double *cycle_stream = l->cycle_stream;
    const int64_t *gap_stream = l->gap_stream;
    /* Hoist the SoA pointers and hot counters into locals: the uint8_t
     * line-flag stores may alias anything reachable through c (unsigned
     * char aliases all types), so leaving these behind the struct
     * pointer forces a reload per access.  The epoch callback only
     * touches the victim targets and sampler histograms, never the
     * statistics or the clock, so those stay local across it. */
    int64_t *tag_a = c->tag;
    int64_t *stamp_a = c->stamp;
    int64_t *owner_a = c->owner;
    uint8_t *valid_a = c->valid;
    uint8_t *dirty_a = c->dirty;
    uint8_t *rs_a = c->read_seen;
    uint8_t *ws_a = c->write_seen;
    int64_t *filled_a = c->filled;
    int64_t *dl_a = c->dirty_lines;
    int64_t clock = c->clock;
    int64_t read_hits = c->read_hits, write_hits = c->write_hits;
    int64_t read_misses = c->read_misses, write_misses = c->write_misses;
    int64_t evictions = c->evictions, dirty_evictions = c->dirty_evictions;
    int64_t writebacks = c->writebacks;
    int64_t evicted_ro = c->evicted_ro, evicted_wo = c->evicted_wo;
    int64_t evicted_rw = c->evicted_rw;
    int64_t index_bits = c->index_bits;
    int64_t ways = c->ways;
    int64_t stride = c->sample_stride;
    int64_t period = c->epoch_period;
    int timed = (int)l->timed;
    double hit_stall = l->hit_stall;
    double miss_stall = l->miss_stall;
    double cycles = l->cycles;
    double read_stall = l->read_stall;
    double write_stall = l->write_stall;
    double limit = l->cycle_limit;
    int64_t core = l->core;
    int first_unconditional = (int)l->first_unconditional;
    const int64_t *origin_stream = l->origin_stream;
    int64_t *levels = l->levels;
    int attrib = levels != 0;
    /* sharer directory (track only) */
    uint64_t *sharers_a = c->sharers;
    int64_t *writer_a = c->last_writer;
    uint64_t bit = (uint64_t)1 << (core & 63);
    int64_t shared_sampler = c->shared_sampler;
    int64_t tracked = c->tracked, peak_tracked = c->peak_tracked;
    int64_t shared_lines = c->shared_lines;
    int64_t shared_accesses = c->shared_accesses;
    int64_t shared_writes = c->shared_writes;
    int64_t write_migrations = c->write_migrations;
    int64_t shared_evictions = c->shared_evictions;
    int64_t ran = 0;
    int64_t i;

    for (i = start; i < stop; i++) {
        int64_t si, tag, base, li, wy;
        int w;
        uint64_t mask = 0;
        int64_t writer = -1;
        if ((ran || !first_unconditional) && cycles >= limit) break;
        ran++;
        if (timed) cycles += cycle_stream[i];
        si = set_stream[i];
        tag = tag_stream[i];
        w = write_stream[i];
        base = si * ways;
        if (track) {
            /* SharerDirectory.observe: the lookup moves ahead of the
             * sampler and epoch hooks, which never touch line state.  A
             * miss, or a resident but untracked line, opens a fresh
             * entry; a miss keeps it in mask/writer until the fill. */
            li = find_way(valid_a, tag_a, base, ways, tag);
            if (li >= 0 && sharers_a[li]) {
                mask = sharers_a[li];
                writer = writer_a[li];
            } else if (++tracked > peak_tracked) {
                peak_tracked = tracked;
            }
            if (!(mask & bit)) {
                if (mask && !MULTI_SHARER(mask)) shared_lines++;
                mask |= bit;
            }
            if (MULTI_SHARER(mask)) {
                shared_accesses++;
                if (w) shared_writes++;
            }
            if (w) {
                if (writer != -1 && writer != core) write_migrations++;
                writer = core;
            }
            if (li >= 0) {
                sharers_a[li] = mask;
                writer_a[li] = writer;
            }
        }
        if (!comparator && stride && si % stride == 0) {
            /* CoreAwareRWPPolicy._sample: shared lines feed the shared
             * claimant's sampler instead of the issuing core's */
            int64_t who = track && shared_sampler && MULTI_SHARER(mask)
                ? shared_sampler : core;
            sampler_observe(c, who, si, tag, w);
        }
        if (!comparator && period) {
            if (--c->epoch_left == 0) {
                c->epoch_left = period;
                if (c->epoch_cb && c->epoch_cb()) {
                    c->status = STATUS_CALLBACK_ABORT;
                    break;
                }
            }
        }
        if (!track) li = find_way(valid_a, tag_a, base, ways, tag);
        if (li >= 0) {
            if (w) {
                write_hits++;
                l->wh++;
                if (!dirty_a[li]) {
                    dl_a[si]++;
                    dirty_a[li] = 1;
                }
                ws_a[li] = 1;
                if (comparator) {
                    comparator_hit(c, li, 1, &clock);
                } else {
                    clock++;
                    stamp_a[li] = clock;
                }
            } else {
                read_hits++;
                l->rh++;
                rs_a[li] = 1;
                if (comparator) {
                    comparator_hit(c, li, 0, &clock);
                } else {
                    clock++;
                    stamp_a[li] = clock;
                }
                if (attrib) levels[origin_stream[i]] = 2;
                if (timed) {
                    read_stall += hit_stall;
                    cycles += hit_stall;
                }
            }
            continue;
        }

        /* miss (only RRP's write bypass skips the fill) */
        if (w) {
            write_misses++;
            l->wm++;
        } else {
            read_misses++;
            l->rm++;
        }
        if (comparator && w && c->bypass_writes
            && comparator_bypass(c, l->pc_stream[i])) {
            /* the write goes straight to memory through the buffer */
            c->bypasses++;
            if (timed) wb_issue(l, &cycles, &write_stall);
            continue;
        }
        {
            int wrote_back = 0;
            if (filled_a[si] < ways) {
                for (wy = 0; wy < ways; wy++) {
                    if (!valid_a[base + wy]) break;
                }
                li = base + wy;
                filled_a[si]++;
            } else {
                int dirty;
                li = comparator ? comparator_victim(c, base)
                                : base + select_victim(c, si, base, w);
                evictions++;
                dirty = dirty_a[li];
                if (dirty) {
                    dirty_evictions++;
                    dl_a[si]--;
                }
                if (rs_a[li]) {
                    if (ws_a[li]) evicted_rw++;
                    else evicted_ro++;
                } else {
                    evicted_wo++;
                }
                if (dirty) {
                    writebacks++;
                    wrote_back = 1;
                    if (attrib) {
                        l->wb_out[l->wb_out_count++] =
                            BLOCK_OF(tag_a[li], index_bits, si);
                    }
                }
                if (track && sharers_a[li]) {
                    /* SharerDirectory.on_evict: the generation ends */
                    tracked--;
                    if (MULTI_SHARER(sharers_a[li])) shared_evictions++;
                }
            }
            /* inlined CacheLine.reset_for_fill + recency stamp */
            tag_a[li] = tag;
            valid_a[li] = 1;
            dirty_a[li] = (uint8_t)w;
            owner_a[li] = core;
            rs_a[li] = (uint8_t)!w;
            ws_a[li] = (uint8_t)w;
            if (w) dl_a[si]++;
            if (comparator) {
                stamp_a[li] = 0;
                c->rrpv[li] = 0;
                c->signature[li] = 0;
                c->outcome[li] = 0;
                comparator_fill(
                    c, si, base, li, w, l->pc_stream ? l->pc_stream[i] : 0,
                    &clock
                );
            } else {
                clock++;
                stamp_a[li] = clock;
            }
            if (track) {
                sharers_a[li] = mask;
                writer_a[li] = writer;
            }
            if (attrib) {
                int64_t origin = origin_stream[i];
                if (wrote_back) l->mem[origin]++;
                if (!w) levels[origin] = 3;
            }
            if (timed) {
                if (!w) {
                    read_stall += miss_stall;
                    cycles += miss_stall;
                }
                if (wrote_back) wb_issue(l, &cycles, &write_stall);
            }
        }
    }

    c->clock = clock;
    c->read_hits = read_hits;
    c->write_hits = write_hits;
    c->read_misses = read_misses;
    c->write_misses = write_misses;
    c->evictions = evictions;
    c->dirty_evictions = dirty_evictions;
    c->writebacks = writebacks;
    c->evicted_ro = evicted_ro;
    c->evicted_wo = evicted_wo;
    c->evicted_rw = evicted_rw;
    if (track) {
        c->tracked = tracked;
        c->peak_tracked = peak_tracked;
        c->shared_lines = shared_lines;
        c->shared_accesses = shared_accesses;
        c->shared_writes = shared_writes;
        c->write_migrations = write_migrations;
        c->shared_evictions = shared_evictions;
    }
    if (timed) {
        int64_t instr = 0;
        int64_t j;
        for (j = start; j < start + ran; j++) instr += gap_stream[j];
        l->instructions += instr;
    }
    l->cycles = cycles;
    l->read_stall = read_stall;
    l->write_stall = write_stall;
    return ran;
}

static int64_t run_lane(CacheCtx *c, LaneCtx *l, int64_t start, int64_t stop) {
    return lane_loop(c, l, start, stop, 0, 0);
}

static int64_t run_lane_tracked(
    CacheCtx *c, LaneCtx *l, int64_t start, int64_t stop
) {
    return lane_loop(c, l, start, stop, 1, 0);
}

/* The comparators' copy: single-lane and untracked only (the multicore
 * and hierarchy-stage entry points never bind these policies).  Built at
 * Og: the build is timed on first use, and this copy compiles several
 * times faster at Og than at O3 while still running the comparators
 * several times faster than the dict driver. */
__attribute__((optimize("Og"))) static int64_t run_lane_comparator(
    CacheCtx *c, LaneCtx *l, int64_t start, int64_t stop
) {
    return lane_loop(c, l, start, stop, 0, 1);
}

int64_t rw_run_trace(CacheCtx *c, LaneCtx *l, int64_t start, int64_t stop) {
    c->status = STATUS_OK;
    if (c->policy_kind != POLICY_STAMPED) {
        return run_lane_comparator(c, l, start, stop);
    }
    return c->sharers
        ? run_lane_tracked(c, l, start, stop)
        : run_lane(c, l, start, stop);
}

/* SetAssociativeCache.run_lru_filter ported slot-for-slot (pure LRU,
 * untimed, emits the downstream op stream). */
int64_t rw_lru_filter(CacheCtx *c, FilterCtx *f, int64_t start, int64_t stop) {
    const int64_t *set_stream = f->set_stream;
    const int64_t *tag_stream = f->tag_stream;
    const uint8_t *write_stream = f->write_stream;
    const int64_t *origins = f->origins;
    int64_t *levels = f->levels;
    int64_t level = f->level;
    int64_t core = f->core;
    int64_t ways = c->ways;
    int64_t index_bits = c->index_bits;
    int demand_mode = origins == 0;
    int64_t count = f->out_count;
    int64_t forwarded = 0;
    int64_t i;

    c->status = STATUS_OK;
    for (i = start; i < stop; i++) {
        int64_t si = set_stream[i];
        int64_t tag = tag_stream[i];
        int w = write_stream[i];
        int64_t base = si * ways;
        int64_t li = -1;
        int64_t wy, origin;
        for (wy = 0; wy < ways; wy++) {
            int64_t slot = base + wy;
            if (c->valid[slot] && c->tag[slot] == tag) {
                li = slot;
                break;
            }
        }
        if (li >= 0) {
            c->clock++;
            c->stamp[li] = c->clock;
            if (w) {
                c->write_hits++;
                if (!c->dirty[li]) {
                    c->dirty_lines[si]++;
                    c->dirty[li] = 1;
                }
                c->write_seen[li] = 1;
            } else {
                c->read_hits++;
                c->read_seen[li] = 1;
                if (levels) levels[origins[i]] = level;
            }
            continue;
        }

        if (w) c->write_misses++;
        else c->read_misses++;
        origin = demand_mode ? i : origins[i];
        if (c->filled[si] < ways) {
            for (wy = 0; wy < ways; wy++) {
                if (!c->valid[base + wy]) break;
            }
            li = base + wy;
            c->filled[si]++;
        } else {
            int dirty;
            int64_t best = 0;
            int64_t best_stamp = c->stamp[base];
            for (wy = 1; wy < ways; wy++) {
                if (c->stamp[base + wy] < best_stamp) {
                    best = wy;
                    best_stamp = c->stamp[base + wy];
                }
            }
            li = base + best;
            c->evictions++;
            dirty = c->dirty[li];
            if (dirty) {
                c->dirty_evictions++;
                c->dirty_lines[si]--;
            }
            if (c->read_seen[li]) {
                if (c->write_seen[li]) c->evicted_rw++;
                else c->evicted_ro++;
            } else {
                c->evicted_wo++;
            }
            if (dirty) {
                c->writebacks++;
                f->out_blocks[count] = BLOCK_OF(c->tag[li], index_bits, si);
                f->out_write[count] = 1;
                f->out_origin[count] = origin;
                count++;
            }
        }
        c->tag[li] = tag;
        c->valid[li] = 1;
        c->dirty[li] = (uint8_t)w;
        c->owner[li] = core;
        c->read_seen[li] = (uint8_t)!w;
        c->write_seen[li] = (uint8_t)w;
        if (w) c->dirty_lines[si]++;
        c->clock++;
        c->stamp[li] = c->clock;
        if (demand_mode || !w) {
            f->out_blocks[count] = BLOCK_OF(tag, index_bits, si);
            f->out_write[count] = 0;
            f->out_origin[count] = origin;
            count++;
            forwarded++;
        }
    }
    f->out_count = count;
    f->forwarded = forwarded;
    return forwarded;
}

/* multicore/shared.py: _first_violation / _selection_limit, verbatim. */
static double first_violation(double bound, double penalty, int strict) {
    double x;
    if (isinf(bound) && bound > 0.0) return INFINITY;
    if (penalty == 0.0) return strict ? nextafter(bound, INFINITY) : bound;
    x = bound - penalty;
    if (strict) {
        while (x + penalty > bound) x = nextafter(x, -INFINITY);
        while (x + penalty <= bound) x = nextafter(x, INFINITY);
    } else {
        while (x + penalty >= bound) x = nextafter(x, -INFINITY);
        while (x + penalty < bound) x = nextafter(x, INFINITY);
    }
    return x;
}

static double selection_limit(double bound_lo, double bound_hi, double penalty) {
    double t1 = first_violation(bound_lo, penalty, 0);
    double t2 = first_violation(bound_hi, penalty, 1);
    return t1 < t2 ? t1 : t2;
}

/* SharedLLCSystem.run's epoch interleave over per-core lanes.  Returns
 * 0 on completion, nonzero when the epoch callback aborted. */
int64_t rw_multicore(CacheCtx *c, MultiCtx *m) {
    int64_t num_cores = m->num_cores;
    int64_t (*lane_fn)(CacheCtx *, LaneCtx *, int64_t, int64_t) =
        c->sharers ? run_lane_tracked : run_lane;

    c->status = STATUS_OK;
    while (m->remaining) {
        int64_t core = 0;
        double best = m->effective[0];
        double bound_lo = INFINITY;
        double bound_hi = INFINITY;
        int64_t cand, index, length, wrapped, segment, ran;
        int core_done;
        double cycles;
        LaneCtx *lane;

        for (cand = 1; cand < num_cores; cand++) {
            double eff = m->effective[cand];
            if (eff < best) {
                bound_lo = best;
                best = eff;
                core = cand;
                bound_hi = INFINITY;
            } else if (eff < bound_hi) {
                bound_hi = eff;
            }
        }

        index = m->position[core];
        length = m->lengths[core];
        core_done = m->done[core];
        lane = &m->lanes[core];
        if (!core_done && index == m->warmup) {
            /* measured window opens: snapshot tallies, then
             * TimingModel.reset() (fresh write buffer, zeroed clocks) */
            m->base_rh[core] = lane->rh;
            m->base_rm[core] = lane->rm;
            m->base_wh[core] = lane->wh;
            m->base_wm[core] = lane->wm;
            lane->cycles = 0.0;
            lane->read_stall = 0.0;
            lane->write_stall = 0.0;
            lane->instructions = 0;
            lane->wb_head = 0;
            lane->wb_len = 0;
            lane->wb_server_free = 0.0;
            lane->wb_stall_cycles = 0.0;
            lane->wb_writes = 0;
        }
        wrapped = index < length ? index : index % length;
        segment = length - wrapped;
        if (!core_done && index < m->warmup) segment = m->warmup - index;
        if (core_done) {
            lane->cycle_limit = selection_limit(bound_lo, bound_hi, 1.0);
        } else {
            lane->cycle_limit = bound_lo <= bound_hi
                ? bound_lo
                : nextafter(bound_hi, INFINITY);
        }
        lane->first_unconditional = 1;

        ran = lane_fn(c, lane, wrapped, wrapped + segment);
        if (c->status != STATUS_OK) return c->status;

        cycles = lane->cycles;
        if (core_done) cycles += 1.0;
        m->effective[core] = cycles;
        m->position[core] = index + ran;
        m->ticks[core] += ran;
        if (!core_done && m->position[core] >= length) {
            m->done[core] = 1;
            m->effective[core] = cycles + 1.0;
            m->frozen_rh[core] = lane->rh;
            m->frozen_rm[core] = lane->rm;
            m->frozen_wh[core] = lane->wh;
            m->frozen_wm[core] = lane->wm;
            m->frozen_instr[core] = lane->instructions;
            m->frozen_cycles[core] = lane->cycles;
            m->remaining--;
        }
    }
    return 0;
}

/* heapq._siftdown: move heap[pos] up towards startpos. */
static void heap_siftdown(double *heap, int64_t startpos, int64_t pos) {
    double newitem = heap[pos];
    while (pos > startpos) {
        int64_t parentpos = (pos - 1) >> 1;
        double parent = heap[parentpos];
        if (!(newitem < parent)) break;
        heap[pos] = parent;
        pos = parentpos;
    }
    heap[pos] = newitem;
}

/* heapq.heappop, slot for slot, so the queue flushed back to Python is
 * the list CPython's heapq would hold. */
static double heap_pop(PcmCtx *p) {
    double *heap = p->queue;
    double last = heap[--p->queue_len];
    double top;
    int64_t end = p->queue_len, pos = 0, child = 1;
    if (!end) return last;
    top = heap[0];
    /* _siftup(heap, 0) with heap[0] = last: the smaller child rises
     * until a leaf, then last sifts back down from there */
    while (child < end) {
        if (child + 1 < end && !(heap[child] < heap[child + 1])) child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = last;
    heap_siftdown(heap, 0, pos);
    return top;
}

static void heap_push(PcmCtx *p, double item) {
    p->queue[p->queue_len] = item;
    heap_siftdown(p->queue, 0, p->queue_len);
    p->queue_len++;
}

ALWAYS_INLINE int64_t pcm_partition(const PcmCtx *p, int64_t block) {
    return (int64_t)(((uint64_t)block >> p->block_shift) & (uint64_t)p->part_mask);
}

/* PCMBackend.read: write pausing, then per-partition read queueing. */
static double pcm_read(PcmCtx *p, int64_t part, double now) {
    double pending = p->write_free[part] - now;
    double pause_wait = 0.0, queue_wait, wait, latency;
    p->reads++;
    if (pending > 0.0) {
        pause_wait = pending < p->slice_len ? pending : p->slice_len;
        p->pause_events++;
    }
    queue_wait = p->read_free[part] - now;
    if (queue_wait < 0.0) queue_wait = 0.0;
    wait = pause_wait > queue_wait ? pause_wait : queue_wait;
    latency = wait + p->read_latency;
    p->read_free[part] = now + latency;
    /* the paused write resumes after the read releases the partition */
    if (pending > 0.0) p->write_free[part] += latency;
    p->read_wait_cycles += wait;
    return latency;
}

/* PCMBackend.write: drain, stall on a full queue, occupy the partition. */
static double pcm_write(PcmCtx *p, int64_t part, double now) {
    double stall = 0.0, start;
    p->writes++;
    while (p->queue_len && p->queue[0] <= now) heap_pop(p);
    if (p->queue_len >= p->queue_entries) {
        double done = heap_pop(p);
        if (done > now) {
            stall = done - now;
            now = done;
            p->queue_full_stalls++;
            p->write_stall_cycles += stall;
        }
        while (p->queue_len && p->queue[0] <= now) heap_pop(p);
    }
    start = now > p->write_free[part] ? now : p->write_free[part];
    p->write_free[part] = start + p->write_latency;
    heap_push(p, p->write_free[part]);
    p->write_busy_cycles += p->write_latency;
    return stall;
}

/* HierarchyRunner.run's measured walk over demand accesses [start, stop):
 * TimingModel.advance, then a read's stall by its service level
 * (levels[i]: 2 = LLC hit, 3 = memory), then one memory write per
 * writeback the access caused (mem[i]), drawing their blocks from
 * wb_out in order.  p == NULL is the flat model (miss_stall, the write
 * buffer ring); otherwise reads and writes go through the PCM port.
 * Returns the accesses walked, or -1 when mem asks for more writebacks
 * than wb_out_count holds. */
int64_t rw_timing_walk(LaneCtx *l, PcmCtx *p, int64_t start, int64_t stop) {
    const double *cycle_stream = l->cycle_stream;
    const uint8_t *write_stream = l->write_stream;
    const int64_t *levels = l->levels;
    const int64_t *mem = l->mem;
    const int64_t *blocks = l->wb_out;
    int64_t available = l->wb_out_count;
    int64_t cursor = 0, instr = 0, i, k;
    double cycles = l->cycles;
    double read_stall = l->read_stall;
    double write_stall = l->write_stall;

    for (i = start; i < stop; i++) {
        cycles += cycle_stream[i];
        if (!write_stream[i]) {
            if (levels[i] == 2) {
                read_stall += l->hit_stall;
                cycles += l->hit_stall;
            } else if (levels[i] == 3) {
                double stall = l->miss_stall;
                if (p) {
                    int64_t block = BLOCK_OF(
                        l->tag_stream[i], p->read_index_bits, l->set_stream[i]
                    );
                    stall = pcm_read(p, pcm_partition(p, block), cycles)
                        / p->mlp;
                }
                read_stall += stall;
                cycles += stall;
            }
        }
        for (k = mem[i]; k > 0; k--) {
            if (cursor == available) return -1;
            if (p) {
                double stall = pcm_write(
                    p, pcm_partition(p, blocks[cursor]), cycles
                );
                write_stall += stall;
                cycles += stall;
            } else {
                wb_issue(l, &cycles, &write_stall);
            }
            cursor++;
        }
    }
    for (i = start; i < stop; i++) instr += l->gap_stream[i];
    l->instructions += instr;
    l->cycles = cycles;
    l->read_stall = read_stall;
    l->write_stall = write_stall;
    return stop - start;
}
