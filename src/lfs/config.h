// Tunable parameters of the log-structured filesystem.
//
// Defaults follow the paper's Sprite LFS configuration: 4-KB blocks and
// 1-MB segments (Sprite used 512 KB or 1 MB), cost-benefit cleaning with
// age-sorted rewrites, cleaning triggered when clean segments fall below a
// few tens and continuing until 50-100 are clean (Section 3.4).

#ifndef LFS_LFS_CONFIG_H_
#define LFS_LFS_CONFIG_H_

#include <cstdint>

namespace lfs {

enum class CleaningPolicy {
  kGreedy,       // clean the least-utilized segments (Section 3.5, Figure 4)
  kCostBenefit,  // maximize (1-u)*age/(1+u)          (Section 3.5, Figure 6-7)
};

struct LfsConfig {
  uint32_t block_size = 4096;
  uint32_t segment_blocks = 256;  // 1-MB segments at 4-KB blocks
  uint32_t max_inodes = 65536;

  // Cleaning policy (Section 3.4 issues 3 and 4).
  CleaningPolicy policy = CleaningPolicy::kCostBenefit;
  bool age_sort = true;  // group live blocks by age when rewriting them

  // Cleaning thresholds (Section 3.4 issues 1 and 2). Cleaning starts when
  // the number of clean segments drops below `clean_lo` and continues until
  // it reaches `clean_hi`; at most `segments_per_pass` segments are read per
  // cleaning pass.
  uint32_t clean_lo = 16;
  uint32_t clean_hi = 24;
  uint32_t segments_per_pass = 16;

  // Read strategy for cleaning. The paper assumed whole-segment reads
  // ("conservative assumption that a segment must be read in its entirety to
  // recover the live blocks") but noted "in practice it may be faster to
  // read just the live blocks, particularly if the utilization is very low
  // (we haven't tried this in Sprite LFS)". true enables that untried
  // variant: the cleaner reads the summary chain, liveness-checks from the
  // in-memory tables, and then reads only the live block runs.
  bool cleaner_read_live_blocks_only = false;

  // Segments the ordinary write path may never consume, so the cleaner
  // always has space to compact into.
  uint32_t reserve_segments = 4;

  // Log append points (flash-era hot/cold segregation). 1 = the classic
  // single log, byte-identical to the original layout. With N > 1 the
  // segment writer classifies blocks at write time: metadata and young data
  // fill log 0, progressively older data fills logs 1..N-1, so cleaner
  // survivors stop remixing into hot segments and per-temperature segment
  // populations emerge (SSDFS's multi-head argument; shrinks both LFS write
  // cost and device-level write amplification on SSDs).
  uint32_t num_logs = 1;

  // --- fine-grained reclamation (all off by default: the cleaner then
  // copies whole segments under `policy`) ------------------------------------

  // Adaptive policy switching: a governor watches the live-utilization
  // histogram the selection index maintains and picks greedy vs cost-benefit
  // per pass (and per log with num_logs > 1: the hot log follows the
  // histogram, colder logs always use cost-benefit, whose age term is what
  // makes cold-segment cleaning rational). Overrides `policy`.
  bool adaptive_cleaning = false;

  // Partial-segment compaction (Lomet & Luo): victims at or above
  // `partial_compaction_min_u` utilization are drained incrementally — at
  // most `partial_compaction_max_blocks` live blocks relocated per victim
  // per pass, with a per-segment resume cursor — instead of round-tripping
  // the whole segment. Live bytes are debited off the victim exactly as
  // blocks move, so a fully drained victim is reclaimed either at pass end
  // or for free by the zero-live checkpoint sweep.
  bool partial_compaction = false;
  double partial_compaction_min_u = 0.5;
  uint32_t partial_compaction_max_blocks = 64;

  // Cleaner QoS: a token bucket over the modeled disk clock bounding the
  // cleaner's copy I/O (read + write bytes per cleaning pass). 0 disables
  // throttling. When the bucket is empty a discretionary pass defers;
  // below the critical clean floor the cleaner escalates and overdraws the
  // bucket (deficit), repaying it before discretionary cleaning resumes —
  // the no-wedge guarantee is never traded for smoothness.
  double cleaner_qos_bytes_per_sec = 0.0;
  double cleaner_qos_burst_sec = 0.25;

  // Dirty file data is buffered in memory and written in segment-sized
  // batches (Section 2.1's write buffering). A flush is forced once this
  // many dirty blocks accumulate.
  uint32_t write_buffer_blocks = 256;

  // Automatic checkpoint after this many bytes of new log data (Section 4.1
  // suggests data-driven checkpointing); 0 disables automatic checkpoints,
  // leaving only Sync()/unmount checkpoints.
  uint64_t checkpoint_interval_bytes = 0;

  // Verify payload CRCs on every cache-missing log read by walking the
  // segment's summary chain, so silent media corruption surfaces as a
  // pinpointed kCorruption instead of garbage data. Costs extra reads per
  // miss; meant for paranoid/diagnostic mounts and fault testing.
  bool verify_read_crcs = false;

  // Clean-block read cache of log blocks (a cache::BlockCache of this many
  // frames; 0 disables). Sprite kept inodes and hot file blocks in its file
  // cache; recovery in particular depends on cached inode blocks (each
  // holds ~25 inodes that roll-forward revisits).
  uint32_t read_cache_blocks = 2048;

  // Tuning for callers on several threads. Every operation is thread-safe
  // either way: all callers share one group-commit front end, and a lone
  // caller is a transaction of one op. Setting this has two effects:
  //   - Mkfs/Mount start a background cleaner thread; the foreground write
  //     path then only cleans synchronously once clean segments fall to the
  //     critical floor (Section 4's sketch of Sprite LFS's kernel cleaner
  //     running "in the background when the disk is idle");
  //   - the clean-block read cache gets 16 independently locked shards, so
  //     concurrent readers do not funnel through one cache lock.
  // Off by default: with no cleaner thread a single caller's run is
  // deterministic, and one LRU keeps the eviction order the figure benches
  // were measured with.
  bool concurrent = false;

  // Stripe count for the per-inode lock table and the in-memory inode-table
  // / dirty-block shards (rounded up to a power of two). More stripes means
  // fewer false lock collisions between unrelated inodes at the cost of a
  // few KB of mutexes.
  uint32_t inode_shards = 64;
};

}  // namespace lfs

#endif  // LFS_LFS_CONFIG_H_
