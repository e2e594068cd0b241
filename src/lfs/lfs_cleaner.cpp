// The segment cleaner: mechanism (Section 3.3) and policies (Sections
// 3.4-3.6).
//
// Mechanism: read segments, identify live blocks via the segment summary +
// inode map version (the uid fast path) + inode pointers, and rewrite the
// live data to the head of the log. Policy: segments are chosen either
// greedily (least utilized first) or by cost-benefit
//
//     benefit/cost = (1-u) * age / (1+u)
//
// and live blocks are optionally sorted by age before rewriting, which
// segregates cold data into its own segments and produces the bimodal
// utilization distribution of Figure 6.

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "src/lfs/lfs.h"

namespace lfs {

namespace {
// Multi-log only: the cleaner declines victims whose live fraction is at or
// above this bar, unless nothing else is cleanable. Under the classic single
// log, compacting a nearly full old segment still pays — it sorts cold data
// together so future cleanings skip it. With write-time segregation that
// sorting already happened, so re-copying a nearly full cold segment buys
// almost no free space and no better layout; worse, the copy keeps the
// blocks' old mtimes, so cost-benefit's age term would pick the freshly
// compacted segment again and again (a cold-data copy storm).
constexpr double kMultilogVictimMaxU = 0.85;
}  // namespace

std::vector<SegNo> LfsFileSystem::SelectSegmentsToClean(uint32_t max_segments) {
  return SelectSegmentsToClean(max_segments, GovernorDecision{cfg_.policy, cfg_.policy});
}

std::vector<SegNo> LfsFileSystem::SelectSegmentsToClean(uint32_t max_segments,
                                                        const GovernorDecision& decision) {
  uint64_t now = clock_.Now();
  std::vector<uint8_t> off_limits = ProtectedSegmentBitmap();

  // Bound the pass so the rewritten live data — plus the buffered user data
  // the pass's final flush will push out — is guaranteed to fit in the clean
  // segments we currently have (the cleaner must never wedge itself).
  uint64_t buffered = dirty_count_.load() * uint64_t{sb_.block_size};
  uint64_t budget = usage_.clean_count() > 1
                        ? (uint64_t{usage_.clean_count()} - 1) * sb_.segment_bytes()
                        : 0;
  budget = budget > buffered ? budget - buffered : 0;

  // Pop candidates from the selection index in exact score order; it holds
  // every kDirty segment, so only the per-candidate filters remain here.
  // Without the governor one cursor walks every log under the decision's
  // (fixed) policy. With it, each log gets a cursor under its own policy and
  // candidates pop round-robin across the logs, so no population starves; a
  // cursor walks the whole index, so each keeps only its own log's segments.
  // A log_id this mount has no log for (an image written with more logs, or
  // a damaged tag) counts as the coldest log's.
  //
  // In multi-log mode nearly full victims are declined (see
  // kMultilogVictimMaxU) — with a no-wedge fallback: if the bar filtered
  // everything out, re-select without it rather than refuse to clean while
  // dead bytes exist.
  const uint32_t nlogs = writer_.num_logs();
  const uint32_t ncursors = governor_.enabled() ? nlogs : 1;
  std::vector<SegNo> chosen;
  for (int attempt = 0; attempt < 2 && chosen.empty(); attempt++) {
    bool bar_active = nlogs > 1 && attempt == 0;
    uint64_t planned_live = 0;
    std::vector<VictimIndex::Cursor> cursors;
    cursors.reserve(ncursors);
    for (uint32_t c = 0; c < ncursors; c++) {
      CleaningPolicy pol = c == 0 ? decision.hot_policy : decision.cold_policy;
      cursors.push_back(usage_.SelectVictims(pol == CleaningPolicy::kGreedy, now));
    }
    // Chooses cursor c's next acceptable candidate; false once it runs dry.
    auto choose_next = [&](uint32_t c) {
      for (SegNo seg = cursors[c].Next(); seg != VictimIndex::kNone; seg = cursors[c].Next()) {
        if (std::min<uint32_t>(usage_.Get(seg).log_id, ncursors - 1) != c || off_limits[seg]) {
          continue;
        }
        // Never touch segments written after the last checkpoint: they are
        // the roll-forward log tail and must survive until the next
        // checkpoint.
        if (usage_.write_seq(seg) >= ckpt_boundary_seq_) {
          continue;
        }
        if (bar_active && usage_.Utilization(seg) >= kMultilogVictimMaxU) {
          continue;  // segregated-and-still-live: not worth re-copying
        }
        uint64_t live = usage_.Get(seg).live_bytes;
        if (planned_live + live > budget) {
          continue;  // try a smaller (likely emptier) candidate
        }
        planned_live += live;
        chosen.push_back(seg);
        return true;
      }
      return false;
    };
    std::vector<uint8_t> dry(ncursors, 0);
    uint32_t remaining = ncursors;
    while (remaining > 0 && chosen.size() < max_segments) {
      for (uint32_t c = 0; c < ncursors && chosen.size() < max_segments; c++) {
        if (!dry[c] && !choose_next(c)) {
          dry[c] = 1;
          remaining--;
        }
      }
    }
    if (!bar_active) {
      break;
    }
  }
  return chosen;
}

Status LfsFileSystem::ForEachLiveInode(BlockNo addr, std::span<const uint8_t> content,
                                       const std::function<Status(const Inode&)>& fn) {
  for (uint32_t s = 0; s < sb_.inodes_per_block(); s++) {
    Result<Inode> ino = Inode::DecodeSlot(content, s);
    if (!ino.ok() || ino->ino == kNilInode) {
      continue;
    }
    ImapEntry e = imap_.Get(ino->ino);
    if (e.allocated() && e.inode_block == addr && e.slot == s) {
      LFS_RETURN_IF_ERROR(fn(*ino));
    }
  }
  return OkStatus();
}

Result<uint32_t> LfsFileSystem::LiveBytes(const SummaryEntry& entry, BlockNo addr,
                                          std::span<const uint8_t> content) {
  const uint32_t bs = sb_.block_size;
  switch (entry.kind) {
    case BlockKind::kData:
    case BlockKind::kIndirect:
    case BlockKind::kDoubleIndirect: {
      ImapEntry e = imap_.Get(entry.ino);
      // The uid fast path (Section 3.3): a version mismatch means the file
      // was deleted or truncated; the block is dead without reading inodes.
      if (!e.allocated() || e.version != entry.version) {
        return 0u;
      }
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      if (entry.kind == BlockKind::kData) {
        return entry.fbn < fm->blocks.size() && fm->blocks[entry.fbn] == addr ? bs : 0;
      }
      if (entry.kind == BlockKind::kIndirect) {
        return entry.fbn < fm->ind_addrs.size() && fm->ind_addrs[entry.fbn] == addr ? bs : 0;
      }
      return fm->dind_addr == addr ? bs : 0;
    }
    case BlockKind::kInodeBlock: {
      uint32_t live = 0;
      LFS_RETURN_IF_ERROR(ForEachLiveInode(addr, content, [&](const Inode&) {
        live += kInodeSlotSize;
        return OkStatus();
      }));
      return live;
    }
    case BlockKind::kImapChunk:
      return entry.fbn < imap_.chunk_count() && imap_.chunk_addr(entry.fbn) == addr ? bs : 0;
    case BlockKind::kUsageChunk:
      return entry.fbn < usage_.chunk_count() && usage_.chunk_addr(entry.fbn) == addr ? bs : 0;
    case BlockKind::kDirLog:
      return 0u;  // only meaningful during roll-forward over the log tail
  }
  return 0u;
}

Status LfsFileSystem::MigrateLiveBlock(const SummaryEntry& entry, BlockNo addr,
                                       std::vector<uint8_t> content, SegNo drain_src) {
  const uint32_t bs = sb_.block_size;
  switch (entry.kind) {
    case BlockKind::kData: {
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      // The block keeps its original age so the age-sort and the segment's
      // last-write time continue to reflect the data's coldness. Surviving a
      // cleaning pass also moves it one log colder than its source segment
      // (the multi-log migration ladder; no-op with a single log): by being
      // alive when its segment was reclaimed the block has proven itself
      // longer-lived than its neighbors, and genuinely hot data dies before
      // it can ratchet twice.
      SegNo src_seg = static_cast<SegNo>((addr - sb_.seg_start) / sb_.segment_blocks);
      uint32_t cold_hint = 2 + usage_.Get(src_seg).log_id;
      LFS_ASSIGN_OR_RETURN(BlockNo new_addr, writer_.Append(entry, std::move(content),
                                                            entry.mtime, bs, cold_hint));
      fm->blocks[entry.fbn] = new_addr;
      MarkIndirectDirty(fm, entry.fbn);
      MarkInodeDirty(entry.ino);
      if (drain_src != kNilSeg) {
        // Partial compaction: the victim stays kDirty, so debit the moved
        // bytes now instead of relying on a wholesale clean transition.
        usage_.SubLive(drain_src, bs);
      }
      return OkStatus();
    }
    // Indirect, double-indirect, and inode blocks are rewritten by the
    // deferred FlushFileMetadata path, which debits their OLD addresses as it
    // appends the fresh copies — so a partial-compaction drain needs no extra
    // accounting for these kinds; drain_src is intentionally unused.
    case BlockKind::kIndirect: {
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      fm->dirty_ind.insert(static_cast<uint32_t>(entry.fbn));
      if (entry.fbn >= 1) {
        fm->dind_dirty = true;
      }
      fm->inode_dirty = true;
      MarkInodeDirty(entry.ino);
      return OkStatus();
    }
    case BlockKind::kDoubleIndirect: {
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      fm->dind_dirty = true;
      fm->inode_dirty = true;
      MarkInodeDirty(entry.ino);
      return OkStatus();
    }
    case BlockKind::kInodeBlock:
      return ForEachLiveInode(addr, content, [&](const Inode& ino) -> Status {
        LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino.ino));
        fm->inode_dirty = true;
        MarkInodeDirty(ino.ino);
        return OkStatus();
      });
    case BlockKind::kImapChunk: {
      uint32_t chunk = static_cast<uint32_t>(entry.fbn);
      std::vector<uint8_t> fresh(bs);
      imap_.EncodeChunk(chunk, fresh);
      SummaryEntry e{BlockKind::kImapChunk, kNilInode, chunk, 0};
      LFS_ASSIGN_OR_RETURN(BlockNo new_addr,
                           writer_.Append(e, std::move(fresh), clock_.Now(), bs));
      imap_.set_chunk_addr(chunk, new_addr);
      if (drain_src != kNilSeg) {
        usage_.SubLive(drain_src, bs);
      }
      return OkStatus();
    }
    case BlockKind::kUsageChunk: {
      uint32_t chunk = static_cast<uint32_t>(entry.fbn);
      // Partial compaction debits the victim BEFORE serializing, so if this
      // chunk covers the victim the logged copy carries the drained count.
      if (drain_src != kNilSeg) {
        usage_.SubLive(drain_src, bs);
      }
      // Pre-account the new copy so the serialized contents include it (see
      // FlushMetadataChunks).
      LFS_RETURN_IF_ERROR(writer_.PrepareAppend());
      usage_.AddLive(writer_.current_segment(), bs, clock_.Now());
      std::vector<uint8_t> fresh(bs);
      usage_.EncodeChunk(chunk, fresh);
      SummaryEntry e{BlockKind::kUsageChunk, kNilInode, chunk, 0};
      LFS_ASSIGN_OR_RETURN(BlockNo new_addr,
                           writer_.Append(e, std::move(fresh), clock_.Now(), /*live_bytes=*/0));
      usage_.set_chunk_addr(chunk, new_addr);
      usage_.MarkChunkDirty(chunk);
      return OkStatus();
    }
    case BlockKind::kDirLog:
      return OkStatus();
  }
  return OkStatus();
}

Status LfsFileSystem::CollectLiveBlocksWhole(SegNo seg, std::vector<LiveBlock>* out,
                                             bool* media_damage) {
  // The paper's conservative mechanism: read the segment in its entirety
  // (the chain of partial writes covers everything ever written to it).
  // Victims are always fully checkpointed, so a chain that stops at an
  // unreadable or CRC-failing block is media damage, not a torn log tail.
  ChainEnd end = ChainEnd::kNone;
  std::vector<ParsedPartial> chain = ParseSegmentChain(seg, 0, sb_.segment_blocks, 0, &end);
  if (end == ChainEnd::kSummaryUnreadable || end == ChainEnd::kPayloadUnreadable ||
      end == ChainEnd::kPayloadCrc) {
    *media_damage = true;
  }
  for (ParsedPartial& p : chain) {
    stats_.clean_read_bytes += (1 + p.summary.entries.size()) * uint64_t{sb_.block_size};
    for (size_t i = 0; i < p.summary.entries.size(); i++) {
      const SummaryEntry& entry = p.summary.entries[i];
      BlockNo addr = sb_.SegmentBase(seg) + p.offset + 1 + i;
      std::span<const uint8_t> content(p.payload.data() + i * sb_.block_size, sb_.block_size);
      if (entry.kind == BlockKind::kDirLog) {
        continue;
      }
      LFS_ASSIGN_OR_RETURN(uint32_t live, LiveBytes(entry, addr, content));
      if (live > 0) {
        out->push_back(
            LiveBlock{entry, addr, std::vector<uint8_t>(content.begin(), content.end())});
      }
    }
  }
  return OkStatus();
}

Result<uint32_t> LfsFileSystem::CollectLiveBlocksSparse(SegNo seg, uint32_t start,
                                                        uint32_t max_blocks, SegNo drain_src,
                                                        std::vector<LiveBlock>* out,
                                                        bool* media_damage) {
  // The paper's untried variant: read only the summary blocks, decide
  // liveness from the in-memory tables, then fetch just the live block runs.
  // Pays off when utilization is low; no payload-CRC validation is possible,
  // which is fine here because the cleaner only touches segments fully
  // written before the last checkpoint. Partial compaction walks the same
  // way a slice at a time: it starts at the victim's compact cursor and
  // stops at the first partial-write boundary past `max_blocks` candidates.
  const uint32_t bs = sb_.block_size;
  std::vector<LiveBlock> candidates;  // content filled after the batched reads
  std::vector<size_t> inode_block_idx;  // candidates needing a content check

  SegmentChain chain = Chain(seg, start, sb_.segment_blocks);
  Status st;
  while (st.ok() && candidates.size() < max_blocks && chain.Next()) {
    for (size_t i = 0; st.ok() && i < chain.summary().entries.size(); i++) {
      const SummaryEntry& entry = chain.summary().entries[i];
      BlockNo addr = chain.payload_addr() + i;
      if (entry.kind == BlockKind::kDirLog) {
        continue;
      }
      if (entry.kind == BlockKind::kInodeBlock) {
        // Liveness of an inode block is per-slot and needs the contents;
        // read it optimistically and re-check below.
        inode_block_idx.push_back(candidates.size());
        candidates.push_back(LiveBlock{entry, addr, {}, drain_src});
        continue;
      }
      Result<uint32_t> live = LiveBytes(entry, addr, {});
      st = live.status();
      if (st.ok() && *live > 0) {
        candidates.push_back(LiveBlock{entry, addr, {}, drain_src});
      }
    }
  }
  // Every summary read counts, the one that ended the chain included, even
  // when a liveness check failed.
  stats_.clean_read_bytes += chain.summaries_read() * bs;
  LFS_RETURN_IF_ERROR(st);
  // An unreadable summary leaves the rest of the chain unreachable: report
  // damage and let the caller quarantine; what was collected still migrates.
  if (chain.end() == ChainEnd::kSummaryUnreadable) {
    *media_damage = true;
  }

  // Fetch the candidates in coalesced address runs (candidates are already
  // in ascending address order). A run that cannot be read even with retries
  // is media damage: drop those candidates (their blocks stay in place in
  // the soon-to-be-quarantined segment) and keep going.
  std::vector<uint8_t> drop(candidates.size(), 0);
  for (size_t i = 0; i < candidates.size();) {
    size_t j = i + 1;
    while (j < candidates.size() && candidates[j].addr == candidates[j - 1].addr + 1) {
      j++;
    }
    uint64_t run = j - i;
    std::vector<uint8_t> buf(run * bs);
    if (!DeviceRead(candidates[i].addr, run, buf).ok()) {
      *media_damage = true;
      for (size_t k = i; k < j; k++) {
        drop[k] = 1;
      }
      i = j;
      continue;
    }
    stats_.clean_read_bytes += run * bs;
    for (size_t k = i; k < j; k++) {
      candidates[k].content.assign(buf.begin() + static_cast<long>((k - i) * bs),
                                   buf.begin() + static_cast<long>((k - i + 1) * bs));
    }
    i = j;
  }

  // Resolve the deferred inode-block liveness checks now that we have data.
  for (size_t idx : inode_block_idx) {
    if (drop[idx]) {
      continue;  // unreadable; stays behind in the quarantined segment
    }
    LFS_ASSIGN_OR_RETURN(uint32_t live, LiveBytes(candidates[idx].entry, candidates[idx].addr,
                                                  candidates[idx].content));
    if (live == 0) {
      drop[idx] = 1;
    }
  }
  for (size_t i = 0; i < candidates.size(); i++) {
    if (!drop[i]) {
      out->push_back(std::move(candidates[i]));
    }
  }
  bool walked_to_end =
      chain.end() != ChainEnd::kNone && chain.end() != ChainEnd::kSummaryUnreadable;
  return walked_to_end ? sb_.segment_blocks : chain.next_offset();
}

Result<uint32_t> LfsFileSystem::CleanerPass() {
  if (in_cleaner_) {
    return uint32_t{0};
  }
  in_cleaner_ = true;
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kCleanerPass, device_, &clock_);
  auto cleanup = [this](auto status_or) {
    in_cleaner_ = false;
    writer_.set_cleaning(false);
    writer_.set_privileged(false);
    return status_or;
  };
  // The whole pass may dip into the reserve: it has to write out both the
  // migrated live data and the buffered user data that its inode flush
  // forces out (see below) before the sources are reclaimed.
  writer_.set_privileged(true);

  Status st = writer_.Flush();
  if (!st.ok()) {
    return cleanup(Result<uint32_t>(st));
  }

  // Cleaner QoS (ISSUE 10): meter cleaner copy I/O against a token bucket
  // refilled on the modeled disk clock. A discretionary pass (clean pool
  // above the critical floor) defers when the bucket is dry — foreground
  // writes keep the disk — but once the pool reaches the floor the pass runs
  // anyway and drives the bucket into deficit (paid off by future refills),
  // so throttling can never wedge the filesystem.
  if (qos_.enabled()) {
    qos_.Refill(device_->ModeledTime());
    if (!qos_.HasTokens()) {
      if (writer_.usable_clean_segments() > CriticalCleanFloor()) {
        stats_.qos_deferrals++;
        return cleanup(Result<uint32_t>(uint32_t{0}));
      }
      stats_.qos_escalations++;
    }
  }
  RelaxedDelta<uint64_t> qos_reads(stats_.clean_read_bytes);
  RelaxedDelta<uint64_t> qos_writes(stats_.clean_write_bytes);

  // Each log's victim-ordering policy: cfg_.policy for every log unless the
  // governor is adapting it to the utilization histogram.
  GovernorDecision decision = governor_.Decide(usage_.UtilizationHistogram());
  stats_.governor_switches = governor_.switches();
  std::vector<SegNo> chosen = SelectSegmentsToClean(cfg_.segments_per_pass, decision);
  if (chosen.empty()) {
    return cleanup(Result<uint32_t>(uint32_t{0}));
  }
  stats_.cleaner_passes++;
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kCleanerPassBegin, obs::OpType::kCleanerPass,
            clock_.Now(), chosen.size(), 0, device_->ModeledTime());
  writer_.set_cleaning(true);
  // Everything the cleaner (or anyone) writes from here on carries a
  // sequence number >= pass_start_seq; used below to detect source segments
  // that were recycled as cleaning output mid-pass.
  const uint64_t pass_start_seq = writer_.next_seq();

  // Per-victim plan: which ordering policy picked it (for the per-policy
  // Table 2 columns) and whether it is drained incrementally (partial) or
  // round-tripped whole.
  struct VictimPlan {
    SegNo seg = 0;
    uint64_t live_before = 0;
    double u_before = 0.0;
    CleaningPolicy policy = CleaningPolicy::kCostBenefit;
    bool partial = false;
    bool quarantined = false;
    uint64_t blocks_moved = 0;  // partial only: live blocks drained this pass
  };
  std::vector<VictimPlan> plans;
  plans.reserve(chosen.size());

  std::vector<LiveBlock> live_blocks;
  for (SegNo seg : chosen) {
    VictimPlan plan;
    plan.seg = seg;
    plan.live_before = usage_.Get(seg).live_bytes;
    plan.u_before = usage_.Utilization(seg);
    plan.policy = usage_.Get(seg).log_id == 0 ? decision.hot_policy : decision.cold_policy;
    // Drain high-utilization victims incrementally: relocating a bounded run
    // of live blocks costs a fraction of a full round-trip, and the freed
    // bytes raise (1-u) for the next selection instead of being hostage to a
    // whole-segment copy.
    plan.partial = cfg_.partial_compaction && plan.live_before > 0 &&
                   plan.u_before >= cfg_.partial_compaction_min_u;
    bool media_damage = false;
    if (plan.partial) {
      size_t before = live_blocks.size();
      Result<uint32_t> stop =
          CollectLiveBlocksSparse(seg, usage_.compact_cursor(seg),
                                  cfg_.partial_compaction_max_blocks, seg, &live_blocks,
                                  &media_damage);
      if (!stop.ok()) {
        return cleanup(Result<uint32_t>(stop.status()));
      }
      // Resume there next pass. A fully walked chain resets to 0: if the
      // victim drains fully the clean transition clears the cursor anyway,
      // and if it somehow retains live bytes a future pass must rescan
      // rather than skip them forever.
      usage_.set_compact_cursor(seg, *stop + 1 < sb_.segment_blocks ? *stop : 0);
      plan.blocks_moved = live_blocks.size() - before;
    } else if (plan.live_before == 0) {
      // An empty segment need not be read at all (Section 3.4: u=0 gives
      // write cost 1.0). Table 2 found more than half of cleaned segments
      // empty in production.
      stats_.segments_cleaned++;
      stats_.segments_cleaned_empty++;
      stats_.segments_cleaned_by_policy[static_cast<size_t>(plan.policy)]++;
      usage_.SetState(seg, SegState::kClean);
      plans.push_back(plan);
      continue;
    } else {
      Status collect = cfg_.cleaner_read_live_blocks_only
                           ? CollectLiveBlocksSparse(seg, 0, UINT32_MAX, kNilSeg, &live_blocks,
                                                     &media_damage)
                                 .status()
                           : CollectLiveBlocksWhole(seg, &live_blocks, &media_damage);
      if (!collect.ok()) {
        return cleanup(Result<uint32_t>(collect));
      }
    }
    if (media_damage) {
      // The victim has unreadable or corrupt blocks. Quarantine it: never
      // allocated, never picked again, its surviving live blocks left in
      // place. Whatever was collected before the damage still migrates, and
      // the pass continues with the remaining victims.
      usage_.SetState(seg, SegState::kQuarantined);
      LFS_TRACE(obs_.tracer(), obs::TraceEventType::kQuarantine, obs::OpType::kCleanerPass,
                clock_.Now(), seg, plan.live_before, device_->ModeledTime());
      stats_.segments_quarantined++;
      plan.quarantined = true;
    } else if (!plan.partial) {
      stats_.segments_cleaned++;
      stats_.sum_cleaned_utilization += plan.u_before;
    }
    plans.push_back(plan);
  }

  // Migrate metadata blocks first (their order is irrelevant), then the data
  // blocks grouped by age (Section 3.4 policy question 4: "age sort") — this
  // is what segregates cold from hot data.
  std::stable_partition(live_blocks.begin(), live_blocks.end(), [](const LiveBlock& b) {
    return b.entry.kind != BlockKind::kData;
  });
  if (cfg_.age_sort) {
    std::stable_sort(live_blocks.begin(), live_blocks.end(),
                     [](const LiveBlock& a, const LiveBlock& b) {
                       bool a_data = a.entry.kind == BlockKind::kData;
                       bool b_data = b.entry.kind == BlockKind::kData;
                       if (a_data != b_data) {
                         return !a_data;  // keep metadata first
                       }
                       if (!a_data) {
                         return false;
                       }
                       return a.entry.mtime < b.entry.mtime;
                     });
  }
  for (LiveBlock& lb : live_blocks) {
    Status mig = MigrateLiveBlock(lb.entry, lb.addr, std::move(lb.content), lb.drain_src);
    if (!mig.ok()) {
      return cleanup(Result<uint32_t>(mig));
    }
  }

  // Rewrite the inodes and indirect blocks whose pointers moved (this also
  // covers migrated inode blocks) — via the FULL flush body, so any user
  // data still buffered for those files reaches the log BEFORE the inodes
  // that point at it. Writing just the inodes here would let a crash recover
  // files with their new size but nil block pointers (silent zeros). The
  // flush itself is ordinary traffic, not cleaning, for the write-cost
  // accounting.
  writer_.set_cleaning(false);
  st = FlushDirtyDataInner();
  if (!st.ok()) {
    return cleanup(Result<uint32_t>(st));
  }

  uint32_t reclaimed = 0;
  const uint64_t bs = sb_.block_size;
  for (const VictimPlan& plan : plans) {
    SegNo seg = plan.seg;
    // Mark a source segment clean only if nothing was written into it during
    // this pass: a source emptied early in the pass may already have been
    // recycled as the cleaner's own output segment, and marking it clean
    // again would discard the freshly migrated live data. Quarantined
    // sources are no longer kDirty, so they naturally stay quarantined.
    const bool untouched_since = usage_.Get(seg).state == SegState::kDirty &&
                                 usage_.write_seq(seg) < pass_start_seq;
    if (!plan.partial) {
      if (untouched_since) {
        usage_.SetState(seg, SegState::kClean);
      }
      if (!plan.quarantined) {
        reclaimed++;
        if (plan.live_before > 0) {
          stats_.full_compactions++;
          stats_.segments_cleaned_by_policy[static_cast<size_t>(plan.policy)]++;
          stats_.copy_bytes_by_policy[static_cast<size_t>(plan.policy)] +=
              plan.live_before;
        }
      }
      continue;
    }
    // Partial victim: account the drain, and reclaim it only if this pass's
    // slice emptied it (the deferred metadata debits from FlushDirtyDataInner
    // above have already landed, so live_bytes is exact here). A victim that
    // still holds live bytes stays kDirty — with its compact cursor advanced —
    // and remains selectable; a drained-but-rewritten victim is harvested by
    // the zero-live sweep at the next checkpoint instead.
    if (plan.quarantined) {
      continue;
    }
    stats_.partial_compactions++;
    stats_.partial_blocks_moved += plan.blocks_moved;
    stats_.copy_bytes_by_policy[static_cast<size_t>(plan.policy)] +=
        plan.blocks_moved * bs;
    if (untouched_since && usage_.Get(seg).live_bytes == 0) {
      usage_.SetState(seg, SegState::kClean);
      stats_.segments_cleaned++;
      stats_.segments_cleaned_by_policy[static_cast<size_t>(plan.policy)]++;
      stats_.sum_cleaned_utilization += plan.u_before;
      reclaimed++;
    }
  }
  // Charge the bucket with what this pass actually moved (summary + live
  // reads, migrated writes). Charging after the fact rather than reserving
  // up front keeps the mechanism simple; the deficit carries the error.
  if (qos_.enabled()) {
    uint64_t moved_bytes = qos_reads.delta() + qos_writes.delta();
    qos_.Charge(moved_bytes);
    stats_.qos_charged_bytes += moved_bytes;
  }
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kCleanerPassEnd, obs::OpType::kCleanerPass,
            clock_.Now(), reclaimed, live_blocks.size(), device_->ModeledTime());
  return cleanup(Result<uint32_t>(reclaimed));
}

uint32_t LfsFileSystem::EffectiveCleanLo() const {
  uint32_t cap = std::max<uint32_t>(2, sb_.nsegments / 16);
  return std::min(cfg_.clean_lo, cap);
}

uint32_t LfsFileSystem::EffectiveCleanHi() const {
  uint32_t cap = std::max<uint32_t>(EffectiveCleanLo() + 2, sb_.nsegments / 8);
  return std::min(cfg_.clean_hi, cap);
}

Status LfsFileSystem::MaybeClean() {
  if (in_cleaner_ || writer_.usable_clean_segments() >= EffectiveCleanLo()) {
    return OkStatus();
  }
  // With a background cleaner running, the foreground write path only cleans
  // synchronously once clean segments fall to the critical floor; above it,
  // wake the cleaner thread and keep going (it will grab the exclusive lock
  // as soon as this operation releases it).
  if (cleaner_running_.load(std::memory_order_relaxed) &&
      std::this_thread::get_id() != cleaner_thread_.get_id() &&
      writer_.usable_clean_segments() >= CriticalCleanFloor()) {
    KickCleaner();
    return OkStatus();
  }
  // Harvest first: segments whose data has entirely died since the last
  // checkpoint can be reclaimed for free (no copying) once a checkpoint
  // advances the roll-forward boundary. A checkpoint costs a few blocks;
  // cleaning a half-live segment costs megabytes of copying — so when dead
  // segments exist, checkpoint before reaching for the expensive ones. The
  // incrementally maintained zero-live count makes this an O(1) check
  // (discounting the current segment, which is never harvestable).
  bool checkpointed = false;
  if (!in_checkpoint_ && !in_recovery_) {
    uint32_t harvestable = usage_.zero_live_dirty_count();
    for (uint32_t log = 0; log < writer_.num_logs(); log++) {
      SegNo seg = writer_.log_segment(log);
      if (seg == kNilSeg) {
        continue;
      }
      const SegUsageEntry& cur = usage_.Get(seg);
      if (cur.state == SegState::kDirty && cur.live_bytes == 0) {
        harvestable--;
      }
    }
    if (harvestable > 0) {
      checkpointed = true;
      LFS_RETURN_IF_ERROR(CheckpointImpl(/*flush_buffered=*/false));
    }
    if (writer_.usable_clean_segments() >= EffectiveCleanLo()) {
      return OkStatus();
    }
  }
  // Clean until the high-water mark of clean segments is restored
  // (Section 3.4: start at a few tens, stop at 50-100).
  bool reclaimed_any = false;
  while (writer_.usable_clean_segments() < EffectiveCleanHi()) {
    LFS_ASSIGN_OR_RETURN(uint32_t reclaimed, CleanerPass());
    reclaimed_any = reclaimed_any || reclaimed > 0;
    if (reclaimed == 0) {
      // Segments written since the last checkpoint are off-limits to the
      // cleaner (they are the roll-forward tail). If that is all that is
      // left, take a checkpoint to advance the boundary and retry once.
      if (!checkpointed && !in_checkpoint_ && !in_recovery_) {
        checkpointed = true;
        LFS_RETURN_IF_ERROR(CheckpointImpl(/*flush_buffered=*/false));
        continue;
      }
      break;  // nothing cleanable right now; let the writer use what exists
    }
  }
  // Checkpoint after a cleaning burst: it makes the reclaimed segments
  // durable as clean and keeps the recovery scan filter sound (post-
  // checkpoint writes only ever land in checkpoint-clean segments or the
  // active segment).
  if (reclaimed_any && !in_checkpoint_ && !in_recovery_) {
    LFS_RETURN_IF_ERROR(CheckpointImpl(/*flush_buffered=*/false));
  }
  return OkStatus();
}

// --- background cleaner thread (cfg_.concurrent) -------------------------------
//
// The paper ran the Sprite LFS cleaner "in the background when the disk is
// idle"; here the thread sleeps until a foreground flush notices the clean
// pool dropping below the low watermark and kicks it. All actual cleaning
// runs under the exclusive fs lock, so the thread is a scheduler, not a new
// concurrency domain: the segment writer, usage table, and inode map see
// exactly one cleaner at a time.

uint32_t LfsFileSystem::CriticalCleanFloor() const {
  return std::max<uint32_t>(2, EffectiveCleanLo() / 2);
}

void LfsFileSystem::StartCleanerThread() {
  if (cleaner_running_.load()) {
    return;
  }
  cleaner_stop_ = false;
  cleaner_kick_ = false;
  cleaner_thread_ = std::thread([this] { CleanerThreadMain(); });
  cleaner_running_.store(true);
}

void LfsFileSystem::StopCleanerThread() {
  if (!cleaner_running_.exchange(false)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(cleaner_mu_);
    cleaner_stop_ = true;
  }
  cleaner_cv_.notify_one();
  cleaner_thread_.join();
}

void LfsFileSystem::KickCleaner() {
  if (!cleaner_running_.load(std::memory_order_relaxed)) {
    return;
  }
  // cleaner_mu_ is only ever held momentarily here and around the condition
  // flags in CleanerThreadMain — never while fs_mu_ is being acquired — so
  // kicking from under the exclusive fs lock cannot deadlock.
  {
    std::lock_guard<std::mutex> lock(cleaner_mu_);
    cleaner_kick_ = true;
  }
  cleaner_cv_.notify_one();
}

void LfsFileSystem::CleanerThreadMain() {
  std::unique_lock<std::mutex> lk(cleaner_mu_);
  for (;;) {
    cleaner_cv_.wait(lk, [this] { return cleaner_stop_ || cleaner_kick_; });
    if (cleaner_stop_) {
      return;
    }
    cleaner_kick_ = false;
    lk.unlock();  // released before fs_mu_: see the lock-order note in lfs.h
    {
      // Enter through the transaction gate so the pass never interleaves
      // with a half-staged batch (and cannot be starved by shared holders).
      ExclusiveSection sec(this);
      if (!read_only_ && !degraded_ &&
          writer_.usable_clean_segments() < EffectiveCleanLo()) {
        // Failures flip the filesystem into degraded read-only inside the
        // cleaning machinery itself; there is no caller to report to here.
        (void)MaybeClean();
      }
    }
    lk.lock();
  }
}

}  // namespace lfs
