// Unit tests for the LFS in-memory components: InodeMap (allocation,
// versioned uids, chunk persistence), SegUsage (accounting invariants,
// state machine, chunking), SegmentWriter (partial-write emission,
// capacity limits, buffered read-back, segment advance, reserve policy), and
// GroupCommit (when a transaction's op draws the committer token).

#include <gtest/gtest.h>

#include "src/disk/mem_disk.h"
#include "src/lfs/inode_map.h"
#include "src/lfs/seg_usage.h"
#include "src/lfs/segment_writer.h"
#include "src/lfs/stats.h"

namespace lfs {
namespace {

// --- InodeMap -------------------------------------------------------------------

TEST(InodeMapTest, AllocatesDistinctNumbersStartingAtOne) {
  InodeMap imap(1024, 170);
  auto a = imap.Allocate();
  auto b = imap.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  EXPECT_NE(*a, *b);
}

TEST(InodeMapTest, FreeBumpsVersionAndReusesNumber) {
  InodeMap imap(1024, 170);
  InodeNum ino = *imap.Allocate();
  imap.SetLocation(ino, 500, 3);
  uint32_t v1 = imap.Get(ino).version;
  EXPECT_TRUE(imap.IsAllocated(ino));
  imap.Free(ino);
  EXPECT_FALSE(imap.IsAllocated(ino));
  EXPECT_GT(imap.Get(ino).version, v1);  // uid changed: old blocks are dead
  InodeNum again = *imap.Allocate();
  EXPECT_EQ(again, ino);  // freed numbers are reused
  EXPECT_GT(imap.Get(again).version, v1);
}

TEST(InodeMapTest, ExhaustionReturnsNoInodes) {
  InodeMap imap(4, 170);
  ASSERT_TRUE(imap.Allocate().ok());  // 1
  ASSERT_TRUE(imap.Allocate().ok());  // 2
  ASSERT_TRUE(imap.Allocate().ok());  // 3
  auto r = imap.Allocate();           // 4 is out of range (max_inodes = 4, 0 reserved)
  EXPECT_EQ(r.status().code(), StatusCode::kNoInodes);
}

TEST(InodeMapTest, ChunkRoundTripPreservesEntries) {
  InodeMap imap(1024, 4);  // tiny chunks: 4 entries each
  for (int i = 0; i < 10; i++) {
    InodeNum ino = *imap.Allocate();
    imap.SetLocation(ino, 1000 + ino, static_cast<uint16_t>(ino % 5));
  }
  EXPECT_FALSE(imap.dirty_chunks().empty());

  InodeMap reloaded(1024, 4);
  std::vector<uint8_t> block(4 * kImapEntrySize);
  for (uint32_t c = 0; c < 3; c++) {
    imap.EncodeChunk(c, block);
    reloaded.LoadChunk(c, block, /*ninodes_limit=*/11);
  }
  reloaded.RebuildFreeList();
  for (InodeNum ino = 1; ino <= 10; ino++) {
    EXPECT_EQ(reloaded.Get(ino).inode_block, 1000u + ino) << ino;
    EXPECT_EQ(reloaded.Get(ino).slot, ino % 5) << ino;
    EXPECT_TRUE(reloaded.IsAllocated(ino));
  }
  EXPECT_EQ(reloaded.allocated_count(), 10u);
}

TEST(InodeMapTest, RebuildFreeListFindsHoles) {
  InodeMap imap(64, 16);
  for (int i = 0; i < 6; i++) {
    InodeNum ino = *imap.Allocate();
    imap.SetLocation(ino, 100 + ino, 0);
  }
  imap.Free(3);
  imap.Free(5);
  imap.RebuildFreeList();
  // Freed numbers come back first, lowest first.
  EXPECT_EQ(*imap.Allocate(), 3u);
  EXPECT_EQ(*imap.Allocate(), 5u);
  EXPECT_EQ(*imap.Allocate(), 7u);
}

// --- SegUsage -------------------------------------------------------------------

TEST(SegUsageTest, LiveByteAccounting) {
  SegUsage usage(10, 1 << 20, 256);
  EXPECT_EQ(usage.clean_count(), 10u);
  usage.SetState(2, SegState::kActive);
  EXPECT_EQ(usage.clean_count(), 9u);
  usage.AddLive(2, 4096, 100);
  usage.AddLive(2, 4096, 50);  // older mtime must not regress last_write
  EXPECT_EQ(usage.Get(2).live_bytes, 8192u);
  EXPECT_EQ(usage.Get(2).last_write, 100u);
  EXPECT_EQ(usage.TotalLiveBytes(), 8192u);
  usage.SubLive(2, 4096);
  EXPECT_EQ(usage.Get(2).live_bytes, 4096u);
  usage.SubLive(2, 1 << 20);  // clamps, never underflows
  EXPECT_EQ(usage.Get(2).live_bytes, 0u);
  EXPECT_EQ(usage.TotalLiveBytes(), 0u);
}

TEST(SegUsageTest, CleanTransitionResetsEntry) {
  SegUsage usage(4, 1 << 20, 256);
  usage.SetState(0, SegState::kDirty);
  usage.AddLive(0, 9999, 7);
  usage.SetState(0, SegState::kClean);
  EXPECT_EQ(usage.Get(0).live_bytes, 0u);
  EXPECT_EQ(usage.Get(0).last_write, 0u);
  EXPECT_EQ(usage.clean_count(), 4u);
  EXPECT_EQ(usage.TotalLiveBytes(), 0u);
}

TEST(SegUsageTest, UtilizationAndChunks) {
  SegUsage usage(8, 1024, 4);
  usage.SetState(1, SegState::kDirty);
  usage.AddLive(1, 512, 10);
  EXPECT_DOUBLE_EQ(usage.Utilization(1), 0.5);
  EXPECT_EQ(usage.chunk_of(1), 0u);
  EXPECT_EQ(usage.chunk_of(5), 1u);
  EXPECT_EQ(usage.chunk_count(), 2u);

  std::vector<uint8_t> block(4 * kUsageEntrySize);
  usage.EncodeChunk(0, block);
  SegUsage reloaded(8, 1024, 4);
  reloaded.LoadChunk(0, block);
  reloaded.RecountClean();
  EXPECT_EQ(reloaded.Get(1).live_bytes, 512u);
  EXPECT_EQ(reloaded.Get(1).state, SegState::kDirty);
  EXPECT_EQ(reloaded.clean_count(), 7u);
  EXPECT_EQ(reloaded.TotalLiveBytes(), 512u);
}

// --- SegmentWriter ----------------------------------------------------------------

struct WriterRig {
  static constexpr uint32_t kBs = 512;
  MemDisk disk{kBs, 2048};
  Superblock sb;
  SegUsage usage;
  LfsStats stats;
  SegmentWriter writer;

  WriterRig()
      : sb(std::move(Superblock::Compute(kBs, 2048, 16, 256)).value()),
        usage(sb.nsegments, sb.segment_bytes(), sb.usage_entries_per_chunk()),
        writer([this](BlockNo block, uint64_t count,
                      WriteParts parts) { return disk.WriteV(block, count, parts); },
               &sb, &usage, &stats, /*reserve_segments=*/2) {
    usage.SetState(0, SegState::kActive);
    writer.Init(0, 0, 1);
  }

  // Appends a block filled with `fill`, staged in a frame as LFS does.
  Result<BlockNo> Append(const SummaryEntry& entry, uint8_t fill, uint64_t mtime,
                         uint32_t live_bytes) {
    Frame f = writer.TakeFrame();
    std::fill(f.span().begin(), f.span().end(), fill);
    return writer.Append(entry, f, mtime, live_bytes);
  }
  SummaryEntry Entry(InodeNum ino, uint64_t fbn) {
    return SummaryEntry{BlockKind::kData, ino, fbn, 1};
  }
};

TEST(SegmentWriterTest, AssignsConsecutiveAddressesWithinPartial) {
  WriterRig rig;
  auto a = rig.Append(rig.Entry(1, 0), 1, 10, WriterRig::kBs);
  auto b = rig.Append(rig.Entry(1, 1), 2, 11, WriterRig::kBs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a + 1);
  EXPECT_EQ(rig.sb.SegOf(*a), 0u);
  // Address 0 of the partial is the summary block: payload starts at +1.
  EXPECT_EQ(*a, rig.sb.SegmentBase(0) + 1);
}

TEST(SegmentWriterTest, BufferedBlocksReadableBeforeFlush) {
  WriterRig rig;
  auto a = rig.Append(rig.Entry(1, 0), 0xAA, 10, WriterRig::kBs);
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> out(WriterRig::kBs);
  ASSERT_TRUE(rig.writer.ReadBuffered(*a, out));
  EXPECT_EQ(out[0], 0xAA);
  ASSERT_TRUE(rig.writer.Flush().ok());
  EXPECT_FALSE(rig.writer.ReadBuffered(*a, out));  // now on disk, not buffered
  ASSERT_TRUE(rig.disk.Read(*a, 1, out).ok());
  EXPECT_EQ(out[0], 0xAA);
}

TEST(SegmentWriterTest, FlushWritesValidSummary) {
  WriterRig rig;
  ASSERT_TRUE(rig.Append(rig.Entry(7, 3), 1, 42, WriterRig::kBs).ok());
  ASSERT_TRUE(rig.Append(rig.Entry(7, 4), 2, 43, WriterRig::kBs).ok());
  ASSERT_TRUE(rig.writer.Flush().ok());
  std::vector<uint8_t> sum_block(WriterRig::kBs);
  ASSERT_TRUE(rig.disk.Read(rig.sb.SegmentBase(0), 1, sum_block).ok());
  auto sum = SegmentSummary::DecodeFrom(sum_block);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->seq, 1u);
  EXPECT_EQ(sum->youngest_mtime, 43u);
  ASSERT_EQ(sum->entries.size(), 2u);
  EXPECT_EQ(sum->entries[0].ino, 7u);
  EXPECT_EQ(sum->entries[1].fbn, 4u);
}

TEST(SegmentWriterTest, AdvancesAcrossSegments) {
  WriterRig rig;
  // Fill well past one 16-block segment.
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(rig.Append(rig.Entry(1, static_cast<uint64_t>(i)), 1, 10, WriterRig::kBs).ok());
  }
  ASSERT_TRUE(rig.writer.Flush().ok());
  EXPECT_GT(rig.writer.current_segment(), 0u);
  EXPECT_EQ(rig.usage.Get(0).state, SegState::kDirty);
  EXPECT_EQ(rig.usage.Get(rig.writer.current_segment()).state, SegState::kActive);
  EXPECT_GT(rig.writer.next_seq(), 1u);
}

TEST(SegmentWriterTest, ReserveBlocksOrdinaryWrites) {
  WriterRig rig;
  // Dirty all segments except the reserve.
  uint32_t n = rig.sb.nsegments;
  for (SegNo s = 1; s < n; s++) {
    if (rig.usage.clean_count() > 2) {
      rig.usage.SetState(s, SegState::kDirty);
    }
  }
  ASSERT_EQ(rig.usage.clean_count(), 2u);
  EXPECT_EQ(rig.writer.usable_clean_segments(), 0u);
  // Fill the active segment; the next advance must fail for ordinary writes.
  Status st = OkStatus();
  for (int i = 0; i < 40 && st.ok(); i++) {
    st = rig.Append(rig.Entry(1, static_cast<uint64_t>(i)), 1, 1, WriterRig::kBs).status();
  }
  EXPECT_EQ(st.code(), StatusCode::kNoSpace);
  // Cleaning mode may dip into the reserve.
  rig.writer.set_cleaning(true);
  EXPECT_TRUE(rig.Append(rig.Entry(2, 0), 3, 1, WriterRig::kBs).ok());
}

TEST(SegmentWriterTest, LiveBytesAccounted) {
  WriterRig rig;
  ASSERT_TRUE(rig.Append(rig.Entry(1, 0), 1, 5, 100).ok());
  EXPECT_EQ(rig.usage.Get(0).live_bytes, 100u);  // caller-specified live bytes
  EXPECT_EQ(rig.usage.Get(0).last_write, 5u);
  EXPECT_EQ(rig.stats.log_bytes_by_kind[static_cast<size_t>(BlockKind::kData)],
            WriterRig::kBs);
  EXPECT_EQ(rig.stats.new_payload_bytes, WriterRig::kBs);
  EXPECT_EQ(rig.stats.clean_write_bytes, 0u);
  rig.writer.set_cleaning(true);
  ASSERT_TRUE(rig.Append(rig.Entry(1, 1), 1, 6, 100).ok());
  EXPECT_EQ(rig.stats.clean_write_bytes, WriterRig::kBs);
}

TEST(StatsTest, WriteCostDefinition) {
  LfsStats st;
  st.log_bytes_by_kind[static_cast<size_t>(BlockKind::kData)] = 1000;
  st.new_payload_bytes = 1000;
  EXPECT_DOUBLE_EQ(st.WriteCost(), 1.0);  // pure logging, no overheads
  st.summary_bytes = 100;
  st.clean_read_bytes = 400;
  st.clean_write_bytes = 500;
  st.log_bytes_by_kind[static_cast<size_t>(BlockKind::kData)] += 500;
  // (1000 payload + 500 cleaned + 100 summaries + 400 cleaner reads) / 1000
  EXPECT_DOUBLE_EQ(st.WriteCost(), 2.0);
}

// --- GroupCommit ----------------------------------------------------------------

TEST(GroupCommitTest, SequentialLoneOpsCommitOnlyWhenAsked) {
  GroupCommit txn(/*max_staged_blocks=*/16);
  // Ten lone ops reserve 110 blocks in total, far past the budget of 16;
  // each hands its reservation back, so none is made the committer.
  for (int i = 0; i < 10; i++) {
    txn.BeginOp(11);
    EXPECT_FALSE(txn.EndOp(11, /*want_commit=*/false)) << "op " << i;
  }
  txn.BeginOp(11);
  EXPECT_TRUE(txn.EndOp(11, /*want_commit=*/true));
  txn.EndCommit();
  txn.BeginOp(11);
  EXPECT_FALSE(txn.EndOp(11, /*want_commit=*/false));
}

TEST(GroupCommitTest, OverlappingOpsCommitOnceTheirReservationsCrossTheBudget) {
  GroupCommit txn(/*max_staged_blocks=*/16);
  txn.BeginOp(10);
  txn.BeginOp(6);  // overlaps the first: the transaction keeps both
  EXPECT_FALSE(txn.EndOp(6, /*want_commit=*/false));  // 16 of 16; op 1 still in
  EXPECT_TRUE(txn.EndOp(10, /*want_commit=*/false));  // last op out commits
  txn.EndCommit();

  // Once two ops have overlapped, later ops of that transaction accumulate
  // too, even when they run alone.
  txn.BeginOp(10);
  txn.BeginOp(4);
  EXPECT_FALSE(txn.EndOp(4, /*want_commit=*/false));
  EXPECT_FALSE(txn.EndOp(10, /*want_commit=*/false));  // 14 of 16
  txn.BeginOp(4);
  EXPECT_TRUE(txn.EndOp(4, /*want_commit=*/false));  // 18 of 16
  txn.EndCommit();
}

}  // namespace
}  // namespace lfs
