// Serialization tests for every on-disk structure: round-trips, corruption
// detection (bad magic, bad CRC, truncation), geometry computation, a
// parameterized random round-trip sweep, and the segment chain walker
// against the loop it replaced.

#include <gtest/gtest.h>

#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/fs/directory.h"
#include "src/lfs/layout.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace lfs {
namespace {

constexpr uint32_t kBs = 4096;

TEST(SuperblockTest, ComputeGeometry) {
  auto sb = Superblock::Compute(kBs, 76800, 256, 65536);  // 300 MB
  ASSERT_TRUE(sb.ok()) << sb.status().ToString();
  EXPECT_EQ(sb->block_size, kBs);
  EXPECT_GT(sb->nsegments, 250u);
  EXPECT_GT(sb->seg_start, 0u);
  EXPECT_EQ(sb->cr_base0, 1u);
  EXPECT_EQ(sb->cr_base1, 1 + sb->cr_blocks);
  // Every segment fits on the device.
  EXPECT_LE(sb->SegmentBase(sb->nsegments - 1) + sb->segment_blocks, 76800u);
  // SegOf is the inverse of SegmentBase.
  EXPECT_EQ(sb->SegOf(sb->SegmentBase(5)), 5u);
  EXPECT_EQ(sb->SegOf(sb->SegmentBase(5) + sb->segment_blocks - 1), 5u);
  EXPECT_EQ(sb->SegOf(0), kNilSeg);  // fixed area
}

TEST(SuperblockTest, RejectsBadGeometry) {
  EXPECT_FALSE(Superblock::Compute(1000, 76800, 256, 1024).ok());  // not power of two
  EXPECT_FALSE(Superblock::Compute(kBs, 20, 256, 1024).ok());      // too small
  EXPECT_FALSE(Superblock::Compute(kBs, 76800, 4, 1024).ok());     // tiny segments
}

TEST(SuperblockTest, RoundTripAndCorruption) {
  auto sb = Superblock::Compute(kBs, 76800, 256, 65536);
  ASSERT_TRUE(sb.ok());
  std::vector<uint8_t> block(kBs);
  sb->EncodeTo(block);
  auto back = Superblock::DecodeFrom(block);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->nsegments, sb->nsegments);
  EXPECT_EQ(back->seg_start, sb->seg_start);
  EXPECT_EQ(back->imap_chunks, sb->imap_chunks);

  block[3] ^= 0xFF;  // corrupt the magic
  EXPECT_EQ(Superblock::DecodeFrom(block).status().code(), StatusCode::kCorruption);
  sb->EncodeTo(block);
  block[10] ^= 0x01;  // corrupt a body byte: CRC must catch it
  EXPECT_EQ(Superblock::DecodeFrom(block).status().code(), StatusCode::kCorruption);
}

TEST(InodeTest, RoundTrip) {
  Inode ino;
  ino.ino = 1234;
  ino.type = FileType::kDirectory;
  ino.nlink = 3;
  ino.version = 99;
  ino.size = 0xABCDEF01;
  ino.mtime = 777;
  for (uint32_t i = 0; i < kNumDirect; i++) {
    ino.direct[i] = 1000 + i;
  }
  ino.single_indirect = 5555;
  ino.double_indirect = 6666;
  std::vector<uint8_t> slot(kInodeSlotSize);
  ino.EncodeTo(slot);
  auto back = Inode::DecodeFrom(slot);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ino, ino.ino);
  EXPECT_EQ(back->type, ino.type);
  EXPECT_EQ(back->nlink, ino.nlink);
  EXPECT_EQ(back->version, ino.version);
  EXPECT_EQ(back->size, ino.size);
  EXPECT_EQ(back->mtime, ino.mtime);
  EXPECT_EQ(back->direct[11], ino.direct[11]);
  EXPECT_EQ(back->single_indirect, ino.single_indirect);
  EXPECT_EQ(back->double_indirect, ino.double_indirect);
}

TEST(InodeTest, ZeroedSlotDecodesAsNil) {
  std::vector<uint8_t> slot(kInodeSlotSize, 0);
  auto ino = Inode::DecodeFrom(slot);
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(ino->ino, kNilInode);
  EXPECT_EQ(ino->type, FileType::kNone);
}

TEST(SegmentSummaryTest, RoundTripWithEntries) {
  SegmentSummary sum;
  sum.seq = 42;
  sum.timestamp = 1000;
  sum.youngest_mtime = 999;
  sum.payload_crc = 0xFEEDFACE;
  for (int i = 0; i < 50; i++) {
    sum.entries.push_back(SummaryEntry{BlockKind::kData, static_cast<InodeNum>(i),
                                       static_cast<uint64_t>(i * 3), 7});
  }
  std::vector<uint8_t> block(kBs);
  sum.EncodeTo(block);
  auto back = SegmentSummary::DecodeFrom(block);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seq, 42u);
  EXPECT_EQ(back->youngest_mtime, 999u);
  EXPECT_EQ(back->payload_crc, 0xFEEDFACEu);
  ASSERT_EQ(back->entries.size(), 50u);
  EXPECT_EQ(back->entries[49].fbn, 147u);
  EXPECT_EQ(back->entries[49].kind, BlockKind::kData);
}

TEST(SegmentSummaryTest, CorruptionRejected) {
  SegmentSummary sum;
  sum.seq = 1;
  sum.entries.push_back(SummaryEntry{BlockKind::kData, 1, 0, 1});
  std::vector<uint8_t> block(kBs);
  sum.EncodeTo(block);
  block[100] ^= 0x40;  // flip a bit anywhere
  EXPECT_EQ(SegmentSummary::DecodeFrom(block).status().code(), StatusCode::kCorruption);
  std::vector<uint8_t> zeros(kBs, 0);
  EXPECT_FALSE(SegmentSummary::DecodeFrom(zeros).ok());
}

TEST(ImapEntryTest, RoundTrip) {
  ImapEntry e;
  e.inode_block = 12345;
  e.slot = 17;
  e.version = 3;
  e.atime = 888;
  std::vector<uint8_t> buf(kImapEntrySize);
  e.EncodeTo(buf);
  ImapEntry back = ImapEntry::DecodeFrom(buf);
  EXPECT_EQ(back.inode_block, 12345u);
  EXPECT_EQ(back.slot, 17u);
  EXPECT_EQ(back.version, 3u);
  EXPECT_EQ(back.atime, 888u);
  EXPECT_TRUE(back.allocated());
}

TEST(SegUsageEntryTest, RoundTrip) {
  SegUsageEntry e;
  e.live_bytes = 1 << 20;
  e.last_write = 4242;
  e.state = SegState::kActive;
  std::vector<uint8_t> buf(kUsageEntrySize);
  e.EncodeTo(buf);
  SegUsageEntry back = SegUsageEntry::DecodeFrom(buf);
  EXPECT_EQ(back.live_bytes, 1u << 20);
  EXPECT_EQ(back.last_write, 4242u);
  EXPECT_EQ(back.state, SegState::kActive);
}

TEST(CheckpointTest, RoundTripAndTornWriteDetection) {
  Checkpoint ck;
  ck.ckpt_seq = 17;
  ck.timestamp = 1000;
  ck.next_summary_seq = 555;
  ck.cur_segment = 12;
  ck.cur_offset = 100;
  ck.ninodes = 2000;
  ck.clock = 98765;
  for (int i = 0; i < 30; i++) {
    ck.imap_chunk_addr.push_back(7000 + i);
  }
  ck.usage_chunk_addr = {8000, 8001};
  uint32_t blocks = Checkpoint::RegionBlocks(kBs, 30, 2);
  std::vector<uint8_t> region(size_t{blocks} * kBs);
  ck.EncodeTo(region);
  auto back = Checkpoint::DecodeFrom(region);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ckpt_seq, 17u);
  EXPECT_EQ(back->next_summary_seq, 555u);
  EXPECT_EQ(back->cur_segment, 12u);
  EXPECT_EQ(back->ninodes, 2000u);
  EXPECT_EQ(back->imap_chunk_addr[29], 7029u);
  EXPECT_EQ(back->usage_chunk_addr[1], 8001u);

  // A torn region write (body changed, trailer stale) must be rejected.
  region[8] ^= 0x01;
  EXPECT_EQ(Checkpoint::DecodeFrom(region).status().code(), StatusCode::kCorruption);
}

TEST(DirBlockTest, RoundTripAndCapacity) {
  Directory dir(kBs);
  EXPECT_EQ(dir.Add("alpha", 10, FileType::kRegular), 0u);
  EXPECT_EQ(dir.Add("beta", 11, FileType::kDirectory), 0u);
  EXPECT_EQ(dir.Add(std::string(255, 'z'), 12, FileType::kRegular), 0u);
  ASSERT_EQ(dir.block(0).size(), kBs);
  std::vector<DirEntry> back;
  auto used = Directory::DecodeBlock(
      dir.block(0), [&](std::string_view name, InodeNum ino, FileType type) {
        back.push_back(DirEntry{std::string(name), ino, type});
      });
  ASSERT_TRUE(used.ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].name, "alpha");
  EXPECT_EQ(back[1].type, FileType::kDirectory);
  EXPECT_EQ(back[2].ino, 12u);
  // A u32 count, then 7 bytes plus the name per entry.
  EXPECT_EQ(*used, 4 + (7 + 5) + (7 + 4) + (7 + 255u));
}

TEST(DirLogTest, RoundTripAllOps) {
  std::vector<DirLogRecord> records;
  DirLogRecord create;
  create.op = DirOp::kCreate;
  create.dir_ino = 1;
  create.name = "newfile";
  create.target_ino = 42;
  create.target_version = 2;
  create.new_nlink = 1;
  create.target_type = FileType::kRegular;
  records.push_back(create);

  DirLogRecord rename;
  rename.op = DirOp::kRename;
  rename.dir_ino = 1;
  rename.name = "from";
  rename.target_ino = 43;
  rename.target_version = 1;
  rename.new_nlink = 1;
  rename.target_type = FileType::kDirectory;
  rename.dir2_ino = 5;
  rename.name2 = "to";
  rename.replaced_ino = 44;
  rename.replaced_nlink = 0;
  records.push_back(rename);

  std::vector<uint8_t> block(kBs);
  ASSERT_EQ(EncodeDirLogBlock(records, block), 2u);
  auto back = DecodeDirLogBlock(block);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].op, DirOp::kCreate);
  EXPECT_EQ((*back)[0].name, "newfile");
  EXPECT_EQ((*back)[1].op, DirOp::kRename);
  EXPECT_EQ((*back)[1].name2, "to");
  EXPECT_EQ((*back)[1].replaced_ino, 44u);
  EXPECT_EQ((*back)[1].replaced_nlink, 0u);
}

TEST(DirLogTest, EncodeTakesTheLongestPrefixThatFits) {
  // 34 bytes plus the names per record, after a 6-byte header.
  std::vector<DirLogRecord> records(3);
  for (DirLogRecord& r : records) {
    r.name = std::string(100, 'n');
  }
  std::vector<uint8_t> block(6 + 2 * 134 + 133, 0xEE);
  ASSERT_EQ(EncodeDirLogBlock(records, block), 2u);
  EXPECT_EQ(block.back(), 0);  // the rest is zero-filled
  auto back = DecodeDirLogBlock(block);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  // A record that cannot fit the block alone is not encoded.
  records[0].name2 = std::string(300, 'm');
  EXPECT_EQ(EncodeDirLogBlock(records, block), 0u);
}

// Property sweep: random inodes and summaries round-trip for any content.
class RandomRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomRoundTrip, InodeAndSummary) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; iter++) {
    Inode ino;
    ino.ino = static_cast<InodeNum>(rng.NextU64());
    ino.type = rng.NextBool(0.5) ? FileType::kRegular : FileType::kDirectory;
    ino.nlink = static_cast<uint16_t>(rng.NextU64());
    ino.version = static_cast<uint32_t>(rng.NextU64());
    ino.size = rng.NextU64();
    ino.mtime = rng.NextU64();
    for (auto& d : ino.direct) {
      d = rng.NextU64();
    }
    ino.single_indirect = rng.NextU64();
    ino.double_indirect = rng.NextU64();
    std::vector<uint8_t> slot(kInodeSlotSize);
    ino.EncodeTo(slot);
    auto back = Inode::DecodeFrom(slot);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size, ino.size);
    EXPECT_EQ(back->direct[7], ino.direct[7]);

    SegmentSummary sum;
    sum.seq = rng.NextU64();
    sum.timestamp = rng.NextU64();
    sum.youngest_mtime = rng.NextU64();
    sum.payload_crc = static_cast<uint32_t>(rng.NextU64());
    size_t n = rng.NextBelow(100) + 1;
    for (size_t i = 0; i < n; i++) {
      sum.entries.push_back(
          SummaryEntry{static_cast<BlockKind>(1 + rng.NextBelow(7)),
                       static_cast<InodeNum>(rng.NextU64()), rng.NextU64(),
                       static_cast<uint32_t>(rng.NextU64())});
    }
    std::vector<uint8_t> block(kBs);
    sum.EncodeTo(block);
    auto sum_back = SegmentSummary::DecodeFrom(block);
    ASSERT_TRUE(sum_back.ok());
    ASSERT_EQ(sum_back->entries.size(), n);
    EXPECT_EQ(sum_back->entries[n - 1].fbn, sum.entries[n - 1].fbn);
    EXPECT_EQ(sum_back->seq, sum.seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundTrip, ::testing::Values(1, 2, 3, 4));

// --- the segment chain walker against the loop it replaced --------------------

// One segment's chain as read back: each partial's summary offset, sequence
// number and payload, and where and why the chain ended.
struct ChainRead {
  std::vector<uint32_t> offsets;
  std::vector<uint64_t> seqs;
  std::vector<std::vector<uint8_t>> payloads;
  uint32_t end_offset = 0;
  ChainEnd end = ChainEnd::kNone;
};

// The reference: LfsFileSystem::ParseSegmentChain's loop from before the
// walker existed, with each exit recording where and why it stopped.
ChainRead ReferenceChain(BlockDevice* dev, const Superblock& sb, SegNo seg,
                         uint32_t start_offset, uint32_t stop_offset) {
  ChainRead out;
  const uint32_t bs = sb.block_size;
  const BlockNo base = sb.SegmentBase(seg);
  uint32_t offset = start_offset;
  uint64_t prev_seq = 0;
  std::vector<uint8_t> sum_block(bs);
  out.end = ChainEnd::kStop;
  while (offset + 1 < stop_offset) {
    if (!dev->Read(base + offset, 1, sum_block).ok()) {
      out.end = ChainEnd::kSummaryUnreadable;
      break;
    }
    Result<SegmentSummary> sum = SegmentSummary::DecodeFrom(sum_block);
    if (!sum.ok()) {
      out.end = ChainEnd::kBadSummary;
      break;
    }
    if (prev_seq != 0 && sum->seq <= prev_seq) {
      out.end = ChainEnd::kStaleSeq;
      break;
    }
    uint32_t n = static_cast<uint32_t>(sum->entries.size());
    if (n == 0 || offset + 1 + n > stop_offset) {
      out.end = n == 0 ? ChainEnd::kEmpty : ChainEnd::kOverrun;
      break;
    }
    std::vector<uint8_t> payload(size_t{n} * bs);
    if (!dev->Read(base + offset + 1, n, payload).ok()) {
      out.end = ChainEnd::kPayloadUnreadable;
      break;
    }
    if (Crc32(payload) != sum->payload_crc) {
      out.end = ChainEnd::kPayloadCrc;
      break;
    }
    prev_seq = sum->seq;
    out.offsets.push_back(offset);
    out.seqs.push_back(sum->seq);
    out.payloads.push_back(std::move(payload));
    offset += 1 + n;
  }
  out.end_offset = offset;
  return out;
}

ChainRead WalkChain(BlockDevice* dev, const Superblock& sb, SegNo seg, uint32_t start_offset,
                    uint32_t stop_offset) {
  ChainRead out;
  SegmentChain chain(sb, seg, start_offset, stop_offset,
                     [dev](BlockNo block, uint64_t count, std::span<uint8_t> data) {
                       return dev->Read(block, count, data);
                     });
  std::vector<uint8_t> payload(sb.segment_bytes());
  while (chain.Next() && chain.ReadPayload(payload).ok()) {
    out.offsets.push_back(chain.offset());
    out.seqs.push_back(chain.summary().seq);
    out.payloads.emplace_back(payload.begin(),
                              payload.begin() + size_t{chain.payload_blocks()} * sb.block_size);
  }
  out.end_offset = chain.offset();
  out.end = chain.end();
  return out;
}

// What a seeded segment image carries after its run of valid partials.
enum class Shape {
  kValid,              // nothing: the chain ends at zeros or at the stop offset
  kStaleTail,          // a leftover partial with a lower sequence number
  kEmptySummary,       // a summary that lists no blocks
  kOverrunsStop,       // a partial that runs past the stop offset
  kBadHeaderCrc,       // one summary with a flipped byte
  kMidStart,           // the walk starts at a later partial
  kLatentSummary,      // one summary block the device cannot read
  kUnreadablePayload,  // one payload block the device cannot read
  kBadPayload,         // one payload block read back with a flipped bit
};

// Writes a partial of `n` seeded payload blocks at `offset` of `seg`.
void WritePartial(BlockDevice* dev, const Superblock& sb, SegNo seg, uint32_t offset,
                  uint64_t seq, uint32_t n, Rng* rng) {
  std::vector<uint8_t> payload(size_t{n} * sb.block_size);
  for (uint8_t& b : payload) {
    b = static_cast<uint8_t>(rng->NextU64());
  }
  SegmentSummary sum;
  sum.seq = seq;
  sum.payload_crc = Crc32(payload);
  for (uint32_t i = 0; i < n; i++) {
    sum.entries.push_back(SummaryEntry{BlockKind::kData, 1 + i, i, 1});
  }
  std::vector<uint8_t> block(sb.block_size);
  sum.EncodeTo(block);
  ASSERT_TRUE(dev->Write(sb.SegmentBase(seg) + offset, 1, block).ok());
  if (n > 0) {
    ASSERT_TRUE(dev->Write(sb.SegmentBase(seg) + offset + 1, n, payload).ok());
  }
}

TEST(SegmentChainTest, MatchesTheReferenceLoop) {
  constexpr uint32_t kSmallBs = 512;
  for (Shape shape : {Shape::kValid, Shape::kStaleTail, Shape::kEmptySummary,
                      Shape::kOverrunsStop, Shape::kBadHeaderCrc, Shape::kMidStart,
                      Shape::kLatentSummary, Shape::kUnreadablePayload, Shape::kBadPayload}) {
    for (uint64_t seed = 1; seed <= 25; seed++) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      Result<Superblock> sb_r = Superblock::Compute(kSmallBs, 2048, 32, 64);
      ASSERT_TRUE(sb_r.ok());
      const Superblock sb = *sb_r;
      FaultDisk disk(std::make_unique<MemDisk>(kSmallBs, sb.total_blocks));
      const SegNo seg = static_cast<SegNo>(rng.NextBelow(sb.nsegments));
      const BlockNo base = sb.SegmentBase(seg);

      // A run of valid partials with rising sequence numbers.
      std::vector<uint32_t> offsets;
      uint64_t seq = 1 + rng.NextBelow(1000);
      uint32_t offset = 0;
      const uint32_t count = 1 + static_cast<uint32_t>(rng.NextBelow(4));
      for (uint32_t i = 0; i < count; i++) {
        uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(5));
        WritePartial(&disk, sb, seg, offset, seq, n, &rng);
        offsets.push_back(offset);
        offset += 1 + n;
        seq += 1 + rng.NextBelow(3);
      }
      const uint32_t tail = offset;  // where the valid run ends
      uint32_t start = 0;
      uint32_t stop = rng.NextBool(0.8) ? sb.segment_blocks
                                        : tail + static_cast<uint32_t>(rng.NextBelow(3));
      const BlockNo victim = offsets[rng.NextBelow(offsets.size())];
      ChainEnd want = ChainEnd::kNone;  // the end this shape must reach
      switch (shape) {
        case Shape::kValid:
          break;
        case Shape::kStaleTail:
          WritePartial(&disk, sb, seg, tail, seq - 1 - rng.NextBelow(seq - 1), 2, &rng);
          stop = sb.segment_blocks;
          want = ChainEnd::kStaleSeq;
          break;
        case Shape::kEmptySummary:
          WritePartial(&disk, sb, seg, tail, seq, 0, &rng);
          stop = sb.segment_blocks;
          want = ChainEnd::kEmpty;
          break;
        case Shape::kOverrunsStop:
          WritePartial(&disk, sb, seg, tail, seq, 4, &rng);
          stop = tail + 2 + static_cast<uint32_t>(rng.NextBelow(3));
          want = ChainEnd::kOverrun;
          break;
        case Shape::kBadHeaderCrc: {
          std::vector<uint8_t> block(kSmallBs);
          ASSERT_TRUE(disk.Read(base + victim, 1, block).ok());
          block[rng.NextBelow(kSmallBs)] ^= 0x10;
          ASSERT_TRUE(disk.Write(base + victim, 1, block).ok());
          want = ChainEnd::kBadSummary;
          break;
        }
        case Shape::kMidStart:
          start = static_cast<uint32_t>(victim);
          break;
        case Shape::kLatentSummary:
          disk.AddLatentError(base + victim);
          want = ChainEnd::kSummaryUnreadable;
          break;
        case Shape::kUnreadablePayload:
          disk.AddLatentError(base + victim + 1);
          want = ChainEnd::kPayloadUnreadable;
          break;
        case Shape::kBadPayload:
          disk.CorruptOnRead(base + victim + 1);
          want = ChainEnd::kPayloadCrc;
          break;
      }

      ChainRead ref = ReferenceChain(&disk, sb, seg, start, stop);
      ChainRead got = WalkChain(&disk, sb, seg, start, stop);
      EXPECT_EQ(got.offsets, ref.offsets);
      EXPECT_EQ(got.seqs, ref.seqs);
      EXPECT_TRUE(got.payloads == ref.payloads);
      EXPECT_EQ(got.end_offset, ref.end_offset);
      EXPECT_EQ(static_cast<int>(got.end), static_cast<int>(ref.end));
      if (want != ChainEnd::kNone) {
        EXPECT_EQ(static_cast<int>(got.end), static_cast<int>(want));
      }
    }
  }
}

}  // namespace
}  // namespace lfs
