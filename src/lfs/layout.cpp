#include "src/lfs/layout.h"

#include <cstring>
#include <string>

#include "src/util/codec.h"
#include "src/util/crc32.h"

namespace lfs {

// --- superblock --------------------------------------------------------------

void Superblock::EncodeTo(std::span<uint8_t> block) const {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU32(kSuperMagic);
  enc.PutU32(block_size);
  enc.PutU32(segment_blocks);
  enc.PutU32(nsegments);
  enc.PutU64(seg_start);
  enc.PutU32(cr_blocks);
  enc.PutU64(cr_base0);
  enc.PutU64(cr_base1);
  enc.PutU32(max_inodes);
  enc.PutU32(imap_chunks);
  enc.PutU32(usage_chunks);
  enc.PutU64(total_blocks);
  enc.PutU32(Crc32(buf));
  enc.PadTo(block.size());
  std::memcpy(block.data(), buf.data(), block.size());
}

Result<Superblock> Superblock::DecodeFrom(std::span<const uint8_t> block) {
  Decoder dec(block);
  if (dec.GetU32() != kSuperMagic) {
    return CorruptionError("superblock: bad magic");
  }
  Superblock sb;
  sb.block_size = dec.GetU32();
  sb.segment_blocks = dec.GetU32();
  sb.nsegments = dec.GetU32();
  sb.seg_start = dec.GetU64();
  sb.cr_blocks = dec.GetU32();
  sb.cr_base0 = dec.GetU64();
  sb.cr_base1 = dec.GetU64();
  sb.max_inodes = dec.GetU32();
  sb.imap_chunks = dec.GetU32();
  sb.usage_chunks = dec.GetU32();
  sb.total_blocks = dec.GetU64();
  uint32_t crc = dec.GetU32();
  if (!dec.ok()) {
    return CorruptionError("superblock: truncated");
  }
  if (crc != Crc32(block.subspan(0, dec.pos() - 4))) {
    return CorruptionError("superblock: bad CRC");
  }
  if (sb.block_size == 0 || sb.segment_blocks == 0 || sb.nsegments == 0) {
    return CorruptionError("superblock: zero geometry");
  }
  return sb;
}

Result<Superblock> Superblock::Compute(uint32_t block_size, uint64_t total_blocks,
                                       uint32_t segment_blocks, uint32_t max_inodes) {
  if (block_size < 512 || (block_size & (block_size - 1)) != 0) {
    return InvalidArgumentError("block_size must be a power of two >= 512");
  }
  if (segment_blocks < 8) {
    return InvalidArgumentError("segment_blocks must be >= 8");
  }
  Superblock sb;
  sb.block_size = block_size;
  sb.segment_blocks = segment_blocks;
  sb.max_inodes = max_inodes;
  sb.total_blocks = total_blocks;
  sb.imap_chunks =
      (max_inodes + sb.imap_entries_per_chunk() - 1) / sb.imap_entries_per_chunk();
  // Usage chunk count depends on nsegments which depends on the fixed-area
  // size; compute with a generous first estimate then settle.
  uint64_t est_segments = total_blocks / segment_blocks;
  sb.usage_chunks = static_cast<uint32_t>(
      (est_segments + sb.usage_entries_per_chunk() - 1) / sb.usage_entries_per_chunk());
  sb.cr_blocks = Checkpoint::RegionBlocks(block_size, sb.imap_chunks, sb.usage_chunks);
  sb.cr_base0 = 1;
  sb.cr_base1 = 1 + sb.cr_blocks;
  sb.seg_start = 1 + 2ull * sb.cr_blocks;
  // The final device block is reserved for the backup superblock copy and
  // never belongs to a segment.
  if (total_blocks <= sb.seg_start + 1) {
    return InvalidArgumentError("device too small for fixed area");
  }
  sb.nsegments =
      static_cast<uint32_t>((total_blocks - sb.seg_start - 1) / segment_blocks);
  if (sb.nsegments < 8) {
    return InvalidArgumentError("device too small: fewer than 8 segments");
  }
  sb.usage_chunks =
      (sb.nsegments + sb.usage_entries_per_chunk() - 1) / sb.usage_entries_per_chunk();
  return sb;
}

// --- inode -------------------------------------------------------------------

void Inode::EncodeTo(std::span<uint8_t> slot) const {
  std::vector<uint8_t> buf;
  buf.reserve(kInodeSlotSize);
  Encoder enc(&buf);
  enc.PutU32(ino);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU16(nlink);
  enc.PutU32(version);
  enc.PutU64(size);
  enc.PutU64(mtime);
  for (BlockNo b : direct) {
    enc.PutU64(b);
  }
  enc.PutU64(single_indirect);
  enc.PutU64(double_indirect);
  enc.PadTo(kInodeSlotSize);
  std::memcpy(slot.data(), buf.data(), kInodeSlotSize);
}

Result<Inode> Inode::DecodeFrom(std::span<const uint8_t> slot) {
  Decoder dec(slot);
  Inode ino;
  ino.ino = dec.GetU32();
  ino.type = static_cast<FileType>(dec.GetU8());
  ino.nlink = dec.GetU16();
  ino.version = dec.GetU32();
  ino.size = dec.GetU64();
  ino.mtime = dec.GetU64();
  for (auto& b : ino.direct) {
    b = dec.GetU64();
  }
  ino.single_indirect = dec.GetU64();
  ino.double_indirect = dec.GetU64();
  if (!dec.ok()) {
    return CorruptionError("inode slot: truncated");
  }
  return ino;
}

Result<Inode> Inode::DecodeSlot(std::span<const uint8_t> block, uint32_t slot) {
  if ((uint64_t{slot} + 1) * kInodeSlotSize > block.size()) {
    return CorruptionError("inode slot " + std::to_string(slot) + " does not fit in a " +
                           std::to_string(block.size()) + "-byte block");
  }
  return DecodeFrom(block.subspan(size_t{slot} * kInodeSlotSize, kInodeSlotSize));
}

// --- segment summary ---------------------------------------------------------

void SegmentSummary::EncodeTo(std::span<uint8_t> block) const {
  std::vector<uint8_t> buf;
  buf.reserve(block.size());
  Encoder enc(&buf);
  enc.PutU32(kSummaryMagic);
  enc.PutU64(seq);
  enc.PutU64(timestamp);
  enc.PutU64(youngest_mtime);
  enc.PutU32(static_cast<uint32_t>(entries.size()));
  enc.PutU32(payload_crc);
  // Header CRC goes here (offset 36); fill after encoding entries.
  enc.PutU32(0);
  for (const SummaryEntry& e : entries) {
    enc.PutU8(static_cast<uint8_t>(e.kind));
    enc.PutU32(e.ino);
    enc.PutU64(e.fbn);
    enc.PutU32(e.version);
    enc.PutU64(e.mtime);
  }
  enc.PadTo(block.size());
  // CRC over everything except the CRC field itself: zeroed during compute.
  uint32_t crc = Crc32(buf);
  buf[36] = static_cast<uint8_t>(crc);
  buf[37] = static_cast<uint8_t>(crc >> 8);
  buf[38] = static_cast<uint8_t>(crc >> 16);
  buf[39] = static_cast<uint8_t>(crc >> 24);
  std::memcpy(block.data(), buf.data(), block.size());
}

Result<SegmentSummary> SegmentSummary::DecodeFrom(std::span<const uint8_t> block) {
  Decoder dec(block);
  if (dec.GetU32() != kSummaryMagic) {
    return CorruptionError("segment summary: bad magic");
  }
  SegmentSummary sum;
  sum.seq = dec.GetU64();
  sum.timestamp = dec.GetU64();
  sum.youngest_mtime = dec.GetU64();
  uint32_t nblocks = dec.GetU32();
  sum.payload_crc = dec.GetU32();
  uint32_t stored_crc = dec.GetU32();
  if (!dec.ok()) {
    return CorruptionError("segment summary: truncated header");
  }
  // Verify the block CRC with the CRC field zeroed.
  std::vector<uint8_t> copy(block.begin(), block.end());
  copy[36] = copy[37] = copy[38] = copy[39] = 0;
  if (stored_crc != Crc32(copy)) {
    return CorruptionError("segment summary: bad CRC");
  }
  uint32_t max_entries = static_cast<uint32_t>((block.size() - kSummaryHeaderSize) /
                                               kSummaryEntrySize);
  if (nblocks > max_entries) {
    return CorruptionError("segment summary: entry count too large");
  }
  sum.entries.reserve(nblocks);
  for (uint32_t i = 0; i < nblocks; i++) {
    SummaryEntry e;
    e.kind = static_cast<BlockKind>(dec.GetU8());
    e.ino = dec.GetU32();
    e.fbn = dec.GetU64();
    e.version = dec.GetU32();
    e.mtime = dec.GetU64();
    sum.entries.push_back(e);
  }
  if (!dec.ok()) {
    return CorruptionError("segment summary: truncated entries");
  }
  return sum;
}

// --- imap / usage entries ------------------------------------------------------

void ImapEntry::EncodeTo(std::span<uint8_t> out) const {
  std::vector<uint8_t> buf;
  buf.reserve(kImapEntrySize);
  Encoder enc(&buf);
  enc.PutU64(inode_block);
  enc.PutU16(slot);
  enc.PutU32(version);
  enc.PutU64(atime);
  enc.PadTo(kImapEntrySize);
  std::memcpy(out.data(), buf.data(), kImapEntrySize);
}

ImapEntry ImapEntry::DecodeFrom(std::span<const uint8_t> in) {
  Decoder dec(in);
  ImapEntry e;
  e.inode_block = dec.GetU64();
  e.slot = dec.GetU16();
  e.version = dec.GetU32();
  e.atime = dec.GetU64();
  return e;
}

void SegUsageEntry::EncodeTo(std::span<uint8_t> out) const {
  std::vector<uint8_t> buf;
  buf.reserve(kUsageEntrySize);
  Encoder enc(&buf);
  enc.PutU32(live_bytes);
  enc.PutU64(last_write);
  enc.PutU8(static_cast<uint8_t>(state));
  enc.PutU8(log_id);
  enc.PutU16(reuse_count);
  enc.PadTo(kUsageEntrySize);
  std::memcpy(out.data(), buf.data(), kUsageEntrySize);
}

SegUsageEntry SegUsageEntry::DecodeFrom(std::span<const uint8_t> in) {
  Decoder dec(in);
  SegUsageEntry e;
  e.live_bytes = dec.GetU32();
  e.last_write = dec.GetU64();
  e.state = static_cast<SegState>(dec.GetU8());
  e.log_id = dec.GetU8();
  e.reuse_count = dec.GetU16();
  return e;
}

// --- checkpoint region ----------------------------------------------------------

namespace {
constexpr uint32_t kCheckpointHeaderSize = 4 + 8 + 8 + 8 + 4 + 4 + 4 + 8 + 4 + 4;
constexpr uint32_t kCheckpointTrailerSize = 8 + 4;  // ckpt_seq echo + CRC
}  // namespace

uint32_t Checkpoint::RegionBlocks(uint32_t block_size, uint32_t imap_chunks,
                                  uint32_t usage_chunks) {
  uint64_t bytes = kCheckpointHeaderSize + 8ull * (imap_chunks + usage_chunks) +
                   kCheckpointTrailerSize;
  return static_cast<uint32_t>((bytes + block_size - 1) / block_size);
}

void Checkpoint::EncodeTo(std::span<uint8_t> region) const {
  std::vector<uint8_t> buf;
  buf.reserve(region.size());
  Encoder enc(&buf);
  enc.PutU32(kCheckpointMagic);
  enc.PutU64(ckpt_seq);
  enc.PutU64(timestamp);
  enc.PutU64(next_summary_seq);
  enc.PutU32(cur_segment);
  enc.PutU32(cur_offset);
  enc.PutU32(ninodes);
  enc.PutU64(clock);
  enc.PutU32(static_cast<uint32_t>(imap_chunk_addr.size()));
  enc.PutU32(static_cast<uint32_t>(usage_chunk_addr.size()));
  for (BlockNo b : imap_chunk_addr) {
    enc.PutU64(b);
  }
  for (BlockNo b : usage_chunk_addr) {
    enc.PutU64(b);
  }
  // Multi-log extension: only emitted when extra logs exist (single-log
  // checkpoints keep their exact legacy bytes) and only when the region's
  // rounding slack can hold it — if not, the records are dropped and mount
  // simply re-acquires clean segments for the extra logs.
  if (!extra_logs.empty() &&
      buf.size() + 8 + 8ull * extra_logs.size() <= region.size() - kCheckpointTrailerSize) {
    enc.PutU32(kMultiLogMagic);
    enc.PutU32(static_cast<uint32_t>(extra_logs.size()));
    for (const auto& [seg, off] : extra_logs) {
      enc.PutU32(seg);
      enc.PutU32(off);
    }
  }
  enc.PadTo(region.size() - kCheckpointTrailerSize);
  // Trailer: the checkpoint sequence again plus a CRC over the body. A torn
  // region write leaves a stale or mismatching trailer, which mount rejects
  // (the paper's "time is in the last block" trick, hardened with a CRC).
  uint32_t crc = Crc32(std::span<const uint8_t>(buf.data(), buf.size()));
  enc.PutU64(ckpt_seq);
  enc.PutU32(crc);
  std::memcpy(region.data(), buf.data(), region.size());
}

Result<Checkpoint> Checkpoint::DecodeFrom(std::span<const uint8_t> region) {
  Decoder dec(region);
  if (dec.GetU32() != kCheckpointMagic) {
    return CorruptionError("checkpoint: bad magic");
  }
  Checkpoint ck;
  ck.ckpt_seq = dec.GetU64();
  ck.timestamp = dec.GetU64();
  ck.next_summary_seq = dec.GetU64();
  ck.cur_segment = dec.GetU32();
  ck.cur_offset = dec.GetU32();
  ck.ninodes = dec.GetU32();
  ck.clock = dec.GetU64();
  uint32_t n_imap = dec.GetU32();
  uint32_t n_usage = dec.GetU32();
  if (!dec.ok()) {
    return CorruptionError("checkpoint: truncated header");
  }
  uint64_t body_size = region.size() - kCheckpointTrailerSize;
  if (kCheckpointHeaderSize + 8ull * (n_imap + n_usage) > body_size) {
    return CorruptionError("checkpoint: chunk table overflows region");
  }
  ck.imap_chunk_addr.reserve(n_imap);
  for (uint32_t i = 0; i < n_imap; i++) {
    ck.imap_chunk_addr.push_back(dec.GetU64());
  }
  ck.usage_chunk_addr.reserve(n_usage);
  for (uint32_t i = 0; i < n_usage; i++) {
    ck.usage_chunk_addr.push_back(dec.GetU64());
  }
  // Optional multi-log extension behind a sub-magic; the padding after the
  // chunk tables is zero otherwise, so a legacy region can never match.
  if (body_size - dec.pos() >= 8) {
    Decoder peek(region.subspan(dec.pos(), body_size - dec.pos()));
    if (peek.GetU32() == kMultiLogMagic) {
      uint32_t n_extra = peek.GetU32();
      if (peek.ok() && 8ull * n_extra <= peek.remaining()) {
        for (uint32_t i = 0; i < n_extra; i++) {
          SegNo seg = peek.GetU32();
          uint32_t off = peek.GetU32();
          ck.extra_logs.emplace_back(seg, off);
        }
      }
    }
  }
  Decoder trailer(region.subspan(body_size));
  uint64_t seq_echo = trailer.GetU64();
  uint32_t crc = trailer.GetU32();
  if (seq_echo != ck.ckpt_seq) {
    return CorruptionError("checkpoint: trailer sequence mismatch (torn write)");
  }
  if (crc != Crc32(region.subspan(0, body_size))) {
    return CorruptionError("checkpoint: bad CRC");
  }
  return ck;
}

Status Checkpoint::ValidateAgainst(const Superblock& sb) const {
  if (ninodes > sb.max_inodes) {
    return CorruptionError("checkpoint: ninodes " + std::to_string(ninodes) +
                           " exceeds max_inodes " + std::to_string(sb.max_inodes));
  }
  return OkStatus();
}

Status Checkpoint::ValidateSummarySeq() const {
  if (next_summary_seq >= uint64_t{1} << 63) {
    return CorruptionError("checkpoint: next_summary_seq " + std::to_string(next_summary_seq) +
                           " is not below 2^63");
  }
  return OkStatus();
}

std::set<SegNo> Checkpoint::ChunkHosts(const Superblock& sb) const {
  std::set<SegNo> segs;
  for (const std::vector<BlockNo>* table : {&imap_chunk_addr, &usage_chunk_addr}) {
    for (BlockNo b : *table) {
      if (SegNo s = sb.SegOf(b); s != kNilSeg) {
        segs.insert(s);
      }
    }
  }
  return segs;
}

// --- reading the image ------------------------------------------------------------

Result<Superblock> ReadSuperblock(BlockDevice* device, Status* primary) {
  std::vector<uint8_t> block(device->block_size());
  Status read = device->Read(0, 1, block);
  Result<Superblock> sb = read.ok() ? Superblock::DecodeFrom(block) : Result<Superblock>(read);
  *primary = sb.status();
  if (!sb.ok()) {
    LFS_RETURN_IF_ERROR(device->Read(device->block_count() - 1, 1, block));
    sb = Superblock::DecodeFrom(block);
  }
  if (!sb.ok()) {
    return sb;
  }
  // One rule in place of a range check per field: cr_blocks, the region and
  // segment bases and the chunk counts size what mount reads and allocates.
  Result<Superblock> mkfs = Superblock::Compute(sb->block_size, sb->total_blocks,
                                                sb->segment_blocks, sb->max_inodes);
  if (sb->block_size != device->block_size() || sb->total_blocks > device->block_count() ||
      !mkfs.ok() || *mkfs != *sb) {
    return CorruptionError("superblock geometry does not match the device or mkfs's layout");
  }
  return sb;
}

CheckpointRegions ReadCheckpointRegions(BlockDevice* device, const Superblock& sb) {
  CheckpointRegions out;
  std::vector<uint8_t> region(size_t{sb.cr_blocks} * sb.block_size);
  for (int i = 0; i < 2; i++) {
    Status read = device->Read(i == 0 ? sb.cr_base0 : sb.cr_base1, sb.cr_blocks, region);
    out.regions.push_back(read.ok() ? Checkpoint::DecodeFrom(region) : Result<Checkpoint>(read));
    const Result<Checkpoint>& r = out.regions.back();
    if (r.ok() && (out.newest < 0 || r->ckpt_seq > out.regions[out.newest]->ckpt_seq)) {
      out.newest = i;
    }
  }
  return out;
}

SegmentChain::SegmentChain(const Superblock& sb, SegNo seg, uint32_t start, uint32_t stop,
                           Reader read)
    : base_(sb.SegmentBase(seg)),
      block_size_(sb.block_size),
      stop_(stop),
      read_(std::move(read)),
      offset_(start),
      next_(start),
      block_(sb.block_size) {}

bool SegmentChain::Next() {
  if (end_ != ChainEnd::kNone) {
    return false;
  }
  offset_ = next_;
  if (offset_ + 1 >= stop_) {
    return End(ChainEnd::kStop);
  }
  if (!read_(base_ + offset_, 1, block_).ok()) {
    return End(ChainEnd::kSummaryUnreadable);
  }
  summaries_read_++;
  Result<SegmentSummary> sum = SegmentSummary::DecodeFrom(block_);
  if (!sum.ok()) {
    return End(ChainEnd::kBadSummary);
  }
  if (summary_.seq != 0 && sum->seq <= summary_.seq) {
    return End(ChainEnd::kStaleSeq);
  }
  if (sum->entries.empty()) {
    return End(ChainEnd::kEmpty);
  }
  if (offset_ + 1 + sum->entries.size() > stop_) {
    return End(ChainEnd::kOverrun);
  }
  summary_ = std::move(sum).value();
  next_ = offset_ + 1 + payload_blocks();
  return true;
}

Status SegmentChain::ReadPayload(std::vector<uint8_t>* out) {
  out->resize(size_t{payload_blocks()} * block_size_);
  Status st = read_(payload_addr(), payload_blocks(), *out);
  if (!st.ok()) {
    End(ChainEnd::kPayloadUnreadable);
    return st;
  }
  if (Crc32(*out) != summary_.payload_crc) {
    End(ChainEnd::kPayloadCrc);
    return CorruptionError("payload CRC mismatch in the partial write at block " +
                           std::to_string(base_ + offset_) + " covering blocks [" +
                           std::to_string(payload_addr()) + ", " +
                           std::to_string(payload_addr() + payload_blocks()) + ")");
  }
  return OkStatus();
}

// --- directory operation log --------------------------------------------------------

size_t DirLogRecordEncodedSize(const DirLogRecord& rec) {
  return 1 + 4 + (2 + rec.name.size()) + 4 + 4 + 2 + 1 + 4 + (2 + rec.name2.size()) + 4 + 4 + 2;
}

std::vector<uint8_t> EncodeDirLogBlock(const std::vector<DirLogRecord>& records,
                                       uint32_t block_size) {
  std::vector<uint8_t> buf;
  buf.reserve(block_size);
  Encoder enc(&buf);
  enc.PutU32(kDirLogMagic);
  enc.PutU16(static_cast<uint16_t>(records.size()));
  for (const DirLogRecord& r : records) {
    enc.PutU8(static_cast<uint8_t>(r.op));
    enc.PutU32(r.dir_ino);
    enc.PutLengthPrefixedString(r.name);
    enc.PutU32(r.target_ino);
    enc.PutU32(r.target_version);
    enc.PutU16(r.new_nlink);
    enc.PutU8(static_cast<uint8_t>(r.target_type));
    enc.PutU32(r.dir2_ino);
    enc.PutLengthPrefixedString(r.name2);
    enc.PutU32(r.replaced_ino);
    enc.PutU32(r.replaced_version);
    enc.PutU16(r.replaced_nlink);
  }
  enc.PadTo(block_size);
  return buf;
}

Result<std::vector<DirLogRecord>> DecodeDirLogBlock(std::span<const uint8_t> block) {
  Decoder dec(block);
  if (dec.GetU32() != kDirLogMagic) {
    return CorruptionError("dirlog block: bad magic");
  }
  uint16_t count = dec.GetU16();
  std::vector<DirLogRecord> records;
  records.reserve(count);
  for (uint16_t i = 0; i < count; i++) {
    DirLogRecord r;
    r.op = static_cast<DirOp>(dec.GetU8());
    r.dir_ino = dec.GetU32();
    r.name = dec.GetLengthPrefixedString();
    r.target_ino = dec.GetU32();
    r.target_version = dec.GetU32();
    r.new_nlink = dec.GetU16();
    r.target_type = static_cast<FileType>(dec.GetU8());
    r.dir2_ino = dec.GetU32();
    r.name2 = dec.GetLengthPrefixedString();
    r.replaced_ino = dec.GetU32();
    r.replaced_version = dec.GetU32();
    r.replaced_nlink = dec.GetU16();
    if (!dec.ok()) {
      return CorruptionError("dirlog block: truncated record");
    }
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace lfs
