// lfsdump: inspect the on-disk structures of an LFS image.
//
//   usage: lfsdump <image> <command>
//     super              the superblock / geometry
//     checkpoints        both checkpoint regions
//     segments           one line per segment (state, live bytes, age)
//     logs               per-log append points, segment temperature tags,
//                        and per-segment fill (reuse) counts
//     segment <N>        the partial-write chain of segment N (with CRCs)
//     crcs               per-segment summary/payload CRC validity + quarantine
//     imap               allocated inode-map entries
//     inode <INO>        one inode in full detail
//
// Read-only; works on live, crashed, and corrupt images (it prints whatever
// can be decoded and says so where it cannot). An image shorter than its
// superblock's geometry is refused: the file is never extended to fit.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "src/lfs/layout.h"
#include "tools/open_image.h"

using namespace lfs;

namespace {

struct Image {
  std::unique_ptr<FileDisk> disk;
  Superblock sb;
  CheckpointRegions regions;
  bool have_ck = false;
  Checkpoint ck;  // the newest valid region's

  SegmentChain Chain(SegNo seg) const {
    return SegmentChain(sb, seg, 0, sb.segment_blocks,
                        [this](BlockNo block, uint64_t count, std::span<uint8_t> out) {
                          return disk->Read(block, count, out);
                        });
  }
};

Result<Image> LoadImage(const std::string& path) {
  Image img;
  LFS_ASSIGN_OR_RETURN(img.disk, OpenImage(path));
  Status primary;
  LFS_ASSIGN_OR_RETURN(img.sb, ReadSuperblock(img.disk.get(), &primary));
  if (!primary.ok()) {
    std::fprintf(stderr, "lfsdump: primary superblock bad (%s); using the backup copy\n",
                 primary.ToString().c_str());
  }
  img.regions = ReadCheckpointRegions(img.disk.get(), img.sb);
  if (img.regions.newest >= 0) {
    img.have_ck = true;
    img.ck = *img.regions.regions[img.regions.newest];
  }
  return img;
}

const char* StateName(SegState state) {
  switch (state) {
    case SegState::kClean:
      return "clean";
    case SegState::kActive:
      return "ACTIVE";
    case SegState::kDirty:
      return "dirty";
    case SegState::kQuarantined:
      return "QUARANTINED";
  }
  return "?";
}

// Reads the per-segment usage entries from the newest checkpoint; entries
// for segments whose usage chunk is unreadable stay default (kClean, 0).
std::vector<SegUsageEntry> LoadUsageEntries(const Image& img) {
  std::vector<SegUsageEntry> usage(img.sb.nsegments);
  std::vector<uint8_t> block(img.sb.block_size);
  for (uint32_t c = 0; c < img.ck.usage_chunk_addr.size(); c++) {
    if (!img.disk->Read(img.ck.usage_chunk_addr[c], 1, block).ok()) {
      continue;
    }
    for (uint32_t i = 0; i < img.sb.usage_entries_per_chunk(); i++) {
      SegNo seg = c * img.sb.usage_entries_per_chunk() + i;
      if (seg >= img.sb.nsegments) {
        break;
      }
      usage[seg] = SegUsageEntry::DecodeFrom(std::span<const uint8_t>(block).subspan(
          size_t{i} * kUsageEntrySize, kUsageEntrySize));
    }
  }
  return usage;
}

const char* KindName(BlockKind kind) {
  switch (kind) {
    case BlockKind::kData:
      return "data";
    case BlockKind::kIndirect:
      return "indirect";
    case BlockKind::kDoubleIndirect:
      return "dindirect";
    case BlockKind::kInodeBlock:
      return "inodes";
    case BlockKind::kImapChunk:
      return "imap";
    case BlockKind::kUsageChunk:
      return "usage";
    case BlockKind::kDirLog:
      return "dirlog";
  }
  return "?";
}

void DumpSuper(const Image& img) {
  const Superblock& sb = img.sb;
  std::printf("block size        %u\n", sb.block_size);
  std::printf("segment size      %u blocks (%u KB)\n", sb.segment_blocks,
              sb.segment_bytes() / 1024);
  std::printf("segments          %u (first at block %llu)\n", sb.nsegments,
              static_cast<unsigned long long>(sb.seg_start));
  std::printf("total blocks      %llu (%.1f MB)\n",
              static_cast<unsigned long long>(sb.total_blocks),
              static_cast<double>(sb.total_blocks) * sb.block_size / (1024.0 * 1024));
  std::printf("checkpoint blocks %u at %llu / %llu\n", sb.cr_blocks,
              static_cast<unsigned long long>(sb.cr_base0),
              static_cast<unsigned long long>(sb.cr_base1));
  std::printf("max inodes        %u (%u imap chunks, %u usage chunks)\n", sb.max_inodes,
              sb.imap_chunks, sb.usage_chunks);
}

void DumpCheckpoints(const Image& img) {
  for (int i = 0; i < 2; i++) {
    const Result<Checkpoint>& r = img.regions.regions[i];
    std::printf("region %d (block %llu): ", i,
                static_cast<unsigned long long>(i == 0 ? img.sb.cr_base0 : img.sb.cr_base1));
    if (!r.ok()) {
      std::printf("invalid (%s)\n", r.status().ToString().c_str());
      continue;
    }
    std::printf("seq %llu, clock %llu, tail seg %u offset %u, %u inodes\n",
                static_cast<unsigned long long>(r->ckpt_seq),
                static_cast<unsigned long long>(r->clock), r->cur_segment, r->cur_offset,
                r->ninodes);
  }
}

void DumpSegments(const Image& img) {
  if (!img.have_ck) {
    std::printf("no valid checkpoint; cannot locate the usage table\n");
    return;
  }
  std::vector<uint8_t> block(img.sb.block_size);
  std::printf("%-6s %-11s %12s %12s\n", "seg", "state", "live bytes", "last write");
  for (uint32_t c = 0; c < img.ck.usage_chunk_addr.size(); c++) {
    if (!img.disk->Read(img.ck.usage_chunk_addr[c], 1, block).ok()) {
      continue;
    }
    for (uint32_t i = 0; i < img.sb.usage_entries_per_chunk(); i++) {
      SegNo seg = c * img.sb.usage_entries_per_chunk() + i;
      if (seg >= img.sb.nsegments) {
        break;
      }
      SegUsageEntry e = SegUsageEntry::DecodeFrom(std::span<const uint8_t>(block).subspan(
          size_t{i} * kUsageEntrySize, kUsageEntrySize));
      std::printf("%-6u %-11s %12u %12llu\n", seg, StateName(e.state), e.live_bytes,
                  static_cast<unsigned long long>(e.last_write));
    }
  }
}

void DumpLogs(const Image& img) {
  if (!img.have_ck) {
    std::printf("no valid checkpoint; cannot locate append points\n");
    return;
  }
  std::printf("append points (checkpoint seq %llu):\n",
              static_cast<unsigned long long>(img.ck.ckpt_seq));
  std::printf("  log 0 (hot+metadata): seg %u offset %u\n", img.ck.cur_segment,
              img.ck.cur_offset);
  for (size_t i = 0; i < img.ck.extra_logs.size(); i++) {
    auto [seg, off] = img.ck.extra_logs[i];
    if (seg == kNilSeg) {
      std::printf("  log %zu (cold x%zu):      never opened\n", i + 1, i + 1);
    } else {
      std::printf("  log %zu (cold x%zu):      seg %u offset %u\n", i + 1, i + 1, seg, off);
    }
  }
  if (img.ck.extra_logs.empty()) {
    std::printf("  (single-log image: no multi-log checkpoint extension)\n");
  }

  std::vector<SegUsageEntry> usage = LoadUsageEntries(img);
  std::printf("\n%-6s %-11s %5s %12s %8s\n", "seg", "state", "log", "live bytes", "fills");
  struct PerLog {
    uint32_t segments = 0;
    uint64_t live = 0;
  };
  std::vector<PerLog> per_log;
  for (SegNo seg = 0; seg < img.sb.nsegments; seg++) {
    const SegUsageEntry& e = usage[seg];
    if (e.state == SegState::kClean) {
      continue;
    }
    std::printf("%-6u %-11s %5u %12u %8u\n", seg, StateName(e.state), e.log_id, e.live_bytes,
                e.reuse_count);
    if (per_log.size() <= e.log_id) {
      per_log.resize(size_t{e.log_id} + 1);
    }
    per_log[e.log_id].segments++;
    per_log[e.log_id].live += e.live_bytes;
  }
  std::printf("\nper-log populations (non-clean segments):\n");
  for (size_t log = 0; log < per_log.size(); log++) {
    std::printf("  log %zu: %u segments, %llu live bytes\n", log, per_log[log].segments,
                static_cast<unsigned long long>(per_log[log].live));
  }
}

// Why a chain ended, indexed by ChainEnd.
const char* const kChainEndNames[] = {
    "not ended",
    "no room for another partial",
    "summary unreadable",
    "no valid summary",
    "stale sequence number",
    "empty summary",
    "overruns the segment",
    "payload unreadable",
    "payload CRC mismatch",
};
static_assert(std::size(kChainEndNames) == static_cast<size_t>(ChainEnd::kPayloadCrc) + 1);

void DumpSegmentChain(const Image& img, SegNo seg) {
  SegmentChain chain = img.Chain(seg);
  std::vector<uint8_t> payload;
  while (chain.Next()) {
    const SegmentSummary& sum = chain.summary();
    const char* crc_state = "payload crc ok";
    if (!chain.ReadPayload(&payload).ok()) {
      crc_state = chain.end() == ChainEnd::kPayloadCrc ? "payload crc BAD" : "payload UNREADABLE";
    }
    std::printf("offset %4u: partial write seq %llu, %zu blocks, time %llu, %s\n",
                chain.offset(), static_cast<unsigned long long>(sum.seq), sum.entries.size(),
                static_cast<unsigned long long>(sum.timestamp), crc_state);
    for (size_t i = 0; i < sum.entries.size(); i++) {
      const SummaryEntry& e = sum.entries[i];
      std::printf("    +%-4zu %-9s ino %-6u fbn %-8llu ver %-4u mtime %llu\n", i + 1,
                  KindName(e.kind), e.ino, static_cast<unsigned long long>(e.fbn), e.version,
                  static_cast<unsigned long long>(e.mtime));
    }
  }
  std::printf("offset %4u: end of chain (%s)\n", chain.offset(),
              kChainEndNames[static_cast<size_t>(chain.end())]);
}

void DumpCrcs(const Image& img) {
  if (!img.have_ck) {
    std::printf("no valid checkpoint; cannot locate the usage table\n");
    return;
  }
  std::vector<SegUsageEntry> usage = LoadUsageEntries(img);
  std::vector<uint8_t> payload;
  std::printf("%-6s %-11s %8s %8s %8s  %s\n", "seg", "state", "partials", "crc ok",
              "crc bad", "notes");
  for (SegNo seg = 0; seg < img.sb.nsegments; seg++) {
    if (usage[seg].state == SegState::kClean) {
      continue;
    }
    uint32_t partials = 0, ok = 0;
    SegmentChain chain = img.Chain(seg);
    while (chain.Next()) {
      partials++;
      ok += chain.ReadPayload(&payload).ok() ? 1 : 0;
    }
    std::string notes;
    if (chain.end() == ChainEnd::kSummaryUnreadable || chain.end() == ChainEnd::kPayloadUnreadable ||
        chain.end() == ChainEnd::kPayloadCrc) {
      notes = std::string(kChainEndNames[static_cast<size_t>(chain.end())]) + " at offset " +
              std::to_string(chain.offset());
    }
    std::printf("%-6u %-11s %8u %8u %8u  %s\n", seg, StateName(usage[seg].state), partials,
                ok, partials - ok, notes.c_str());
  }
}

void DumpImap(const Image& img) {
  if (!img.have_ck) {
    std::printf("no valid checkpoint\n");
    return;
  }
  std::vector<uint8_t> block(img.sb.block_size);
  std::printf("%-8s %-12s %-5s %-8s\n", "inode", "block", "slot", "version");
  uint32_t epc = img.sb.imap_entries_per_chunk();
  for (uint32_t c = 0; c < img.ck.imap_chunk_addr.size(); c++) {
    if (uint64_t{c} * epc >= img.ck.ninodes || img.ck.imap_chunk_addr[c] == kNilBlock) {
      break;
    }
    if (!img.disk->Read(img.ck.imap_chunk_addr[c], 1, block).ok()) {
      continue;
    }
    for (uint32_t i = 0; i < epc; i++) {
      InodeNum ino = c * epc + i;
      if (ino >= img.ck.ninodes) {
        break;
      }
      ImapEntry e = ImapEntry::DecodeFrom(std::span<const uint8_t>(block).subspan(
          size_t{i} * kImapEntrySize, kImapEntrySize));
      if (e.allocated()) {
        std::printf("%-8u %-12llu %-5u %-8u\n", ino,
                    static_cast<unsigned long long>(e.inode_block), e.slot, e.version);
      }
    }
  }
}

void DumpInode(const Image& img, InodeNum ino) {
  if (!img.have_ck) {
    std::printf("no valid checkpoint\n");
    return;
  }
  uint32_t epc = img.sb.imap_entries_per_chunk();
  uint32_t chunk = ino / epc;
  if (ino >= img.ck.ninodes || chunk >= img.ck.imap_chunk_addr.size()) {
    std::printf("inode %u is beyond the allocated range\n", ino);
    return;
  }
  std::vector<uint8_t> block(img.sb.block_size);
  if (!img.disk->Read(img.ck.imap_chunk_addr[chunk], 1, block).ok()) {
    std::printf("cannot read imap chunk %u\n", chunk);
    return;
  }
  ImapEntry e = ImapEntry::DecodeFrom(std::span<const uint8_t>(block).subspan(
      size_t{ino % epc} * kImapEntrySize, kImapEntrySize));
  if (!e.allocated()) {
    std::printf("inode %u is not allocated\n", ino);
    return;
  }
  if (!img.disk->Read(e.inode_block, 1, block).ok()) {
    std::printf("cannot read inode block %llu\n",
                static_cast<unsigned long long>(e.inode_block));
    return;
  }
  Result<Inode> inode = Inode::DecodeSlot(block, e.slot);
  if (!inode.ok()) {
    std::printf("inode slot undecodable: %s\n", inode.status().ToString().c_str());
    return;
  }
  std::printf("inode %u at block %llu slot %u\n", ino,
              static_cast<unsigned long long>(e.inode_block), e.slot);
  std::printf("  type    %s\n", inode->type == FileType::kDirectory ? "directory" : "file");
  std::printf("  size    %llu bytes\n", static_cast<unsigned long long>(inode->size));
  std::printf("  nlink   %u   version %u   mtime %llu\n", inode->nlink, inode->version,
              static_cast<unsigned long long>(inode->mtime));
  std::printf("  direct ");
  for (BlockNo b : inode->direct) {
    std::printf(" %llu", static_cast<unsigned long long>(b));
  }
  std::printf("\n  indirect %llu   double %llu\n",
              static_cast<unsigned long long>(inode->single_indirect),
              static_cast<unsigned long long>(inode->double_indirect));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <image> super|checkpoints|segments|logs|segment <N>|crcs|imap|inode <INO>\n",
                 argv[0]);
    return 2;
  }
  auto img = LoadImage(argv[1]);
  if (!img.ok()) {
    std::fprintf(stderr, "lfsdump: %s\n", img.status().ToString().c_str());
    return 2;
  }
  std::string cmd = argv[2];
  if (cmd == "super") {
    DumpSuper(*img);
  } else if (cmd == "checkpoints") {
    DumpCheckpoints(*img);
  } else if (cmd == "segments") {
    DumpSegments(*img);
  } else if (cmd == "logs") {
    DumpLogs(*img);
  } else if (cmd == "segment" && argc >= 4) {
    SegNo seg = static_cast<SegNo>(std::atoi(argv[3]));
    if (seg >= img->sb.nsegments) {
      std::fprintf(stderr, "segment %u out of range (0..%u)\n", seg, img->sb.nsegments - 1);
      return 2;
    }
    DumpSegmentChain(*img, seg);
  } else if (cmd == "crcs") {
    DumpCrcs(*img);
  } else if (cmd == "imap") {
    DumpImap(*img);
  } else if (cmd == "inode" && argc >= 4) {
    DumpInode(*img, static_cast<InodeNum>(std::atoi(argv[3])));
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
  }
  return 0;
}
