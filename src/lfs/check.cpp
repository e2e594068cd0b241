#include "src/lfs/check.h"

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "src/fs/directory.h"
#include "src/lfs/layout.h"
#include "src/util/codec.h"

namespace lfs {
namespace {

class Checker {
 public:
  Checker(BlockDevice* device, const CheckOptions& options)
      : device_(device), options_(options) {}

  Result<CheckReport> Run();

 private:
  void Error(const std::string& invariant, const std::string& msg) {
    report_.errors++;
    if (report_.messages.size() < options_.max_messages) {
      report_.messages.push_back("ERROR: " + msg);
      report_.findings.push_back({invariant, /*error=*/true, msg});
    }
  }
  void Warn(const std::string& invariant, const std::string& msg) {
    report_.warnings++;
    if (report_.messages.size() < options_.max_messages) {
      report_.messages.push_back("warning: " + msg);
      report_.findings.push_back({invariant, /*error=*/false, msg});
    }
  }

  Status ReadBlock(BlockNo addr, std::vector<uint8_t>* out) {
    out->resize(device_->block_size());
    return device_->Read(addr, 1, *out);
  }

  Status LoadCheckpoint();
  Status LoadTables();
  Status CheckInodesAndFiles();
  Status CheckDirectoryTree();
  Status CheckSegmentChains();
  void CheckUsageTable();

  // Claims a block for an owner; detects double-claims and clean-segment
  // violations.
  void Claim(BlockNo addr, const std::string& owner);

  // Reads an inode via the imap; nullopt-style via Result.
  Result<Inode> ReadInode(InodeNum ino);

  BlockDevice* device_;
  CheckOptions options_;
  CheckReport report_;

  Superblock sb_;
  Checkpoint ck_;
  // Is `seg` a recorded append point (log 0's tail or any multi-log extra
  // tail)? Tail segments may legitimately end in a torn partial and carry an
  // approximate usage count.
  bool IsTailSegment(SegNo seg) const {
    if (seg == ck_.cur_segment) {
      return true;
    }
    for (const auto& [tseg, toff] : ck_.extra_logs) {
      if (tseg == seg) {
        return true;
      }
    }
    return false;
  }
  // The recorded append offset for a tail segment (segment_blocks otherwise).
  uint32_t TailOffset(SegNo seg) const {
    if (seg == ck_.cur_segment) {
      return ck_.cur_offset;
    }
    for (const auto& [tseg, toff] : ck_.extra_logs) {
      if (tseg == seg) {
        return toff;
      }
    }
    return sb_.segment_blocks;
  }
  std::vector<ImapEntry> imap_;
  std::vector<SegUsageEntry> usage_;
  std::map<BlockNo, std::string> claimed_;
  std::vector<uint64_t> recomputed_live_;  // per segment, bytes
};

Status Checker::LoadCheckpoint() {
  // The superblock and checkpoint choice are mount's own.
  Status primary;
  LFS_ASSIGN_OR_RETURN(sb_, ReadSuperblock(device_, &primary));
  if (!primary.ok()) {
    Warn("superblock.backup_used", "primary superblock bad (" + primary.ToString() +
         "); using the backup copy");
  }
  CheckpointRegions cr = ReadCheckpointRegions(device_, sb_);
  if (cr.newest < 0) {
    return CorruptionError("no valid checkpoint region");
  }
  ck_ = *cr.regions[cr.newest];
  if (!cr.regions[0].ok() || !cr.regions[1].ok()) {
    Warn("checkpoint.single_region", "only one checkpoint region is valid (normal right after mkfs, "
         "suspicious otherwise)");
  }
  if (ck_.cur_segment >= sb_.nsegments || ck_.cur_offset > sb_.segment_blocks) {
    Error("checkpoint.tail_range", "checkpoint log tail out of range: segment " + std::to_string(ck_.cur_segment));
  }
  for (const auto& [seg, off] : ck_.extra_logs) {
    if (seg == kNilSeg) {
      continue;  // the log had not opened a segment yet
    }
    if (seg >= sb_.nsegments || off > sb_.segment_blocks) {
      Error("checkpoint.tail_range", "checkpoint extra log tail out of range: segment " + std::to_string(seg));
    }
  }
  Status seq = ck_.ValidateSummarySeq();
  if (!seq.ok()) {
    Error("checkpoint.seq_range", seq.message());
  }
  return OkStatus();
}

Status Checker::LoadTables() {
  std::vector<uint8_t> block;
  usage_.resize(sb_.nsegments);
  if (ck_.usage_chunk_addr.size() * sb_.usage_entries_per_chunk() < sb_.nsegments) {
    return CorruptionError("checkpoint usage chunk table too small");
  }
  for (uint32_t c = 0; c < ck_.usage_chunk_addr.size(); c++) {
    BlockNo addr = ck_.usage_chunk_addr[c];
    if (addr == kNilBlock || addr >= device_->block_count()) {
      return CorruptionError("usage chunk " + std::to_string(c) + " address invalid");
    }
    LFS_RETURN_IF_ERROR(ReadBlock(addr, &block));
    for (uint32_t i = 0; i < sb_.usage_entries_per_chunk(); i++) {
      SegNo seg = c * sb_.usage_entries_per_chunk() + i;
      if (seg >= sb_.nsegments) {
        break;
      }
      usage_[seg] = SegUsageEntry::DecodeFrom(
          std::span<const uint8_t>(block).subspan(size_t{i} * kUsageEntrySize,
                                                  kUsageEntrySize));
      if (usage_[seg].state == SegState::kClean) {
        report_.clean_segments++;
      } else if (usage_[seg].state == SegState::kQuarantined) {
        report_.quarantined_segments++;
      }
    }
  }
  // Claim the chunk blocks only after the whole table is loaded: a chunk's
  // hosting segment may be covered by a chunk that loads later, and judging
  // it against the default-initialized entry (state 0 = clean) would report
  // phantom "chunk lives in a clean segment" corruption.
  for (uint32_t c = 0; c < ck_.usage_chunk_addr.size(); c++) {
    Claim(ck_.usage_chunk_addr[c], "usage chunk " + std::to_string(c));
  }

  // An out-of-range high-water mark leaves the imap empty: sizing a copy
  // from it could exhaust memory, and no entry past max_inodes is trusted.
  Status range = ck_.ValidateAgainst(sb_);
  if (!range.ok()) {
    Error("checkpoint.ninodes_range", range.message());
  }
  uint32_t ninodes = range.ok() ? ck_.ninodes : 0;
  imap_.resize(ninodes);
  uint32_t epc = sb_.imap_entries_per_chunk();
  for (uint32_t c = 0; c < ck_.imap_chunk_addr.size(); c++) {
    if (uint64_t{c} * epc >= ninodes) {
      break;
    }
    BlockNo addr = ck_.imap_chunk_addr[c];
    if (addr == kNilBlock || addr >= device_->block_count()) {
      Error("imap.chunk_addr", "imap chunk " + std::to_string(c) + " address invalid");
      continue;
    }
    LFS_RETURN_IF_ERROR(ReadBlock(addr, &block));
    for (uint32_t i = 0; i < epc; i++) {
      InodeNum ino = c * epc + i;
      if (ino >= ninodes) {
        break;
      }
      imap_[ino] = ImapEntry::DecodeFrom(std::span<const uint8_t>(block).subspan(
          size_t{i} * kImapEntrySize, kImapEntrySize));
    }
    Claim(addr, "imap chunk " + std::to_string(c));
  }
  // Current metadata chunks are live data in their segments; account them so
  // the usage-table cross-check balances.
  recomputed_live_.assign(sb_.nsegments, 0);
  for (BlockNo addr : ck_.usage_chunk_addr) {
    SegNo seg = sb_.SegOf(addr);
    if (seg != kNilSeg) {
      recomputed_live_[seg] += sb_.block_size;
    }
  }
  for (uint32_t c = 0; c < ck_.imap_chunk_addr.size(); c++) {
    if (uint64_t{c} * epc >= ninodes) {
      break;
    }
    SegNo seg = sb_.SegOf(ck_.imap_chunk_addr[c]);
    if (seg != kNilSeg) {
      recomputed_live_[seg] += sb_.block_size;
    }
  }
  return OkStatus();
}

void Checker::Claim(BlockNo addr, const std::string& owner) {
  if (addr == kNilBlock) {
    return;
  }
  if (addr >= device_->block_count()) {
    Error("blocktree.out_of_range", owner + " points past the device: block " + std::to_string(addr));
    return;
  }
  SegNo seg = sb_.SegOf(addr);
  if (seg == kNilSeg) {
    Error("blocktree.fixed_area", owner + " points into the fixed area: block " + std::to_string(addr));
    return;
  }
  if (usage_[seg].state == SegState::kClean) {
    Error("blocktree.clean_segment", owner + " lives in segment " + std::to_string(seg) +
          " which the usage table marks CLEAN");
  }
  auto [it, inserted] = claimed_.emplace(addr, owner);
  if (!inserted) {
    Error("blocktree.double_claim", "block " + std::to_string(addr) + " claimed twice: by " + it->second + " and " +
          owner);
  }
}

Result<Inode> Checker::ReadInode(InodeNum ino) {
  const ImapEntry& e = imap_[ino];
  std::vector<uint8_t> block;
  LFS_RETURN_IF_ERROR(ReadBlock(e.inode_block, &block));
  return Inode::DecodeSlot(block, e.slot);
}

Status Checker::CheckInodesAndFiles() {
  const uint32_t ppb = sb_.pointers_per_block();
  for (InodeNum ino = 1; ino < imap_.size(); ino++) {
    const ImapEntry& e = imap_[ino];
    if (!e.allocated()) {
      continue;
    }
    std::string who = "inode " + std::to_string(ino);
    SegNo iseg = sb_.SegOf(e.inode_block);
    if (iseg == kNilSeg) {
      Error("inode.imap_outside", who + ": imap points outside the segment area");
      continue;
    }
    if (usage_[iseg].state == SegState::kClean) {
      Error("inode.clean_segment", who + ": inode block is in a CLEAN segment");
    }
    Result<Inode> inode_r = ReadInode(ino);
    if (!inode_r.ok()) {
      Error("inode.unreadable", who + ": unreadable (" + inode_r.status().ToString() + ")");
      continue;
    }
    const Inode& inode = *inode_r;
    if (inode.ino != ino) {
      Error("inode.slot_mismatch", who + ": slot holds inode " + std::to_string(inode.ino));
      continue;
    }
    if (inode.version != e.version) {
      Error("inode.version_mismatch", who + ": version " + std::to_string(inode.version) + " != imap version " +
            std::to_string(e.version));
    }
    if (inode.type != FileType::kRegular && inode.type != FileType::kDirectory) {
      Error("inode.bad_type", who + ": invalid type " + std::to_string(static_cast<int>(inode.type)));
      continue;
    }
    recomputed_live_[iseg] += kInodeSlotSize;
    if (inode.type == FileType::kDirectory) {
      report_.directories++;
    } else {
      report_.files++;
    }
    if (inode.size > sb_.max_file_bytes()) {
      Error("inode.size_out_of_range", who + ": size " + std::to_string(inode.size) +
            " exceeds what its block tree addresses");
      continue;
    }

    // Walk the block tree.
    uint64_t nblocks = (inode.size + sb_.block_size - 1) / sb_.block_size;
    std::vector<BlockNo> ind_addrs;
    if (nblocks > kNumDirect) {
      uint64_t ind_count = (nblocks - kNumDirect + ppb - 1) / ppb;
      ind_addrs.assign(ind_count, kNilBlock);
      ind_addrs[0] = inode.single_indirect;
      if (ind_count > 1) {
        if (inode.double_indirect != kNilBlock) {
          Claim(inode.double_indirect, who + " double-indirect");
          SegNo dseg = sb_.SegOf(inode.double_indirect);
          if (dseg != kNilSeg) {
            recomputed_live_[dseg] += sb_.block_size;
          }
          std::vector<uint8_t> block;
          LFS_RETURN_IF_ERROR(ReadBlock(inode.double_indirect, &block));
          Decoder dec(block);
          for (uint64_t j = 1; j < ind_count; j++) {
            ind_addrs[j] = dec.GetU64();
          }
        }
      }
    }
    auto data_addr = [&](uint64_t fbn, std::vector<std::vector<uint8_t>>& ind_cache)
        -> Result<BlockNo> {
      if (fbn < kNumDirect) {
        return inode.direct[fbn];
      }
      uint64_t idx = (fbn - kNumDirect) / ppb;
      if (idx >= ind_addrs.size() || ind_addrs[idx] == kNilBlock) {
        return kNilBlock;
      }
      if (ind_cache[idx].empty()) {
        LFS_RETURN_IF_ERROR(ReadBlock(ind_addrs[idx], &ind_cache[idx]));
      }
      Decoder dec(ind_cache[idx]);
      dec.Skip(((fbn - kNumDirect) % ppb) * 8);
      return dec.GetU64();
    };
    for (uint64_t i = 0; i < ind_addrs.size(); i++) {
      if (ind_addrs[i] != kNilBlock) {
        Claim(ind_addrs[i], who + " indirect " + std::to_string(i));
        SegNo s = sb_.SegOf(ind_addrs[i]);
        if (s != kNilSeg) {
          recomputed_live_[s] += sb_.block_size;
        }
      }
    }
    std::vector<std::vector<uint8_t>> ind_cache(ind_addrs.size());
    for (uint64_t fbn = 0; fbn < nblocks; fbn++) {
      Result<BlockNo> addr = data_addr(fbn, ind_cache);
      if (!addr.ok()) {
        Error("inode.indirect_unreadable", who + ": unreadable indirect block");
        break;
      }
      if (*addr == kNilBlock) {
        continue;  // hole
      }
      Claim(*addr, who + " fbn " + std::to_string(fbn));
      SegNo s = sb_.SegOf(*addr);
      if (s != kNilSeg) {
        recomputed_live_[s] += sb_.block_size;
      }
      report_.live_data_blocks++;
    }
  }
  return OkStatus();
}

Status Checker::CheckDirectoryTree() {
  // Breadth-first walk from the root; count references per inode.
  std::vector<uint32_t> refs(imap_.size(), 0);
  std::set<InodeNum> visited;
  std::vector<InodeNum> queue = {kRootInode};
  if (imap_.size() <= kRootInode || !imap_[kRootInode].allocated()) {
    Error("dirtree.root_missing", "root inode is not allocated");
    return OkStatus();
  }
  refs[kRootInode]++;  // the root references itself
  while (!queue.empty()) {
    InodeNum dir = queue.back();
    queue.pop_back();
    if (!visited.insert(dir).second) {
      Error("dirtree.cycle", "directory cycle involving inode " + std::to_string(dir));
      continue;
    }
    Result<Inode> inode = ReadInode(dir);
    if (!inode.ok() || inode->type != FileType::kDirectory ||
        inode->size > sb_.max_file_bytes()) {
      continue;  // already reported by CheckInodesAndFiles
    }
    // Read the directory contents block by block through the inode tree.
    uint64_t nblocks = (inode->size + sb_.block_size - 1) / sb_.block_size;
    const uint32_t ppb = sb_.pointers_per_block();
    std::vector<uint8_t> ind;
    if (nblocks > kNumDirect && inode->single_indirect != kNilBlock) {
      LFS_RETURN_IF_ERROR(ReadBlock(inode->single_indirect, &ind));
    }
    for (uint64_t fbn = 0; fbn < nblocks; fbn++) {
      BlockNo addr = kNilBlock;
      if (fbn < kNumDirect) {
        addr = inode->direct[fbn];
      } else if (!ind.empty() && fbn - kNumDirect < ppb) {
        Decoder dec(ind);
        dec.Skip((fbn - kNumDirect) * 8);
        addr = dec.GetU64();
      } else {
        Warn("dirtree.oversize", "directory " + std::to_string(dir) + " larger than checker walks");
        break;
      }
      if (addr == kNilBlock) {
        continue;
      }
      std::vector<uint8_t> block;
      LFS_RETURN_IF_ERROR(ReadBlock(addr, &block));
      Result<size_t> decoded = Directory::DecodeBlock(
          block, [&](std::string_view name, InodeNum ino, FileType type) {
            if (ino >= imap_.size() || !imap_[ino].allocated()) {
              Error("dirtree.dangling_entry",
                    "dangling entry '" + std::string(name) + "' in directory " + std::to_string(dir));
              return;
            }
            refs[ino]++;
            Result<Inode> target = ReadInode(ino);
            if (target.ok() && target->type != type) {
              Error("dirtree.type_mismatch",
                    "entry '" + std::string(name) + "' type disagrees with inode " + std::to_string(ino));
            }
            if (type == FileType::kDirectory) {
              queue.push_back(ino);
            }
          });
      if (!decoded.ok()) {
        Error("dirtree.block_undecodable", "directory " + std::to_string(dir) + " block " + std::to_string(fbn) +
              " undecodable");
      }
    }
  }
  // Link counts and reachability.
  for (InodeNum ino = 1; ino < imap_.size(); ino++) {
    if (!imap_[ino].allocated()) {
      continue;
    }
    Result<Inode> inode = ReadInode(ino);
    if (!inode.ok()) {
      continue;
    }
    if (refs[ino] == 0) {
      Warn("dirtree.orphan", "inode " + std::to_string(ino) + " is allocated but unreachable (orphan)");
      continue;
    }
    if (inode->nlink != refs[ino]) {
      Error("dirtree.nlink", "inode " + std::to_string(ino) + " nlink " + std::to_string(inode->nlink) +
            " != directory references " + std::to_string(refs[ino]));
    }
  }
  return OkStatus();
}

Status Checker::CheckSegmentChains() {
  std::vector<uint8_t> payload;
  for (SegNo seg = 0; seg < sb_.nsegments; seg++) {
    report_.segments_scanned++;
    if (usage_[seg].state == SegState::kClean) {
      continue;
    }
    // The active segment is scanned past the checkpoint offset too, so a
    // crashed image's log tail gets its CRCs looked at (torn tail partials
    // are recoverable and only warned about).
    SegmentChain chain(sb_, seg, 0, sb_.segment_blocks,
                       [this](BlockNo block, uint64_t count, std::span<uint8_t> out) {
                         return device_->Read(block, count, out);
                       });
    while (chain.Next()) {
      report_.partial_writes++;
      if (!options_.verify_payload_crcs || chain.ReadPayload(&payload).ok()) {
        continue;
      }
      // Damage inside a quarantined segment is known and contained: the
      // filesystem has already fenced it off, so report it as a warning.
      bool quarantined = usage_[seg].state == SegState::kQuarantined;
      const uint32_t offset = chain.offset();
      if (chain.end() == ChainEnd::kPayloadUnreadable) {
        if (quarantined) {
          Warn("segchain.quarantined", "quarantined segment " + std::to_string(seg) +
               ": unreadable payload at offset " + std::to_string(offset));
        } else {
          Error("segchain.payload_unreadable", "segment " + std::to_string(seg) +
                ": unreadable payload at offset " + std::to_string(offset));
        }
      } else if (IsTailSegment(seg) && offset >= TailOffset(seg)) {
        // Only the log tail may legitimately hold a torn partial write.
        Warn("segchain.torn_tail", "torn partial write in the log tail (recoverable)");
      } else if (chain.summary().seq >= ck_.next_summary_seq) {
        // A post-checkpoint sequence number marks an in-flight write the
        // crash tore — e.g. a checkpoint's own chunk appends into a
        // swept segment whose region write never landed. Roll-forward
        // rejects the partial at the sequence gap, so the state is
        // recoverable by contract; only pre-checkpoint payloads are held
        // to the hard corruption standard.
        Warn("segchain.torn_inflight", "segment " + std::to_string(seg) +
             ": torn in-flight write at offset " + std::to_string(offset) +
             " (recoverable)");
      } else if (quarantined) {
        Warn("segchain.quarantined", "quarantined segment " + std::to_string(seg) +
             ": payload CRC mismatch at offset " + std::to_string(offset));
      } else {
        Error("segchain.payload_crc", "segment " + std::to_string(seg) +
              ": payload CRC mismatch at offset " + std::to_string(offset));
      }
    }
  }
  return OkStatus();
}

void Checker::CheckUsageTable() {
  for (SegNo seg = 0; seg < sb_.nsegments; seg++) {
    if (usage_[seg].state == SegState::kClean) {
      if (recomputed_live_[seg] != 0) {
        // Already reported block-by-block via Claim(); summarize anyway.
        Error("usage.clean_live", "segment " + std::to_string(seg) + " is CLEAN but holds " +
              std::to_string(recomputed_live_[seg]) + " live bytes");
      }
      continue;
    }
    uint64_t table = usage_[seg].live_bytes;
    uint64_t actual = recomputed_live_[seg];
    if (table != actual) {
      // Post-checkpoint tail activity legitimately drifts; metadata chunk
      // self-reference makes the active segment approximate; a quarantined
      // segment's count reflects blocks the checker may not have been able
      // to walk. Everything else should match what the checkpoint recorded.
      if (IsTailSegment(seg) || usage_[seg].state == SegState::kQuarantined) {
        const char* kind = IsTailSegment(seg) ? "active" : "quarantined";
        Warn("usage.tail_drift", std::string(kind) + " segment " + std::to_string(seg) +
             " live bytes: table " + std::to_string(table) + " vs actual " +
             std::to_string(actual));
      } else {
        Error("usage.mismatch", "segment " + std::to_string(seg) + " live bytes: table " +
              std::to_string(table) + " vs recomputed " + std::to_string(actual));
      }
    }
  }
}

Result<CheckReport> Checker::Run() {
  LFS_RETURN_IF_ERROR(LoadCheckpoint());
  LFS_RETURN_IF_ERROR(LoadTables());
  LFS_RETURN_IF_ERROR(CheckInodesAndFiles());
  LFS_RETURN_IF_ERROR(CheckDirectoryTree());
  LFS_RETURN_IF_ERROR(CheckSegmentChains());
  CheckUsageTable();
  return report_;
}

}  // namespace

std::string CheckReport::Summary() const {
  std::string out = ok() ? "CLEAN" : "CORRUPT";
  out += ": " + std::to_string(errors) + " errors, " + std::to_string(warnings) +
         " warnings; " + std::to_string(files) + " files, " + std::to_string(directories) +
         " directories, " + std::to_string(live_data_blocks) + " live data blocks, " +
         std::to_string(partial_writes) + " partial writes in " +
         std::to_string(segments_scanned) + " segments (" + std::to_string(clean_segments) +
         " clean";
  if (quarantined_segments > 0) {
    out += ", " + std::to_string(quarantined_segments) + " quarantined";
  }
  out += ")";
  return out;
}

std::string CheckReport::ToJson() const {
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::string out = "{";
  out += "\"ok\":" + std::string(ok() ? "true" : "false");
  out += ",\"errors\":" + std::to_string(errors);
  out += ",\"warnings\":" + std::to_string(warnings);
  out += ",\"files\":" + std::to_string(files);
  out += ",\"directories\":" + std::to_string(directories);
  out += ",\"live_data_blocks\":" + std::to_string(live_data_blocks);
  out += ",\"segments_scanned\":" + std::to_string(segments_scanned);
  out += ",\"partial_writes\":" + std::to_string(partial_writes);
  out += ",\"clean_segments\":" + std::to_string(clean_segments);
  out += ",\"quarantined_segments\":" + std::to_string(quarantined_segments);
  out += ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); i++) {
    if (i > 0) {
      out += ",";
    }
    out += "{\"invariant\":\"" + escape(findings[i].invariant) + "\",\"severity\":\"" +
           (findings[i].error ? "error" : "warning") + "\",\"message\":\"" +
           escape(findings[i].message) + "\"}";
  }
  out += "]}";
  return out;
}

Result<CheckReport> CheckLfsImage(BlockDevice* device, const CheckOptions& options) {
  Checker checker(device, options);
  return checker.Run();
}

}  // namespace lfs
