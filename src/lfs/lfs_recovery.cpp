// Crash recovery: roll-forward over the post-checkpoint log tail (Section 4.2).
//
// The checkpoint gives a consistent base state. Roll-forward then:
//   1. collects every valid partial-segment write with a sequence number at
//      or after the checkpoint boundary (summary + payload CRCs make a
//      partial write the atomic logging unit: torn writes are ignored);
//   2. replays inode blocks in sequence order, updating the inode map — an
//      inode in the log always post-dates its file's data and indirect
//      blocks, so accepting an inode automatically incorporates its data
//      ("data blocks without a new copy of the inode are ignored");
//   3. adjusts the segment usage table: post-checkpoint segments gain the
//      blocks that are live in the recovered state, and segments holding
//      superseded pre-checkpoint copies are decremented;
//   4. replays the directory operation log to restore consistency between
//      directory entries and inode reference counts, completing or undoing
//      half-finished create/link/unlink/rename operations.
//
// The changed directories, inodes, and table chunks are then written back to
// the log by the checkpoint the caller takes after mount.

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "src/lfs/lfs.h"

namespace lfs {

SegmentChain LfsFileSystem::Chain(SegNo seg, uint32_t start_offset,
                                  uint32_t stop_offset) const {
  return SegmentChain(sb_, seg, start_offset, stop_offset,
                      [this](BlockNo block, uint64_t count, std::span<uint8_t> out) {
                        return DeviceRead(block, count, out);
                      });
}

std::vector<LfsFileSystem::ParsedPartial> LfsFileSystem::ParseSegmentChain(
    SegNo seg, uint32_t start_offset, uint32_t stop_offset, uint64_t min_seq, ChainEnd* end) {
  std::vector<ParsedPartial> out;
  SegmentChain chain = Chain(seg, start_offset, stop_offset);
  std::vector<uint8_t> payload;
  while (chain.Next() && chain.ReadPayload(&payload).ok()) {
    if (chain.summary().seq >= min_seq) {
      out.push_back(ParsedPartial{seg, chain.offset(), chain.summary(), std::move(payload)});
    }
  }
  if (end != nullptr) {
    *end = chain.end();
  }
  return out;
}

Status LfsFileSystem::RollForward(const Checkpoint& ck) {
  in_recovery_ = true;
  const uint64_t start_seq = ck.next_summary_seq;
  const uint32_t bs = sb_.block_size;

  // --- 1. collect the post-checkpoint log tail --------------------------------
  // The writer only appends to the checkpoint's active segment or to
  // segments the checkpoint recorded as clean (cleaning bursts and dead-
  // segment sweeps are immediately covered by a checkpoint). Clean segments
  // are furthermore consumed in ascending index order (PickClean), so the
  // scan probes them in that order and stops at the first one never used —
  // recovery cost is proportional to the data written since the checkpoint,
  // not to the disk size (the property behind Table 3).
  std::vector<ParsedPartial> replay;
  std::vector<uint8_t> sum_block(bs);
  // Every append point the checkpoint recorded can have a post-checkpoint
  // tail: log 0 (cur_segment/cur_offset) and, in multi-log mode, each extra
  // log's position.
  std::vector<std::pair<SegNo, uint32_t>> tails;
  tails.emplace_back(ck.cur_segment, ck.cur_offset);
  for (const auto& [seg, off] : ck.extra_logs) {
    if (seg != kNilSeg && seg < sb_.nsegments && off <= sb_.segment_blocks) {
      tails.emplace_back(seg, off);
    }
  }
  // Every segment the scan touches, with its scan-start offset: used below to
  // scrub stale chain remnants out of segments that stop being append points.
  std::vector<std::pair<SegNo, uint32_t>> scanned = tails;
  for (const auto& [seg, off] : tails) {
    for (ParsedPartial& p : ParseSegmentChain(seg, off, sb_.segment_blocks, start_seq)) {
      replay.push_back(std::move(p));
    }
  }
  auto is_tail_segment = [&](SegNo seg) {
    for (const auto& [tseg, toff] : tails) {
      if (tseg == seg) {
        return true;
      }
    }
    return false;
  };
  for (SegNo seg = 0; seg < sb_.nsegments; seg++) {
    if (is_tail_segment(seg) || usage_.Get(seg).state != SegState::kClean) {
      continue;
    }
    if (!DeviceRead(sb_.SegmentBase(seg), 1, sum_block).ok()) {
      break;
    }
    Result<SegmentSummary> first = SegmentSummary::DecodeFrom(sum_block);
    if (!first.ok() || first->seq < start_seq) {
      break;  // first clean segment never reused; later ones cannot be either
    }
    scanned.emplace_back(seg, 0);
    for (ParsedPartial& p : ParseSegmentChain(seg, 0, sb_.segment_blocks, start_seq)) {
      replay.push_back(std::move(p));
    }
  }
  std::sort(replay.begin(), replay.end(), [](const ParsedPartial& a, const ParsedPartial& b) {
    return a.summary.seq < b.summary.seq;
  });
  // Keep only the contiguous run starting at the checkpoint boundary.
  uint64_t expected = start_seq;
  size_t keep = 0;
  while (keep < replay.size() && replay[keep].summary.seq == expected) {
    keep++;
    expected++;
  }
  replay.resize(keep);
  if (replay.empty()) {
    in_recovery_ = false;
    return OkStatus();
  }
  stats_.rollforward_partials += replay.size();
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kRollForward, obs::OpType::kNone, clock_.Now(),
            replay.size(), start_seq, device_->ModeledTime());

  // Advance the log tail past everything we are about to accept, so new
  // writes append after the recovered data instead of overwriting it.
  const ParsedPartial& last = replay.back();
  uint32_t tail_offset =
      last.offset + 1 + static_cast<uint32_t>(last.summary.entries.size());
  // Recovery collapses every append point onto a single tail at the globally
  // newest accepted partial. The other logs' abandoned segments become
  // ordinary dirty segments; in multi-log mode the logs re-acquire clean
  // segments on their next append.
  for (uint32_t log = 0; log < writer_.num_logs(); log++) {
    SegNo seg = writer_.log_segment(log);
    if (seg != kNilSeg && seg != last.seg &&
        usage_.Get(seg).state == SegState::kActive) {
      usage_.SetState(seg, SegState::kDirty);
    }
  }
  if (usage_.Get(last.seg).state != SegState::kActive) {
    usage_.SetState(last.seg, SegState::kActive);
  }
  writer_.Init(last.seg, tail_offset, last.summary.seq + 1);

  // Segments other than the surviving tail stop being append points, so
  // nothing will ever overwrite what sits past their accepted records — but a
  // torn partial (or a valid record rejected for a sequence gap) may have
  // left a decodable post-checkpoint summary there, dangling beyond the
  // recovered chain of an ordinary dirty segment. Zero that one summary block
  // so the chain ends cleanly. Idempotent across a crash during recovery: the
  // scrubbed record was rejected by this scan and would be again.
  for (const auto& [seg, scan_start] : scanned) {
    if (seg == last.seg) {
      continue;  // the resumed tail; new appends overwrite it
    }
    uint32_t acc_end = scan_start;
    for (const ParsedPartial& p : replay) {
      if (p.seg == seg) {
        acc_end = std::max(
            acc_end, p.offset + 1 + static_cast<uint32_t>(p.summary.entries.size()));
      }
    }
    if (acc_end + 1 >= sb_.segment_blocks) {
      continue;
    }
    if (!DeviceRead(sb_.SegmentBase(seg) + acc_end, 1, sum_block).ok()) {
      continue;
    }
    Result<SegmentSummary> stale = SegmentSummary::DecodeFrom(sum_block);
    if (stale.ok() && stale->seq >= start_seq) {
      std::fill(sum_block.begin(), sum_block.end(), uint8_t{0});
      LFS_RETURN_IF_ERROR(DeviceWrite(sb_.SegmentBase(seg) + acc_end, 1, sum_block));
      stats_.rollforward_scrubbed++;
    }
  }

  // --- 2. structural replay: newest inode copies win ---------------------------
  ClearInodeTables();
  std::map<InodeNum, ImapEntry> first_touch;  // pre-replay imap state per inode
  std::vector<DirLogRecord> dirops;
  for (const ParsedPartial& p : replay) {
    if (usage_.Get(p.seg).state == SegState::kClean) {
      usage_.SetState(p.seg, SegState::kDirty);
    }
    usage_.SetWriteSeq(p.seg, p.summary.seq);
    for (size_t i = 0; i < p.summary.entries.size(); i++) {
      const SummaryEntry& entry = p.summary.entries[i];
      BlockNo addr = sb_.SegmentBase(p.seg) + p.offset + 1 + i;
      std::span<const uint8_t> content(p.payload.data() + i * bs, bs);
      switch (entry.kind) {
        case BlockKind::kInodeBlock: {
          for (uint32_t s = 0; s < sb_.inodes_per_block(); s++) {
            Result<Inode> ino = Inode::DecodeSlot(content, s);
            if (!ino.ok() || ino->ino == kNilInode) {
              continue;
            }
            first_touch.emplace(ino->ino, imap_.Get(ino->ino));
            ImapEntry e = imap_.Get(ino->ino);
            e.inode_block = addr;
            e.slot = static_cast<uint16_t>(s);
            e.version = ino->version;
            imap_.Restore(ino->ino, e);
            EraseInodeState(ino->ino);
          }
          break;
        }
        case BlockKind::kDirLog: {
          LFS_ASSIGN_OR_RETURN(std::vector<DirLogRecord> records, DecodeDirLogBlock(content));
          for (DirLogRecord& r : records) {
            dirops.push_back(std::move(r));
          }
          break;
        }
        default:
          break;  // data/indirect blocks are incorporated via their inode;
                  // imap/usage chunks in the tail are superseded by recovery
      }
    }
  }
  imap_.RebuildFreeList();

  // --- 3a. usage: credit post-checkpoint segments with their live blocks -------
  for (const ParsedPartial& p : replay) {
    for (size_t i = 0; i < p.summary.entries.size(); i++) {
      const SummaryEntry& entry = p.summary.entries[i];
      BlockNo addr = sb_.SegmentBase(p.seg) + p.offset + 1 + i;
      std::span<const uint8_t> content(p.payload.data() + i * bs, bs);
      LFS_ASSIGN_OR_RETURN(uint32_t live, LiveBytes(entry, addr, content));
      if (live > 0) {
        usage_.AddLive(p.seg, live, p.summary.youngest_mtime);
      }
    }
  }

  // --- 3b. usage: debit pre-checkpoint copies superseded by the replay ---------
  for (const auto& [ino, old] : first_touch) {
    if (!old.allocated()) {
      continue;  // inode was new; nothing pre-checkpoint to supersede
    }
    SegNo old_seg = sb_.SegOf(old.inode_block);
    if (old_seg != kNilSeg) {
      usage_.SubLive(old_seg, kInodeSlotSize);  // the old inode slot is dead
    }
    // Compare the old file image against the recovered one and free blocks
    // that moved or disappeared ("utilizations of older segments must be
    // adjusted to reflect deletions and overwrites").
    std::vector<uint8_t> block(bs);
    if (!DeviceRead(old.inode_block, 1, block).ok()) {
      continue;
    }
    Result<Inode> old_inode_r = Inode::DecodeSlot(block, old.slot);
    if (!old_inode_r.ok() || old_inode_r->ino != ino) {
      continue;
    }
    LFS_ASSIGN_OR_RETURN(FileMap old_fm, LoadFileMap(*old_inode_r));

    ImapEntry now = imap_.Get(ino);
    const FileMap* new_fm = nullptr;
    if (now.allocated() && now.version == old.version) {
      LFS_ASSIGN_OR_RETURN(FileMap * fmp, GetFileMap(ino));
      new_fm = fmp;
    }
    auto sub_if_gone = [&](BlockNo old_addr, bool still_there) {
      SegNo s = sb_.SegOf(old_addr);
      if (old_addr != kNilBlock && s != kNilSeg && !still_there) {
        usage_.SubLive(s, bs);
      }
    };
    for (uint64_t fbn = 0; fbn < old_fm.blocks.size(); fbn++) {
      bool kept = new_fm != nullptr && fbn < new_fm->blocks.size() &&
                  new_fm->blocks[fbn] == old_fm.blocks[fbn];
      sub_if_gone(old_fm.blocks[fbn], kept);
    }
    for (uint64_t i = 0; i < old_fm.ind_addrs.size(); i++) {
      bool kept = new_fm != nullptr && i < new_fm->ind_addrs.size() &&
                  new_fm->ind_addrs[i] == old_fm.ind_addrs[i];
      sub_if_gone(old_fm.ind_addrs[i], kept);
    }
    sub_if_gone(old_fm.dind_addr, new_fm != nullptr && new_fm->dind_addr == old_fm.dind_addr);
  }

  // --- 4. directory operation log: restore entry/link-count consistency ----------
  // Pre-scan for allocation events: every create/mkdir logs the version the
  // inode number carried at allocation. These versions partition the replay
  // window into generations of a reused inode number, letting the replay
  // tell "this record talks about the file that currently owns ino" from
  // "this record talks about a predecessor that was freed and reused".
  std::map<InodeNum, std::vector<uint32_t>> alloc_versions;
  for (const DirLogRecord& rec : dirops) {
    if (rec.op == DirOp::kCreate) {
      alloc_versions[rec.target_ino].push_back(rec.target_version);
    }
  }
  for (const DirLogRecord& rec : dirops) {
    LFS_RETURN_IF_ERROR(ApplyDirLogFix(rec, alloc_versions));
  }

  // --- 5. reconcile link counts for inodes the dirlog touched ------------------
  // Per-record fixes assert each operation's logged final state, but compound
  // outcomes — a rename whose destination directory never survived, a link
  // chain where only some entries landed — can leave nlink out of step with
  // the entries that actually exist. Ground truth is the directory tree
  // itself: recount references and make nlink match. A touched file with no
  // surviving entry is an orphan (e.g. moved into a directory that was never
  // durably created) and is removed, completing the "entry will be removed"
  // rule transitively.
  std::set<InodeNum> touched;
  for (const DirLogRecord& rec : dirops) {
    if (rec.target_ino != kNilInode) {
      touched.insert(rec.target_ino);
    }
    if (rec.replaced_ino != kNilInode) {
      touched.insert(rec.replaced_ino);
    }
  }
  touched.erase(kRootInode);
  if (!touched.empty()) {
    std::map<InodeNum, uint32_t> refs;
    std::set<InodeNum> visited;
    std::vector<InodeNum> dir_queue = {kRootInode};
    while (!dir_queue.empty()) {
      InodeNum dir = dir_queue.back();
      dir_queue.pop_back();
      if (!visited.insert(dir).second || !imap_.IsAllocated(dir)) {
        continue;
      }
      if (Result<Directory*> entries = GetDirectory(dir); entries.ok()) {
        (*entries)->ForEach([&](std::string_view, InodeNum ino, FileType type) {
          refs[ino]++;
          if (type == FileType::kDirectory) {
            dir_queue.push_back(ino);
          }
        });
      }
    }
    for (InodeNum ino : touched) {
      if (!imap_.IsAllocated(ino)) {
        continue;
      }
      Result<FileMap*> fm = GetFileMap(ino);
      if (!fm.ok()) {
        continue;
      }
      auto it = refs.find(ino);
      uint32_t n = it == refs.end() ? 0 : it->second;
      if (n == 0) {
        if ((*fm)->inode.type == FileType::kRegular) {
          LFS_RETURN_IF_ERROR(DeleteFileContents(ino));
        }
        continue;
      }
      if ((*fm)->inode.nlink != n) {
        (*fm)->inode.nlink = static_cast<uint16_t>(n);
        (*fm)->inode_dirty = true;
        MarkInodeDirty(ino);
      }
    }
  }

  in_recovery_ = false;
  // "The recovery program appends the changed directories, inodes, inode
  // map, and segment usage table blocks to the log and writes a new
  // checkpoint region to include them." Without this, the repairs (applied
  // without directory-log records) would sit as ordinary dirty state, and a
  // SECOND crash after a partial flush could leave inconsistencies that
  // nothing can replay. Read-only mounts keep the repairs in memory only.
  if (!read_only_) {
    LFS_RETURN_IF_ERROR(CheckpointImpl(/*flush_buffered=*/true));
  }
  return OkStatus();
}

Status LfsFileSystem::ApplyDirLogFix(
    const DirLogRecord& rec,
    const std::map<InodeNum, std::vector<uint32_t>>& alloc_versions) {
  // All fixes are defensive: they assert the operation's final state on
  // whatever survived, and skip when the containing directory itself did not
  // survive.
  auto dir_ok = [&](InodeNum dir_ino) {
    if (!imap_.IsAllocated(dir_ino)) {
      return false;
    }
    Result<FileMap*> fm = GetFileMap(dir_ino);
    return fm.ok() && (*fm)->inode.type == FileType::kDirectory;
  };
  auto ensure_absent = [&](InodeNum dir_ino, const std::string& name) -> Status {
    return LookupInDir(dir_ino, name).ok() ? RemoveDirEntry(dir_ino, name) : OkStatus();
  };
  auto ensure_present = [&](InodeNum dir_ino, const std::string& name, InodeNum ino,
                            FileType type) -> Status {
    Result<InodeNum> hit = LookupInDir(dir_ino, name);
    if (hit.ok() && hit.value() == ino) {
      return OkStatus();
    }
    if (hit.ok()) {
      LFS_RETURN_IF_ERROR(RemoveDirEntry(dir_ino, name));
    }
    return AddDirEntry(dir_ino, DirEntry{name, ino, type});
  };
  auto set_nlink = [&](InodeNum ino, uint16_t nlink) -> Status {
    LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
    if (fm->inode.nlink != nlink) {
      fm->inode.nlink = nlink;
      fm->inode_dirty = true;
      MarkInodeDirty(ino);
    }
    return OkStatus();
  };

  // "Alive" means: the inode is allocated AND the record speaks about the
  // generation of the inode number that currently owns the slot. A plain
  // allocation check is not enough — an inode number freed and reused inside
  // the replay window leaves stale records from the dead predecessor, and
  // completing one of them (worst case: an unlink's DeleteFileContents)
  // would destroy the successor. Exact version equality is too strict the
  // other way: truncate-to-zero bumps the version without changing identity,
  // so a create whose inode flushed after an in-window truncate would be
  // orphaned. The dividing events are allocations; every allocation in the
  // window logged its version via kCreate (dirlog records flush with the
  // batch, so if a stale record made it into the window, the successor's
  // create record did too). Two versions denote the same generation iff no
  // logged allocation version lies strictly between them (half-open toward
  // the newer side: the allocation version itself starts the new
  // generation).
  auto same_gen = [&](InodeNum ino, uint32_t v_rec) {
    uint32_t v_slot = imap_.Get(ino).version;
    if (v_rec == v_slot) {
      return true;
    }
    auto it = alloc_versions.find(ino);
    if (it == alloc_versions.end()) {
      return true;
    }
    uint32_t lo = std::min(v_rec, v_slot);
    uint32_t hi = std::max(v_rec, v_slot);
    for (uint32_t v_alloc : it->second) {
      if (v_alloc > lo && v_alloc <= hi) {
        return false;
      }
    }
    return true;
  };
  bool target_alive =
      imap_.IsAllocated(rec.target_ino) && same_gen(rec.target_ino, rec.target_version);

  switch (rec.op) {
    case DirOp::kCreate:
    case DirOp::kLink: {
      if (!dir_ok(rec.dir_ino)) {
        return OkStatus();
      }
      if (target_alive) {
        // Complete the operation (Section 4.2).
        LFS_RETURN_IF_ERROR(ensure_present(rec.dir_ino, rec.name, rec.target_ino,
                                           rec.target_type));
        LFS_RETURN_IF_ERROR(set_nlink(rec.target_ino, rec.new_nlink));
      } else {
        // "The only operation that can't be completed is the creation of a
        // new file for which the inode is never written; the directory entry
        // will be removed."
        LFS_RETURN_IF_ERROR(ensure_absent(rec.dir_ino, rec.name));
      }
      return OkStatus();
    }
    case DirOp::kUnlink: {
      if (dir_ok(rec.dir_ino)) {
        LFS_RETURN_IF_ERROR(ensure_absent(rec.dir_ino, rec.name));
      }
      if (target_alive) {
        if (rec.new_nlink == 0) {
          return DeleteFileContents(rec.target_ino);
        }
        return set_nlink(rec.target_ino, rec.new_nlink);
      }
      return OkStatus();
    }
    case DirOp::kRename: {
      if (dir_ok(rec.dir_ino)) {
        LFS_RETURN_IF_ERROR(ensure_absent(rec.dir_ino, rec.name));
      }
      if (rec.replaced_ino != kNilInode && imap_.IsAllocated(rec.replaced_ino) &&
          rec.replaced_ino != rec.target_ino &&
          same_gen(rec.replaced_ino, rec.replaced_version)) {
        if (rec.replaced_nlink == 0) {
          LFS_RETURN_IF_ERROR(DeleteFileContents(rec.replaced_ino));
        } else {
          LFS_RETURN_IF_ERROR(set_nlink(rec.replaced_ino, rec.replaced_nlink));
        }
      }
      if (dir_ok(rec.dir2_ino)) {
        if (target_alive) {
          LFS_RETURN_IF_ERROR(ensure_present(rec.dir2_ino, rec.name2, rec.target_ino,
                                             rec.target_type));
          LFS_RETURN_IF_ERROR(set_nlink(rec.target_ino, rec.new_nlink));
        } else {
          // The rename can't be completed (the moved inode never reached the
          // log, or its number now belongs to a successor generation), so the
          // destination name must not keep ANY binding this record made
          // obsolete: the dead target itself, or the replaced file whose
          // unlink-half was already asserted above. Records are replayed in
          // log order, so a later operation that rebinds the name re-asserts
          // it afterwards — removal here is always safe.
          LFS_RETURN_IF_ERROR(ensure_absent(rec.dir2_ino, rec.name2));
        }
      }
      return OkStatus();
    }
  }
  return OkStatus();
}

}  // namespace lfs
