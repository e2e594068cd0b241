// Directories and the namespace operations.
//
// Directories are ordinary files in the log whose blocks each hold an
// independent packed entry list; a Directory keeps those blocks encoded,
// with a name index for lookups. Every namespace mutation appends a
// directory-operation-log record (Section 4.2) before the affected directory
// block and inodes reach the log, which is what lets roll-forward restore
// entry/link-count consistency.
//
// Each public operation resolves its path with transient per-directory
// stripe locks, then acquires every involved inode's stripe in ascending
// order (InodeLockSet), re-verifies the final components under those locks
// — retrying if a concurrent rename/unlink moved them — and runs its
// *Locked tail inside a group-commit transaction (threading-model note in
// lfs.h).

#include <algorithm>
#include <cassert>
#include <string>

#include "src/lfs/lfs.h"

namespace lfs {

namespace {
// Worst-case log-space reservation (blocks) for one namespace mutation: a
// dirlog block, a directory data block, an indirect touch-up, and an inode
// block for each of the up-to-two affected inodes.
constexpr uint64_t kNamespaceOpReserve = 8;
// Lock-and-verify retry cap; exceeding it means a racing writer kept moving
// the entry, and the freshest lookup outcome is returned instead.
constexpr int kVerifyRetries = 64;
}  // namespace

Result<Directory*> LfsFileSystem::GetDirectory(InodeNum dir_ino) {
  // May run under the shared fs lock (lookups, ReadDir), so the map lookup
  // and the FileMap's `dir` go through the shard mutex. The shard's records
  // never move and a loaded Directory stays with its map: the returned pointer
  // outlives the lock. Two shared holders may both load the directory; the
  // first to set `dir` wins.
  InodeTableShard& shard = TableShard(dir_ino);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.files.find(dir_ino);
    if (it != shard.files.end() && it->second.dir != nullptr) {
      return it->second.dir.get();
    }
  }
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(dir_ino));
  if (fm->inode.type != FileType::kDirectory) {
    return NotADirectoryError("inode " + std::to_string(dir_ino) + " is not a directory");
  }
  auto dir = std::make_unique<Directory>(sb_.block_size);
  uint64_t nblocks = BlockCountFor(fm->inode.size);
  std::vector<uint8_t> block(sb_.block_size);
  for (uint64_t b = 0; b < nblocks; b++) {
    LFS_RETURN_IF_ERROR(ReadFileBlock(fm, b, block));
    LFS_RETURN_IF_ERROR(dir->Load(block));
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  if (fm->dir == nullptr) {
    fm->dir = std::move(dir);
  }
  return fm->dir.get();
}

Result<InodeNum> LfsFileSystem::LookupInDir(InodeNum dir_ino, std::string_view name) {
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(dir_ino));
  return dir->Find(name);
}

Result<InodeNum> LfsFileSystem::LookupInDirTransient(InodeNum dir_ino, std::string_view name) {
  InodeLockSet il(ilocks_, {dir_ino}, /*exclusive=*/false);
  return LookupInDir(dir_ino, name);
}

Result<InodeNum> LfsFileSystem::WalkPath(std::string_view path) {
  LFS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  InodeNum ino = kRootInode;
  for (const std::string& comp : parts) {
    LFS_ASSIGN_OR_RETURN(ino, LookupInDirTransient(ino, comp));
  }
  return ino;
}

Result<std::pair<InodeNum, std::string>> LfsFileSystem::ResolveParent(std::string_view path) {
  LFS_ASSIGN_OR_RETURN(auto split, SplitParent(path));
  LFS_ASSIGN_OR_RETURN(InodeNum parent, WalkPath(split.first));
  InodeLockSet il(ilocks_, {parent}, /*exclusive=*/false);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(parent));
  if (fm->inode.type != FileType::kDirectory) {
    return NotADirectoryError(std::string(split.first));
  }
  return std::make_pair(parent, split.second);
}

Status LfsFileSystem::WriteDirBlock(InodeNum dir_ino, const Directory& dir, uint64_t fbn) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(dir_ino));
  StageBlock(dir_ino, fm, fbn, dir.block(fbn));
  fm->tree.Grow(dir.block_count());
  fm->inode.size = std::max(fm->inode.size, dir.block_count() * sb_.block_size);
  fm->inode.mtime = clock_.Tick();
  return OkStatus();
}

Status LfsFileSystem::AddDirEntry(InodeNum dir_ino, const DirEntry& entry) {
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(dir_ino));
  if (dir->BlockFor(entry.name) == dir->block_count()) {
    LFS_RETURN_IF_ERROR(EnsureSpaceForWrite(1));
  }
  return WriteDirBlock(dir_ino, *dir, dir->Add(entry.name, entry.ino, entry.type));
}

Status LfsFileSystem::RemoveDirEntry(InodeNum dir_ino, std::string_view name) {
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(dir_ino));
  LFS_ASSIGN_OR_RETURN(uint64_t b, dir->Remove(name));
  return WriteDirBlock(dir_ino, *dir, b);
}

Result<InodeNum> LfsFileSystem::Lookup(std::string_view path) {
  txn_.WaitNotCommitting();
  std::shared_lock<std::shared_mutex> lock(fs_mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kLookup, device_, &clock_);
  return WalkPath(path);
}

void LfsFileSystem::LogDirOp(DirLogRecord record) {
  if (in_recovery_) {
    return;  // recovery repairs are themselves checkpointed, not re-logged
  }
  std::lock_guard<std::mutex> lock(dirlog_mu_);
  pending_dirlog_.push_back(std::move(record));
}

// --- create / mkdir ------------------------------------------------------------

Result<InodeNum> LfsFileSystem::CreateLocked(InodeNum dir_ino, const std::string& name,
                                             std::string_view path, FileType type) {
  if (LookupInDir(dir_ino, name).ok()) {
    return AlreadyExistsError(std::string(path));
  }
  LFS_RETURN_IF_ERROR(EnsureSpaceForWrite(1));
  LFS_ASSIGN_OR_RETURN(InodeNum ino, imap_.Allocate());
  NewFileMap(ino, type);

  DirLogRecord rec;
  rec.op = DirOp::kCreate;
  rec.dir_ino = dir_ino;
  rec.name = name;
  rec.target_ino = ino;
  rec.target_version = imap_.Get(ino).version;
  rec.new_nlink = 1;
  rec.target_type = type;
  LogDirOp(std::move(rec));

  LFS_RETURN_IF_ERROR(AddDirEntry(dir_ino, DirEntry{name, ino, type}));
  return ino;
}

Result<InodeNum> LfsFileSystem::Create(std::string_view path) {
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kCreate, device_, &clock_);
  InodeNum ino = kNilInode;
  LFS_RETURN_IF_ERROR(RunMutation(kNamespaceOpReserve, [&]() -> Status {
    LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
    auto [dir_ino, name] = parent;
    InodeLockSet il(ilocks_, {dir_ino}, /*exclusive=*/true);
    LFS_ASSIGN_OR_RETURN(ino, CreateLocked(dir_ino, name, path, FileType::kRegular));
    return OkStatus();
  }));
  return ino;
}

Status LfsFileSystem::Mkdir(std::string_view path) {
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kMkdir, device_, &clock_);
  return RunMutation(kNamespaceOpReserve, [&]() -> Status {
    LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
    auto [dir_ino, name] = parent;
    InodeLockSet il(ilocks_, {dir_ino}, /*exclusive=*/true);
    return CreateLocked(dir_ino, name, path, FileType::kDirectory).status();
  });
}

// --- unlink / rmdir ------------------------------------------------------------

Status LfsFileSystem::DeleteFileContents(InodeNum ino) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  ShrinkFileMap(fm, 0);  // frees data + indirect blocks
  ImapEntry old = imap_.Get(ino);
  SegNo old_seg = sb_.SegOf(old.inode_block);
  if (old.allocated() && old_seg != kNilSeg) {
    usage_.SubLive(old_seg, kInodeSlotSize);
  }
  {
    std::lock_guard<std::mutex> lock(dirty_inodes_mu_);
    dirty_inodes_.erase(ino);
  }
  EraseInodeState(ino);
  // Free the number strictly last: Free makes it immediately reusable by a
  // concurrent Create on another stripe, and the teardown above must not be
  // able to destroy the new owner's freshly inserted state.
  imap_.Free(ino);
  return OkStatus();
}

Status LfsFileSystem::UnlinkLocked(InodeNum dir_ino, const std::string& name, InodeNum ino,
                                   std::string_view path) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError(std::string(path) + " (use Rmdir)");
  }

  DirLogRecord rec;
  rec.op = DirOp::kUnlink;
  rec.dir_ino = dir_ino;
  rec.name = name;
  rec.target_ino = ino;
  rec.target_version = fm->inode.version;
  rec.new_nlink = static_cast<uint16_t>(fm->inode.nlink - 1);
  rec.target_type = FileType::kRegular;
  LogDirOp(std::move(rec));

  LFS_RETURN_IF_ERROR(RemoveDirEntry(dir_ino, name));
  fm->inode.nlink--;
  if (fm->inode.nlink == 0) {
    LFS_RETURN_IF_ERROR(DeleteFileContents(ino));
  } else {
    fm->inode.mtime = clock_.Tick();
    MarkInodeDirty(ino);
  }
  return OkStatus();
}

Status LfsFileSystem::RemoveEntry(std::string_view path, RemoveTail tail) {
  LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  auto [dir_ino, name] = parent;
  // Lock-and-verify: the target's stripe can only be chosen after the
  // lookup, so lock {dir, target} in order and re-check the entry still
  // names that target; retry if a racing op moved it.
  for (int attempt = 0; attempt < kVerifyRetries; attempt++) {
    LFS_ASSIGN_OR_RETURN(InodeNum ino, LookupInDirTransient(dir_ino, name));
    InodeLockSet il = LockInodePair(dir_ino, ino);
    Result<InodeNum> now = LookupInDir(dir_ino, name);
    if (!now.ok()) {
      return now.status();
    }
    if (now.value() != ino) {
      continue;
    }
    return (this->*tail)(dir_ino, name, ino, path);
  }
  return NotFoundError("removing '" + std::string(path) + "' kept racing with renames");
}

Status LfsFileSystem::Unlink(std::string_view path) {
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kUnlink, device_, &clock_);
  return RunMutation(kNamespaceOpReserve,
                     [&] { return RemoveEntry(path, &LfsFileSystem::UnlinkLocked); });
}

Status LfsFileSystem::RmdirLocked(InodeNum dir_ino, const std::string& name, InodeNum ino,
                                  std::string_view path) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type != FileType::kDirectory) {
    return NotADirectoryError(std::string(path));
  }
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(ino));
  if (!dir->empty()) {
    return NotEmptyError(std::string(path));
  }

  DirLogRecord rec;
  rec.op = DirOp::kUnlink;
  rec.dir_ino = dir_ino;
  rec.name = name;
  rec.target_ino = ino;
  rec.target_version = fm->inode.version;
  rec.new_nlink = 0;
  rec.target_type = FileType::kDirectory;
  LogDirOp(std::move(rec));

  LFS_RETURN_IF_ERROR(RemoveDirEntry(dir_ino, name));
  return DeleteFileContents(ino);
}

Status LfsFileSystem::Rmdir(std::string_view path) {
  return RunMutation(kNamespaceOpReserve,
                     [&] { return RemoveEntry(path, &LfsFileSystem::RmdirLocked); });
}

// --- link / rename -------------------------------------------------------------

Status LfsFileSystem::LinkLocked(InodeNum ino, InodeNum dir_ino, const std::string& name,
                                 std::string_view link_path) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError("hard links to directories are not allowed");
  }
  if (LookupInDir(dir_ino, name).ok()) {
    return AlreadyExistsError(std::string(link_path));
  }

  DirLogRecord rec;
  rec.op = DirOp::kLink;
  rec.dir_ino = dir_ino;
  rec.name = name;
  rec.target_ino = ino;
  rec.target_version = fm->inode.version;
  rec.new_nlink = static_cast<uint16_t>(fm->inode.nlink + 1);
  rec.target_type = FileType::kRegular;
  LogDirOp(std::move(rec));

  LFS_RETURN_IF_ERROR(AddDirEntry(dir_ino, DirEntry{name, ino, FileType::kRegular}));
  fm->inode.nlink++;
  fm->inode.mtime = clock_.Tick();
  MarkInodeDirty(ino);
  return OkStatus();
}

Status LfsFileSystem::Link(std::string_view existing, std::string_view link_path) {
  return RunMutation(kNamespaceOpReserve, [&]() -> Status {
    LFS_ASSIGN_OR_RETURN(InodeNum ino, WalkPath(existing));
    LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(link_path));
    auto [dir_ino, name] = parent;
    // Target + destination directory, both exclusive, ascending stripe order.
    InodeLockSet il = LockInodePair(ino, dir_ino);
    return LinkLocked(ino, dir_ino, name, link_path);
  });
}

Status LfsFileSystem::RenameLocked(InodeNum from_dir, const std::string& from_name,
                                   InodeNum ino, InodeNum to_dir, const std::string& to_name,
                                   std::string_view to) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  FileType type = fm->inode.type;

  InodeNum replaced = kNilInode;
  uint32_t replaced_version = 0;
  uint16_t replaced_nlink = 0;
  Result<InodeNum> existing = LookupInDir(to_dir, to_name);
  if (existing.ok()) {
    replaced = existing.value();
    LFS_ASSIGN_OR_RETURN(FileMap * rfm, GetFileMap(replaced));
    if (rfm->inode.type == FileType::kDirectory) {
      return IsADirectoryError("rename target '" + std::string(to) + "' is a directory");
    }
    replaced_version = rfm->inode.version;
    replaced_nlink = static_cast<uint16_t>(rfm->inode.nlink - 1);
  }

  DirLogRecord rec;
  rec.op = DirOp::kRename;
  rec.dir_ino = from_dir;
  rec.name = from_name;
  rec.target_ino = ino;
  rec.target_version = fm->inode.version;
  // Post-operation link count: replacing a name that already pointed at the
  // moved inode itself (rename onto one's own hard link) drops one of its
  // own links, and replay asserts this value as the final state.
  rec.new_nlink = replaced == ino ? static_cast<uint16_t>(fm->inode.nlink - 1)
                                  : fm->inode.nlink;
  rec.target_type = type;
  rec.dir2_ino = to_dir;
  rec.name2 = to_name;
  rec.replaced_ino = replaced;
  rec.replaced_version = replaced_version;
  rec.replaced_nlink = replaced_nlink;
  // Refused before anything changes: no dirlog block could hold the record
  // (two long names at a small block size), so the rename could never be
  // rolled forward.
  if (!DirLogRecordFits(rec, sb_.block_size)) {
    return InvalidArgumentError("rename's directory-log record does not fit in one block");
  }
  LogDirOp(std::move(rec));

  if (replaced != kNilInode) {
    LFS_RETURN_IF_ERROR(RemoveDirEntry(to_dir, to_name));
    FileMap* rfm = FindFileMap(replaced);
    if (rfm != nullptr) {
      rfm->inode.nlink--;
      if (rfm->inode.nlink == 0) {
        LFS_RETURN_IF_ERROR(DeleteFileContents(replaced));
      } else {
        MarkInodeDirty(replaced);
      }
    }
  }
  LFS_RETURN_IF_ERROR(RemoveDirEntry(from_dir, from_name));
  LFS_RETURN_IF_ERROR(AddDirEntry(to_dir, DirEntry{to_name, ino, type}));
  fm = FindFileMap(ino);  // re-fetch: DeleteFileContents may have touched maps
  fm->inode.mtime = clock_.Tick();
  MarkInodeDirty(ino);
  return OkStatus();
}

Status LfsFileSystem::Rename(std::string_view from, std::string_view to) {
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kRename, device_, &clock_);
  if (from == to) {
    return OkStatus();
  }
  // Reject moving a directory into its own subtree.
  if (to.size() > from.size() && to.substr(0, from.size()) == from &&
      to[from.size()] == '/') {
    return InvalidArgumentError("cannot move a directory into itself");
  }
  return RunMutation(kNamespaceOpReserve, [&]() -> Status {
    LFS_ASSIGN_OR_RETURN(auto src, ResolveParent(from));
    auto [from_dir, from_name] = src;
    LFS_ASSIGN_OR_RETURN(auto dst, ResolveParent(to));
    auto [to_dir, to_name] = dst;
    // Lock-and-verify over up to four stripes: both directories, the moved
    // inode, and any replaced target — all exclusive, ascending stripe
    // order (InodeLockSet), so crossing renames cannot deadlock.
    for (int attempt = 0; attempt < kVerifyRetries; attempt++) {
      LFS_ASSIGN_OR_RETURN(InodeNum ino, LookupInDirTransient(from_dir, from_name));
      Result<InodeNum> target = LookupInDirTransient(to_dir, to_name);
      InodeNum replaced = target.ok() ? target.value() : kNilInode;
      InodeLockSet il(ilocks_, {from_dir, to_dir, ino, replaced != kNilInode ? replaced : ino},
                      /*exclusive=*/true);
      Result<InodeNum> now_src = LookupInDir(from_dir, from_name);
      if (!now_src.ok()) {
        return now_src.status();
      }
      Result<InodeNum> now_dst = LookupInDir(to_dir, to_name);
      InodeNum now_replaced = now_dst.ok() ? now_dst.value() : kNilInode;
      if (now_src.value() != ino || now_replaced != replaced) {
        continue;
      }
      return RenameLocked(from_dir, from_name, ino, to_dir, to_name, to);
    }
    return NotFoundError("rename '" + std::string(from) + "' kept racing with renames");
  });
}

Result<std::vector<DirEntry>> LfsFileSystem::ReadDir(std::string_view path) {
  txn_.WaitNotCommitting();
  std::shared_lock<std::shared_mutex> lock(fs_mu_);
  LFS_ASSIGN_OR_RETURN(InodeNum ino, WalkPath(path));
  InodeLockSet il(ilocks_, {ino}, /*exclusive=*/false);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type != FileType::kDirectory) {
    return NotADirectoryError(std::string(path));
  }
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(ino));
  return dir->List();
}

}  // namespace lfs
