#include "src/ffs/ffs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace lfs::ffs {

FfsFileSystem::FfsFileSystem(BlockDevice* device, const FfsSuperblock& sb)
    : device_(device), sb_(sb) {
  for (uint32_t g = 0; g < sb_.ngroups; g++) {
    inode_bitmaps_.emplace_back(sb_.inodes_per_group);
    block_bitmaps_.emplace_back(sb_.data_blocks_per_group());
  }
  free_data_blocks_ = uint64_t{sb_.ngroups} * sb_.data_blocks_per_group();
}

Result<std::unique_ptr<FfsFileSystem>> FfsFileSystem::Mkfs(BlockDevice* device,
                                                           uint32_t block_size) {
  if (device->block_size() != block_size) {
    return InvalidArgumentError("device block size mismatch");
  }
  LFS_ASSIGN_OR_RETURN(FfsSuperblock sb,
                       FfsSuperblock::Compute(block_size, device->block_count()));
  std::vector<uint8_t> block(block_size, 0);
  sb.EncodeTo(block);
  LFS_RETURN_IF_ERROR(device->WriteBlock(0, block));

  // newfs: zero the bitmaps and inode tables of every group.
  std::vector<uint8_t> zero(block_size, 0);
  for (uint32_t g = 0; g < sb.ngroups; g++) {
    LFS_RETURN_IF_ERROR(device->WriteBlock(sb.InodeBitmapBlock(g), zero));
    LFS_RETURN_IF_ERROR(device->WriteBlock(sb.BlockBitmapBlock(g), zero));
    for (uint32_t b = 0; b < sb.inode_table_blocks; b++) {
      LFS_RETURN_IF_ERROR(device->WriteBlock(sb.InodeTableBlock(g) + b, zero));
    }
  }

  auto fs = std::unique_ptr<FfsFileSystem>(new FfsFileSystem(device, sb));
  LFS_ASSIGN_OR_RETURN(InodeNum root, fs->AllocInode(0));
  if (root != kRootInode) {
    return InternalError("ffs mkfs: root inode is not 1");
  }
  FfsInode inode;
  inode.ino = root;
  inode.type = FileType::kDirectory;
  inode.nlink = 1;
  inode.mtime = fs->clock_.Tick();
  LFS_RETURN_IF_ERROR(fs->WriteInodeSync(inode));
  fs->dirs_.insert_or_assign(root, Directory(sb.block_size));
  LFS_RETURN_IF_ERROR(fs->WriteBitmapsSync());
  return fs;
}

Result<std::unique_ptr<FfsFileSystem>> FfsFileSystem::Mount(BlockDevice* device) {
  std::vector<uint8_t> block(device->block_size());
  LFS_RETURN_IF_ERROR(device->ReadBlock(0, block));
  LFS_ASSIGN_OR_RETURN(FfsSuperblock sb, FfsSuperblock::DecodeFrom(block));
  auto fs = std::unique_ptr<FfsFileSystem>(new FfsFileSystem(device, sb));
  fs->free_data_blocks_ = 0;
  for (uint32_t g = 0; g < sb.ngroups; g++) {
    LFS_RETURN_IF_ERROR(device->ReadBlock(sb.InodeBitmapBlock(g), block));
    fs->inode_bitmaps_[g].CopyFrom(block);
    LFS_RETURN_IF_ERROR(device->ReadBlock(sb.BlockBitmapBlock(g), block));
    fs->block_bitmaps_[g].CopyFrom(block);
    fs->free_data_blocks_ +=
        sb.data_blocks_per_group() - fs->block_bitmaps_[g].CountSet();
  }
  return fs;
}

// --- allocation -----------------------------------------------------------------

Result<InodeNum> FfsFileSystem::AllocInode(uint32_t group_hint) {
  for (uint32_t n = 0; n < sb_.ngroups; n++) {
    uint32_t g = (group_hint + n) % sb_.ngroups;
    uint32_t idx = inode_bitmaps_[g].FindFree();
    if (idx == UINT32_MAX) {
      continue;
    }
    inode_bitmaps_[g].Set(idx);
    return static_cast<InodeNum>(g * sb_.inodes_per_group + idx + 1);
  }
  return NoInodesError("ffs: all inodes in use");
}

void FfsFileSystem::FreeInode(InodeNum ino) {
  uint32_t g = GroupOfInode(ino);
  inode_bitmaps_[g].Clear((ino - 1) % sb_.inodes_per_group);
}

Result<BlockNo> FfsFileSystem::AllocBlock(uint32_t group_hint, BlockNo prev) {
  uint64_t reserve = static_cast<uint64_t>(
      kFfsReserveFraction * sb_.ngroups * sb_.data_blocks_per_group());
  if (free_data_blocks_ <= reserve) {
    return NoSpaceError("ffs: file system is above the 90% capacity limit");
  }
  // Prefer the block right after the file's previous block (contiguity,
  // FFS's rotational layout idealized), then anywhere in the hinted group,
  // then other groups.
  if (prev != kNilBlock) {
    uint32_t g = GroupOfBlock(prev);
    uint64_t within = prev - sb_.DataBase(g);
    if (within + 1 < sb_.data_blocks_per_group() &&
        !block_bitmaps_[g].Get(static_cast<uint32_t>(within + 1))) {
      block_bitmaps_[g].Set(static_cast<uint32_t>(within + 1));
      free_data_blocks_--;
      return prev + 1;
    }
    group_hint = g;
  }
  for (uint32_t n = 0; n < sb_.ngroups; n++) {
    uint32_t g = (group_hint + n) % sb_.ngroups;
    uint32_t idx = block_bitmaps_[g].FindFree();
    if (idx == UINT32_MAX) {
      continue;
    }
    block_bitmaps_[g].Set(idx);
    free_data_blocks_--;
    return sb_.DataBase(g) + idx;
  }
  return NoSpaceError("ffs: no free blocks");
}

void FfsFileSystem::FreeBlock(BlockNo block) {
  uint32_t g = GroupOfBlock(block);
  uint64_t within = block - sb_.DataBase(g);
  if (within < sb_.data_blocks_per_group() &&
      block_bitmaps_[g].Get(static_cast<uint32_t>(within))) {
    block_bitmaps_[g].Clear(static_cast<uint32_t>(within));
    free_data_blocks_++;
  }
}

Status FfsFileSystem::WriteBitmapsSync() {
  std::vector<uint8_t> block(sb_.block_size);
  for (uint32_t g = 0; g < sb_.ngroups; g++) {
    inode_bitmaps_[g].CopyTo(block);
    LFS_RETURN_IF_ERROR(device_->WriteBlock(sb_.InodeBitmapBlock(g), block));
    block_bitmaps_[g].CopyTo(block);
    LFS_RETURN_IF_ERROR(device_->WriteBlock(sb_.BlockBitmapBlock(g), block));
    stats_.metadata_writes += 2;
  }
  return OkStatus();
}

// --- inode I/O ---------------------------------------------------------------------

Result<std::vector<uint8_t>*> FfsFileSystem::InodeTableBlockCached(uint64_t block) {
  auto it = itable_cache_.find(block);
  if (it != itable_cache_.end()) {
    return &it->second;
  }
  std::vector<uint8_t> data(sb_.block_size);
  LFS_RETURN_IF_ERROR(device_->ReadBlock(block, data));
  auto [pos, inserted] = itable_cache_.emplace(block, std::move(data));
  (void)inserted;
  return &pos->second;
}

Status FfsFileSystem::WriteInodeSync(const FfsInode& inode, int times) {
  uint64_t block = sb_.InodeBlockOf(inode.ino);
  uint32_t slot = sb_.InodeSlotOf(inode.ino);
  LFS_ASSIGN_OR_RETURN(std::vector<uint8_t>* cached, InodeTableBlockCached(block));
  inode.EncodeTo(std::span<uint8_t>(*cached).subspan(size_t{slot} * kFfsInodeSize,
                                                     kFfsInodeSize));
  // Synchronous, possibly repeated (new-file inodes are written twice).
  for (int i = 0; i < times; i++) {
    LFS_RETURN_IF_ERROR(device_->WriteBlock(block, *cached));
    stats_.metadata_writes++;
  }
  return OkStatus();
}

Result<FfsInode> FfsFileSystem::ReadInode(InodeNum ino) {
  if (ino == kNilInode || ino > sb_.max_inodes()) {
    return NotFoundError("ffs: inode number out of range");
  }
  uint32_t g = GroupOfInode(ino);
  if (!inode_bitmaps_[g].Get((ino - 1) % sb_.inodes_per_group)) {
    return NotFoundError("ffs: inode " + std::to_string(ino) + " not allocated");
  }
  uint64_t block = sb_.InodeBlockOf(ino);
  uint32_t slot = sb_.InodeSlotOf(ino);
  LFS_ASSIGN_OR_RETURN(std::vector<uint8_t>* cached, InodeTableBlockCached(block));
  return FfsInode::DecodeFrom(std::span<const uint8_t>(*cached).subspan(
      size_t{slot} * kFfsInodeSize, kFfsInodeSize));
}

// --- file maps -----------------------------------------------------------------------

Result<FfsFileSystem::FileMap*> FfsFileSystem::GetFileMap(InodeNum ino) {
  auto it = files_.find(ino);
  if (it != files_.end()) {
    return &it->second;
  }
  LFS_ASSIGN_OR_RETURN(FfsInode inode, ReadInode(ino));
  LFS_ASSIGN_OR_RETURN(
      BlockTree tree,
      BlockTree::Load(sb_.block_size, inode.size, inode.direct, inode.single_indirect,
                      inode.double_indirect, [this](BlockNo addr, std::span<uint8_t> out) {
                        return device_->ReadBlock(addr, out);
                      }));
  return &files_.emplace(ino, FileMap{inode, std::move(tree)}).first->second;
}

Status FfsFileSystem::CreateInode(InodeNum ino, FileType type) {
  FileMap fm{FfsInode{}, BlockTree(sb_.block_size)};
  fm.inode.ino = ino;
  fm.inode.type = type;
  fm.inode.nlink = 1;
  fm.inode.mtime = clock_.Tick();
  // The new inode is written twice (crash-recovery hardening the paper
  // counts among FFS's five small I/Os per create).
  LFS_RETURN_IF_ERROR(WriteInodeSync(fm.inode, /*times=*/2));
  files_.insert_or_assign(ino, std::move(fm));
  return OkStatus();
}

Status FfsFileSystem::FlushAllPointers() {
  for (auto& [ino, fm] : files_) {
    if (fm.pointers_dirty) {
      LFS_RETURN_IF_ERROR(FlushPointers(&fm));
    }
  }
  data_blocks_since_pointer_flush_ = 0;
  return OkStatus();
}

Status FfsFileSystem::FlushPointers(FileMap* fm) {
  BlockTree& tree = fm->tree;
  const uint32_t group = GroupOfInode(fm->inode.ino);
  // Pointer blocks live at stable addresses, allocated on first write, so
  // these are in-place updates — exactly the metadata traffic FFS pays.
  std::vector<uint8_t> block(sb_.block_size);
  auto write = [&](BlockNo* addr) -> Status {
    if (*addr == kNilBlock) {
      LFS_ASSIGN_OR_RETURN(*addr, AllocBlock(group, kNilBlock));
    }
    LFS_RETURN_IF_ERROR(device_->WriteBlock(*addr, block));
    stats_.metadata_writes++;
    return OkStatus();
  };
  for (uint64_t i : tree.dirty_ind) {
    tree.EncodeIndirect(i, block);
    LFS_RETURN_IF_ERROR(write(&tree.ind_addrs[i]));
  }
  // The root is written back with every pointer flush of a file that has
  // one, changed or not.
  if (tree.ind_addrs.size() > 1) {
    tree.EncodeRoot(block);
    LFS_RETURN_IF_ERROR(write(&tree.dind_addr));
  }
  tree.dirty_ind.clear();
  tree.dind_dirty = false;
  tree.StorePointers(fm->inode.direct, &fm->inode.single_indirect, &fm->inode.double_indirect);
  fm->pointers_dirty = false;
  return WriteInodeSync(fm->inode);
}

Status FfsFileSystem::CheckCapacity(uint64_t offset, uint64_t len) const {
  const uint64_t max_bytes = BlockTree::MaxBlocks(sb_.block_size) * sb_.block_size;
  if (offset > max_bytes || len > max_bytes - offset) {
    return OutOfRangeError("ffs: file past the largest the block tree addresses (" +
                           std::to_string(max_bytes) + " bytes)");
  }
  return OkStatus();
}

// --- data I/O ----------------------------------------------------------------------

Status FfsFileSystem::WriteAt(InodeNum ino, uint64_t offset, std::span<const uint8_t> data) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kWrite, device_, &clock_, ino);
  if (data.empty()) {
    return OkStatus();
  }
  LFS_RETURN_IF_ERROR(CheckCapacity(offset, data.size()));
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError("cannot write directly to a directory");
  }
  const uint32_t bs = sb_.block_size;
  uint64_t end = offset + data.size();
  fm->tree.Grow((end + bs - 1) / bs);
  std::vector<BlockNo>& blocks = fm->tree.blocks;
  uint32_t group = GroupOfInode(ino);
  uint64_t pos = offset;
  size_t src = 0;
  BlockNo prev = kNilBlock;
  while (pos < end) {
    uint64_t fbn = pos / bs;
    uint32_t in_block = static_cast<uint32_t>(pos % bs);
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(bs - in_block, end - pos));
    std::vector<uint8_t> block(bs, 0);
    if (chunk != bs && blocks[fbn] != kNilBlock) {
      LFS_RETURN_IF_ERROR(device_->ReadBlock(blocks[fbn], block));
    }
    std::memcpy(block.data() + in_block, data.data() + src, chunk);
    if (blocks[fbn] == kNilBlock) {
      BlockNo hint = prev != kNilBlock                        ? prev
                     : fbn > 0 && blocks[fbn - 1] != kNilBlock ? blocks[fbn - 1]
                                                               : kNilBlock;
      LFS_ASSIGN_OR_RETURN(blocks[fbn], AllocBlock(group, hint));
      fm->tree.MarkDirty(fbn);
      fm->pointers_dirty = true;
    }
    // One individual disk operation per block (pre-4.1.1 SunOS behaviour the
    // paper measured; Figure 9's caption).
    LFS_RETURN_IF_ERROR(device_->WriteBlock(blocks[fbn], block));
    stats_.data_writes++;
    stats_.data_bytes_written += bs;
    prev = blocks[fbn];
    data_blocks_since_pointer_flush_++;
    pos += chunk;
    src += chunk;
  }
  if (fm->inode.size < end) {
    fm->inode.size = end;
    fm->pointers_dirty = true;
  }
  fm->inode.mtime = clock_.Tick();
  fm->pointers_dirty = true;
  // Inode and indirect updates for the DATA path are asynchronous in SunOS
  // (the update daemon writes them back periodically); only namespace
  // operations write metadata synchronously.
  if (data_blocks_since_pointer_flush_ >= 128) {
    return FlushAllPointers();
  }
  return OkStatus();
}

Result<uint64_t> FfsFileSystem::ReadAt(InodeNum ino, uint64_t offset, std::span<uint8_t> out) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kRead, device_, &clock_, ino);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (offset >= fm->inode.size || out.empty()) {
    return uint64_t{0};
  }
  const uint32_t bs = sb_.block_size;
  uint64_t want = std::min<uint64_t>(out.size(), fm->inode.size - offset);
  const std::vector<BlockNo>& blocks = fm->tree.blocks;
  uint64_t done = 0;
  while (done < want) {
    uint64_t pos = offset + done;
    uint64_t fbn = pos / bs;
    uint32_t in_block = static_cast<uint32_t>(pos % bs);
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(bs - in_block, want - done));
    if (in_block == 0 && chunk == bs && blocks[fbn] != kNilBlock) {
      // Coalesce contiguous allocations into one sequential read.
      uint64_t run = 1;
      while (done + run * bs + bs <= want && fbn + run < blocks.size() &&
             blocks[fbn + run] == blocks[fbn] + run) {
        run++;
      }
      LFS_RETURN_IF_ERROR(device_->Read(blocks[fbn], run, out.subspan(done, run * bs)));
      done += run * bs;
      continue;
    }
    std::vector<uint8_t> block(bs, 0);
    if (fbn < blocks.size() && blocks[fbn] != kNilBlock) {
      LFS_RETURN_IF_ERROR(device_->ReadBlock(blocks[fbn], block));
    }
    std::memcpy(out.data() + done, block.data() + in_block, chunk);
    done += chunk;
  }
  return want;
}

Status FfsFileSystem::Truncate(InodeNum ino, uint64_t new_size) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError("cannot truncate a directory");
  }
  LFS_RETURN_IF_ERROR(CheckCapacity(new_size, 0));
  const uint32_t bs = sb_.block_size;
  BlockTree& tree = fm->tree;
  if (new_size < fm->inode.size) {
    tree.Shrink((new_size + bs - 1) / bs, [this](BlockNo addr) { FreeBlock(addr); });
    if (new_size % bs != 0 && tree.blocks[new_size / bs] != kNilBlock) {
      std::vector<uint8_t> block(bs);
      LFS_RETURN_IF_ERROR(device_->ReadBlock(tree.blocks[new_size / bs], block));
      std::memset(block.data() + new_size % bs, 0, bs - new_size % bs);
      LFS_RETURN_IF_ERROR(device_->WriteBlock(tree.blocks[new_size / bs], block));
      stats_.data_writes++;
    }
  } else {
    tree.Grow((new_size + bs - 1) / bs);
  }
  fm->inode.size = new_size;
  fm->inode.mtime = clock_.Tick();
  return FlushPointers(fm);
}

Status FfsFileSystem::Sync() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kSync, device_, &clock_);
  LFS_RETURN_IF_ERROR(FlushAllPointers());
  return WriteBitmapsSync();
}

Status FfsFileSystem::Unmount() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LFS_RETURN_IF_ERROR(FlushAllPointers());
  LFS_RETURN_IF_ERROR(WriteBitmapsSync());
  files_.clear();
  dirs_.clear();
  itable_cache_.clear();
  return OkStatus();
}

Result<FileStat> FfsFileSystem::Stat(InodeNum ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  FileStat st;
  st.ino = ino;
  st.type = fm->inode.type;
  st.size = fm->inode.size;
  st.nlink = fm->inode.nlink;
  st.mtime = fm->inode.mtime;
  return st;
}

// --- directories ----------------------------------------------------------------------

Result<Directory*> FfsFileSystem::GetDirectory(InodeNum dir_ino) {
  auto it = dirs_.find(dir_ino);
  if (it != dirs_.end()) {
    return &it->second;
  }
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(dir_ino));
  if (fm->inode.type != FileType::kDirectory) {
    return NotADirectoryError("ffs: inode " + std::to_string(dir_ino) + " is not a directory");
  }
  Directory dir(sb_.block_size);
  std::vector<uint8_t> block(sb_.block_size);
  for (BlockNo addr : fm->tree.blocks) {
    std::fill(block.begin(), block.end(), 0);  // a hole loads as an empty block
    if (addr != kNilBlock) {
      LFS_RETURN_IF_ERROR(device_->ReadBlock(addr, block));
    }
    LFS_RETURN_IF_ERROR(dir.Load(block));
  }
  return &dirs_.emplace(dir_ino, std::move(dir)).first->second;
}

Result<InodeNum> FfsFileSystem::LookupInDir(InodeNum dir_ino, std::string_view name) {
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(dir_ino));
  return dir->Find(name);
}

Status FfsFileSystem::WriteDirBlockSync(InodeNum dir_ino, const Directory& dir, uint64_t fbn) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(dir_ino));
  BlockTree& tree = fm->tree;
  tree.Grow(dir.block_count());
  if (tree.blocks[fbn] == kNilBlock) {
    LFS_ASSIGN_OR_RETURN(tree.blocks[fbn], AllocBlock(GroupOfInode(dir_ino), kNilBlock));
    tree.MarkDirty(fbn);
  }
  // Directory data is metadata for crash purposes: synchronous write.
  LFS_RETURN_IF_ERROR(device_->WriteBlock(tree.blocks[fbn], dir.block(fbn)));
  stats_.metadata_writes++;
  fm->inode.size = std::max<uint64_t>(fm->inode.size, dir.block_count() * sb_.block_size);
  fm->inode.mtime = clock_.Tick();
  // ... followed by the directory's inode, also synchronous.
  return FlushPointers(fm);
}

Status FfsFileSystem::AddDirEntry(InodeNum dir_ino, const DirEntry& entry) {
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(dir_ino));
  return WriteDirBlockSync(dir_ino, *dir, dir->Add(entry.name, entry.ino, entry.type));
}

Status FfsFileSystem::RemoveDirEntry(InodeNum dir_ino, std::string_view name) {
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(dir_ino));
  LFS_ASSIGN_OR_RETURN(uint64_t b, dir->Remove(name));
  return WriteDirBlockSync(dir_ino, *dir, b);
}

Result<InodeNum> FfsFileSystem::ResolveDir(std::string_view path) {
  LFS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  InodeNum ino = kRootInode;
  for (const std::string& comp : parts) {
    LFS_ASSIGN_OR_RETURN(ino, LookupInDir(ino, comp));
  }
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type != FileType::kDirectory) {
    return NotADirectoryError(std::string(path));
  }
  return ino;
}

Result<std::pair<InodeNum, std::string>> FfsFileSystem::ResolveParent(std::string_view path) {
  LFS_ASSIGN_OR_RETURN(auto split, SplitParent(path));
  LFS_ASSIGN_OR_RETURN(InodeNum parent, ResolveDir(split.first));
  return std::make_pair(parent, split.second);
}

Result<InodeNum> FfsFileSystem::Lookup(std::string_view path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kLookup, device_, &clock_);
  LFS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  InodeNum ino = kRootInode;
  for (const std::string& comp : parts) {
    LFS_ASSIGN_OR_RETURN(ino, LookupInDir(ino, comp));
  }
  return ino;
}

Result<InodeNum> FfsFileSystem::Create(std::string_view path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kCreate, device_, &clock_);
  LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  auto [dir_ino, name] = parent;
  if (LookupInDir(dir_ino, name).ok()) {
    return AlreadyExistsError(std::string(path));
  }
  LFS_ASSIGN_OR_RETURN(InodeNum ino, AllocInode(GroupOfInode(dir_ino)));
  LFS_RETURN_IF_ERROR(CreateInode(ino, FileType::kRegular));
  LFS_RETURN_IF_ERROR(AddDirEntry(dir_ino, DirEntry{name, ino, FileType::kRegular}));
  return ino;
}

Status FfsFileSystem::Mkdir(std::string_view path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kMkdir, device_, &clock_);
  LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  auto [dir_ino, name] = parent;
  if (LookupInDir(dir_ino, name).ok()) {
    return AlreadyExistsError(std::string(path));
  }
  // Directories rotate across block groups to spread load (the FFS policy
  // that physically separates files in different directories).
  LFS_ASSIGN_OR_RETURN(InodeNum ino, AllocInode(next_dir_group_));
  next_dir_group_ = (next_dir_group_ + 1) % sb_.ngroups;
  LFS_RETURN_IF_ERROR(CreateInode(ino, FileType::kDirectory));
  dirs_.insert_or_assign(ino, Directory(sb_.block_size));
  return AddDirEntry(dir_ino, DirEntry{name, ino, FileType::kDirectory});
}

Status FfsFileSystem::DeleteFileContents(InodeNum ino) {
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  fm->tree.Shrink(0, [this](BlockNo addr) { FreeBlock(addr); });
  FfsInode dead;
  dead.ino = ino;  // type kNone marks the slot free for fsck
  LFS_RETURN_IF_ERROR(WriteInodeSync(dead));
  FreeInode(ino);
  files_.erase(ino);
  dirs_.erase(ino);
  return OkStatus();
}

Status FfsFileSystem::Unlink(std::string_view path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kUnlink, device_, &clock_);
  LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  auto [dir_ino, name] = parent;
  LFS_ASSIGN_OR_RETURN(InodeNum ino, LookupInDir(dir_ino, name));
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError(std::string(path) + " (use Rmdir)");
  }
  LFS_RETURN_IF_ERROR(RemoveDirEntry(dir_ino, name));
  fm->inode.nlink--;
  if (fm->inode.nlink == 0) {
    return DeleteFileContents(ino);
  }
  fm->inode.mtime = clock_.Tick();
  return WriteInodeSync(fm->inode);
}

Status FfsFileSystem::Rmdir(std::string_view path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  auto [dir_ino, name] = parent;
  LFS_ASSIGN_OR_RETURN(InodeNum ino, LookupInDir(dir_ino, name));
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type != FileType::kDirectory) {
    return NotADirectoryError(std::string(path));
  }
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(ino));
  if (!dir->empty()) {
    return NotEmptyError(std::string(path));
  }
  LFS_RETURN_IF_ERROR(RemoveDirEntry(dir_ino, name));
  return DeleteFileContents(ino);
}

Status FfsFileSystem::Link(std::string_view existing, std::string_view link_path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LFS_ASSIGN_OR_RETURN(InodeNum ino, Lookup(existing));
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  if (fm->inode.type == FileType::kDirectory) {
    return IsADirectoryError("hard links to directories are not allowed");
  }
  LFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(link_path));
  auto [dir_ino, name] = parent;
  if (LookupInDir(dir_ino, name).ok()) {
    return AlreadyExistsError(std::string(link_path));
  }
  LFS_RETURN_IF_ERROR(AddDirEntry(dir_ino, DirEntry{name, ino, FileType::kRegular}));
  fm->inode.nlink++;
  fm->inode.mtime = clock_.Tick();
  return WriteInodeSync(fm->inode);
}

Status FfsFileSystem::Rename(std::string_view from, std::string_view to) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (from == to) {
    return OkStatus();
  }
  if (to.size() > from.size() && to.substr(0, from.size()) == from &&
      to[from.size()] == '/') {
    return InvalidArgumentError("cannot move a directory into itself");
  }
  LFS_ASSIGN_OR_RETURN(auto src, ResolveParent(from));
  auto [from_dir, from_name] = src;
  LFS_ASSIGN_OR_RETURN(InodeNum ino, LookupInDir(from_dir, from_name));
  LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino));
  FileType type = fm->inode.type;
  LFS_ASSIGN_OR_RETURN(auto dst, ResolveParent(to));
  auto [to_dir, to_name] = dst;

  Result<InodeNum> existing = LookupInDir(to_dir, to_name);
  if (existing.ok()) {
    LFS_ASSIGN_OR_RETURN(FileMap * rfm, GetFileMap(existing.value()));
    if (rfm->inode.type == FileType::kDirectory) {
      return IsADirectoryError("rename target is a directory");
    }
    LFS_RETURN_IF_ERROR(RemoveDirEntry(to_dir, to_name));
    rfm->inode.nlink--;
    if (rfm->inode.nlink == 0) {
      LFS_RETURN_IF_ERROR(DeleteFileContents(existing.value()));
    } else {
      LFS_RETURN_IF_ERROR(WriteInodeSync(rfm->inode));
    }
  }
  LFS_RETURN_IF_ERROR(RemoveDirEntry(from_dir, from_name));
  LFS_RETURN_IF_ERROR(AddDirEntry(to_dir, DirEntry{to_name, ino, type}));
  return OkStatus();
}

Result<std::vector<DirEntry>> FfsFileSystem::ReadDir(std::string_view path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LFS_ASSIGN_OR_RETURN(InodeNum ino, ResolveDir(path));
  LFS_ASSIGN_OR_RETURN(Directory * dir, GetDirectory(ino));
  return dir->List();
}

// --- fsck ---------------------------------------------------------------------------

Result<FsckReport> FfsFileSystem::Fsck() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FsckReport report;
  const uint32_t bs = sb_.block_size;
  files_.clear();
  dirs_.clear();
  itable_cache_.clear();

  // Phase 1: scan EVERY inode table block on the disk (this is the cost the
  // paper contrasts with LFS recovery: the filesystem cannot know where the
  // last changes were).
  std::vector<Bitmap> inode_seen;
  std::vector<Bitmap> blocks_seen;
  for (uint32_t g = 0; g < sb_.ngroups; g++) {
    inode_seen.emplace_back(sb_.inodes_per_group);
    blocks_seen.emplace_back(sb_.data_blocks_per_group());
  }
  std::map<InodeNum, FfsInode> alive;
  std::vector<uint8_t> block(bs);
  for (uint32_t g = 0; g < sb_.ngroups; g++) {
    for (uint32_t b = 0; b < sb_.inode_table_blocks; b++) {
      LFS_RETURN_IF_ERROR(device_->ReadBlock(sb_.InodeTableBlock(g) + b, block));
      for (uint32_t s = 0; s < sb_.inodes_per_block(); s++) {
        report.inodes_scanned++;
        Result<FfsInode> ino = FfsInode::DecodeFrom(std::span<const uint8_t>(block).subspan(
            size_t{s} * kFfsInodeSize, kFfsInodeSize));
        if (!ino.ok() || ino->type == FileType::kNone) {
          continue;
        }
        InodeNum num = static_cast<InodeNum>(
            g * sb_.inodes_per_group + b * sb_.inodes_per_block() + s + 1);
        inode_seen[g].Set((num - 1) % sb_.inodes_per_group);
        alive[num] = std::move(ino).value();
      }
    }
  }

  // Phase 2: mark all referenced blocks by walking every live file's block
  // tree, and recount directory references by walking every directory.
  std::map<InodeNum, uint32_t> nlink_count;
  for (auto& [num, inode] : alive) {
    uint32_t bit = (num - 1) % sb_.inodes_per_group;
    if (!inode_bitmaps_[GroupOfInode(num)].Get(bit)) {
      report.fixes++;  // allocated inode missing from the on-disk bitmap
    }
    inode_bitmaps_[GroupOfInode(num)].Set(bit);
    Result<FileMap*> fm = GetFileMap(num);
    if (!fm.ok()) {
      continue;
    }
    auto mark = [&](BlockNo addr) {
      if (addr == kNilBlock) {
        return;
      }
      uint32_t g = GroupOfBlock(addr);
      uint64_t within = addr - sb_.DataBase(g);
      if (g < sb_.ngroups && within < sb_.data_blocks_per_group()) {
        blocks_seen[g].Set(static_cast<uint32_t>(within));
        report.blocks_referenced++;
      }
    };
    for (BlockNo a : (*fm)->tree.blocks) {
      mark(a);
    }
    for (BlockNo a : (*fm)->tree.ind_addrs) {
      mark(a);
    }
    mark((*fm)->tree.dind_addr);
    if (inode.type == FileType::kDirectory) {
      report.directories_walked++;
      Result<Directory*> dir = GetDirectory(num);
      if (dir.ok()) {
        (*dir)->ForEach([&](std::string_view, InodeNum ino, FileType) { nlink_count[ino]++; });
      }
    }
  }
  nlink_count[kRootInode]++;  // the root is its own reference

  // Phase 3: repair — fix link counts, free orphans, rebuild bitmaps.
  for (auto& [num, inode] : alive) {
    uint32_t expected = nlink_count.count(num) ? nlink_count[num] : 0;
    if (expected == 0) {
      FfsInode dead;
      dead.ino = num;
      LFS_RETURN_IF_ERROR(WriteInodeSync(dead));
      inode_bitmaps_[GroupOfInode(num)].Clear((num - 1) % sb_.inodes_per_group);
      report.fixes++;
      continue;
    }
    if (inode.nlink != expected) {
      inode.nlink = static_cast<uint16_t>(expected);
      LFS_RETURN_IF_ERROR(WriteInodeSync(inode));
      report.fixes++;
    }
  }
  free_data_blocks_ = 0;
  for (uint32_t g = 0; g < sb_.ngroups; g++) {
    for (uint32_t i = 0; i < sb_.data_blocks_per_group(); i++) {
      bool want = blocks_seen[g].Get(i);
      if (block_bitmaps_[g].Get(i) != want) {
        report.fixes++;
      }
      if (want) {
        block_bitmaps_[g].Set(i);
      } else {
        block_bitmaps_[g].Clear(i);
      }
    }
    free_data_blocks_ += sb_.data_blocks_per_group() - block_bitmaps_[g].CountSet();
  }
  LFS_RETURN_IF_ERROR(WriteBitmapsSync());
  files_.clear();
  dirs_.clear();
  return report;
}

}  // namespace lfs::ffs
