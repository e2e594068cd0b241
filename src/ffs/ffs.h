// FfsFileSystem: the baseline Unix-FFS-style filesystem the paper compares
// against (SunOS 4.0.3's filesystem). See ffs_layout.h for the behavioural
// contract. The important properties for the paper's experiments:
//
//   - every metadata update (inode, directory block) is one synchronous
//     small write at a fixed location — small seek-paying I/Os dominate
//     small-file workloads (<5% of disk bandwidth doing useful work);
//   - data blocks are written individually, block at a time (pre-McVoy
//     SunOS: "individual disk operations for each block");
//   - reads and sequential layout are good: logical locality.

#ifndef LFS_FFS_FFS_H_
#define LFS_FFS_FFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/disk/block_device.h"
#include "src/ffs/bitmap.h"
#include "src/ffs/ffs_layout.h"
#include "src/fs/block_tree.h"
#include "src/fs/clock.h"
#include "src/fs/directory.h"
#include "src/fs/file_system.h"
#include "src/obs/obs.h"

namespace lfs::ffs {

struct FfsStats {
  uint64_t metadata_writes = 0;  // synchronous inode/dir/bitmap writes
  uint64_t data_writes = 0;      // individual data block writes
  uint64_t data_bytes_written = 0;
};

struct FsckReport {
  uint64_t inodes_scanned = 0;
  uint64_t directories_walked = 0;
  uint64_t blocks_referenced = 0;
  uint64_t fixes = 0;  // nlink corrections, orphan frees, bitmap repairs
};

class FfsFileSystem : public FileSystem {
 public:
  static Result<std::unique_ptr<FfsFileSystem>> Mkfs(BlockDevice* device, uint32_t block_size);
  static Result<std::unique_ptr<FfsFileSystem>> Mount(BlockDevice* device);

  ~FfsFileSystem() override = default;
  FfsFileSystem(const FfsFileSystem&) = delete;
  FfsFileSystem& operator=(const FfsFileSystem&) = delete;

  // --- FileSystem interface ---------------------------------------------------

  Result<InodeNum> Create(std::string_view path) override;
  Status Mkdir(std::string_view path) override;
  Status Unlink(std::string_view path) override;
  Status Rmdir(std::string_view path) override;
  Status Link(std::string_view existing, std::string_view link_path) override;
  Status Rename(std::string_view from, std::string_view to) override;
  Result<InodeNum> Lookup(std::string_view path) override;
  Result<FileStat> Stat(InodeNum ino) override;
  Result<std::vector<DirEntry>> ReadDir(std::string_view path) override;
  Status WriteAt(InodeNum ino, uint64_t offset, std::span<const uint8_t> data) override;
  Result<uint64_t> ReadAt(InodeNum ino, uint64_t offset, std::span<uint8_t> out) override;
  Status Truncate(InodeNum ino, uint64_t new_size) override;
  Status Sync() override;

  // --- FFS-specific ---------------------------------------------------------------

  // Full-scan consistency check and repair (the recovery story the paper's
  // Section 4 contrasts with LFS roll-forward: "the system cannot determine
  // where the last changes were made, so it must scan all of the metadata").
  Result<FsckReport> Fsck();

  Status Unmount();

  const FfsSuperblock& superblock() const { return sb_; }
  const FfsStats& stats() const { return stats_; }
  const obs::FsObs& obs() const { return obs_; }
  LogicalClock& clock() { return clock_; }
  uint64_t free_data_blocks() const { return free_data_blocks_; }

 private:
  FfsFileSystem(BlockDevice* device, const FfsSuperblock& sb);

  struct FileMap {
    FfsInode inode;
    BlockTree tree;
    bool pointers_dirty = false;  // inode/indirects differ from disk
  };

  // Allocation (cylinder-group policies).
  Result<InodeNum> AllocInode(uint32_t group_hint);
  void FreeInode(InodeNum ino);
  Result<BlockNo> AllocBlock(uint32_t group_hint, BlockNo prev);
  void FreeBlock(BlockNo block);
  uint32_t GroupOfInode(InodeNum ino) const { return (ino - 1) / sb_.inodes_per_group; }
  uint32_t GroupOfBlock(BlockNo block) const {
    return static_cast<uint32_t>((block - 1) / sb_.blocks_per_group);
  }

  // Synchronous metadata I/O.
  Status WriteInodeSync(const FfsInode& inode, int times = 1);
  Result<FfsInode> ReadInode(InodeNum ino);
  Result<std::vector<uint8_t>*> InodeTableBlockCached(uint64_t block);

  // File maps and data I/O.
  Result<FileMap*> GetFileMap(InodeNum ino);
  // Writes a new inode `ino` of `type` (twice, as FFS does for a new file)
  // and holds its empty map.
  Status CreateInode(InodeNum ino, FileType type);
  Status FlushPointers(FileMap* fm);  // write dirty indirect blocks + inode
  // Data-path pointer updates are asynchronous (SunOS's update daemon):
  // they accumulate and are written back periodically or on Sync.
  Status FlushAllPointers();
  // kOutOfRange when bytes [offset, offset + len) reach past what a block
  // tree addresses.
  Status CheckCapacity(uint64_t offset, uint64_t len) const;

  // Directories.
  Result<Directory*> GetDirectory(InodeNum dir_ino);
  Result<InodeNum> LookupInDir(InodeNum dir_ino, std::string_view name);
  Status AddDirEntry(InodeNum dir_ino, const DirEntry& entry);
  Status RemoveDirEntry(InodeNum dir_ino, std::string_view name);
  // Writes block `fbn` of `dir` in place, then the directory's inode.
  Status WriteDirBlockSync(InodeNum dir_ino, const Directory& dir, uint64_t fbn);
  Result<InodeNum> ResolveDir(std::string_view path);
  Result<std::pair<InodeNum, std::string>> ResolveParent(std::string_view path);
  Status DeleteFileContents(InodeNum ino);
  Status WriteBitmapsSync();

  // Coarse serialization of the public interface, so the FFS baseline is
  // safe to drive from multi-threaded benchmarks (e.g. through a shared
  // CachedBlockDevice). FFS is the paper's comparison point, not the
  // contribution, so a single recursive mutex — reentrancy covers the
  // public-calls-public paths like Link -> Lookup — is deliberate; the LFS
  // front-end gets the real reader-writer regime.
  mutable std::recursive_mutex mu_;

  BlockDevice* device_;
  FfsSuperblock sb_;
  LogicalClock clock_;
  FfsStats stats_;
  mutable obs::FsObs obs_;

  std::vector<Bitmap> inode_bitmaps_;  // one per group
  std::vector<Bitmap> block_bitmaps_;  // one per group, data region only
  uint64_t free_data_blocks_ = 0;
  uint32_t next_dir_group_ = 0;  // round-robin directory placement

  std::map<InodeNum, FileMap> files_;
  std::map<InodeNum, Directory> dirs_;
  uint64_t data_blocks_since_pointer_flush_ = 0;
  std::map<uint64_t, std::vector<uint8_t>> itable_cache_;  // inode table blocks
};

}  // namespace lfs::ffs

#endif  // LFS_FFS_FFS_H_
