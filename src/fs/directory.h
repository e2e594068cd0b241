// Directory: one directory's entries, held in their on-disk block encoding.
//
// LFS appends directory blocks to the log like file data and FFS writes them
// in place, in one format: each block is a u32 entry count followed by packed
// {u32 ino, u8 type, u16 name length, name} entries, zero-filled to the block
// size. Every block is self-contained, so adding or removing an entry changes
// one block, and because the blocks stay encoded that block is ready to write
// as it is. A name index answers lookups without scanning.

#ifndef LFS_FS_DIRECTORY_H_
#define LFS_FS_DIRECTORY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/fs/file_system.h"
#include "src/util/result.h"

namespace lfs {

class Directory {
 public:
  using Visitor = std::function<void(std::string_view name, InodeNum ino, FileType type)>;

  // Validates an encoded block, then calls `visit` on each entry in order.
  // Returns the offset just past the last entry, or kCorruption — before
  // visiting anything — when the entry count exceeds what the block can hold
  // or an entry runs past the block's end.
  static Result<size_t> DecodeBlock(std::span<const uint8_t> block, const Visitor& visit);

  explicit Directory(uint32_t block_size) : block_size_(block_size) {}

  // Appends a stored block (all zeros for a hole) that DecodeBlock accepts.
  // Its bytes are kept as they are, except that any after the last entry are
  // zeroed. A block that fails to decode leaves the directory unchanged.
  Status Load(std::span<const uint8_t> block);

  // The inode `name` names; NotFound when there is no such entry.
  Result<InodeNum> Find(std::string_view name) const;
  // The first block with room for an entry named `name`; block_count() when
  // adding it opens a new block.
  uint64_t BlockFor(std::string_view name) const;
  // Appends the entry to block BlockFor(name) and returns that block.
  uint64_t Add(std::string_view name, InodeNum ino, FileType type);
  // Removes `name`'s entry, moving the rest of its block down and zeroing
  // the bytes it frees, and returns that block; NotFound when there is no
  // such entry.
  Result<uint64_t> Remove(std::string_view name);

  bool empty() const;
  uint64_t block_count() const { return used_.size(); }
  std::span<const uint8_t> block(uint64_t b) const {
    return std::span<const uint8_t>(bytes_).subspan(b * block_size_, block_size_);
  }
  // Walks every entry in place, block by block.
  void ForEach(const Visitor& visit) const;
  // All entries, sorted by name.
  std::vector<DirEntry> List() const;

 private:
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  struct Slot {
    InodeNum ino;
    uint64_t block;
  };

  uint32_t block_size_;
  std::vector<uint8_t> bytes_;  // block_count() encoded blocks, back to back
  std::vector<size_t> used_;    // per block: offset just past its last entry
  std::unordered_map<std::string, Slot, NameHash, std::equal_to<>> index_;
};

}  // namespace lfs

#endif  // LFS_FS_DIRECTORY_H_
