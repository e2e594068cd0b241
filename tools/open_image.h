// OpenImage: how lfsck and lfsdump open the image they inspect.

#ifndef LFS_TOOLS_OPEN_IMAGE_H_
#define LFS_TOOLS_OPEN_IMAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/disk/file_disk.h"
#include "src/lfs/layout.h"
#include "src/util/codec.h"

namespace lfs {

// Opens the image at `path` read-only: a missing file is an error, and the
// file is never created, written or resized. The block size comes from the
// superblock's header (its magic, then the block size), read through a
// 512-byte view; the device spans the whole file.
inline Result<std::unique_ptr<FileDisk>> OpenImage(const std::string& path) {
  LFS_ASSIGN_OR_RETURN(std::unique_ptr<FileDisk> probe, FileDisk::OpenReadOnly(path, 512));
  std::vector<uint8_t> sector(512);
  LFS_RETURN_IF_ERROR(probe->Read(0, 1, sector));
  Decoder dec(sector);
  uint32_t magic = dec.GetU32();
  uint32_t bs = dec.GetU32();
  if (magic != kSuperMagic || bs < 512 || bs > (1u << 20) || (bs & (bs - 1)) != 0) {
    return CorruptionError("'" + path + "' does not start with an LFS superblock");
  }
  return FileDisk::OpenReadOnly(path, bs);
}

}  // namespace lfs

#endif  // LFS_TOOLS_OPEN_IMAGE_H_
