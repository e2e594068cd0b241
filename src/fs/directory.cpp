#include "src/fs/directory.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/util/codec.h"

namespace lfs {

namespace {

constexpr size_t kHeaderBytes = 4;      // u32 entry count
constexpr size_t kEntryFixedBytes = 7;  // u32 ino, u8 type, u16 name length

uint32_t GetU32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

void PutU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

size_t EntryBytes(const uint8_t* entry) {
  return kEntryFixedBytes + (size_t{entry[5]} | size_t{entry[6]} << 8);
}

std::string_view EntryName(const uint8_t* e) {
  return {reinterpret_cast<const char*>(e) + kEntryFixedBytes, EntryBytes(e) - kEntryFixedBytes};
}

// Walks the entries of a block that DecodeBlock accepted.
void Walk(const uint8_t* block, const Directory::Visitor& visit) {
  const uint8_t* e = block + kHeaderBytes;
  for (uint32_t n = GetU32(block); n > 0; n--, e += EntryBytes(e)) {
    visit(EntryName(e), GetU32(e), static_cast<FileType>(e[4]));
  }
}

}  // namespace

Result<size_t> Directory::DecodeBlock(std::span<const uint8_t> block, const Visitor& visit) {
  Decoder dec(block);
  uint32_t count = dec.GetU32();
  // A block holds at most (block size - 4) / 7 entries, all with empty
  // names; a larger count is corrupt without reading any entry.
  if (!dec.ok() || count > (block.size() - kHeaderBytes) / kEntryFixedBytes) {
    return CorruptionError("directory block: entry count " + std::to_string(count) + " too large");
  }
  for (uint32_t i = 0; i < count && dec.ok(); i++) {
    dec.Skip(kEntryFixedBytes - 2);
    dec.Skip(dec.GetU16());
  }
  if (!dec.ok()) {
    return CorruptionError("directory block: truncated entry");
  }
  Walk(block.data(), visit);
  return dec.pos();
}

Status Directory::Load(std::span<const uint8_t> block) {
  assert(block.size() == block_size_);
  const uint64_t b = used_.size();
  LFS_ASSIGN_OR_RETURN(size_t used,
                       DecodeBlock(block, [&](std::string_view name, InodeNum ino, FileType) {
                         index_.emplace(name, Slot{ino, b});
                       }));
  bytes_.insert(bytes_.end(), block.begin(), block.begin() + static_cast<ptrdiff_t>(used));
  bytes_.resize(bytes_.size() + block_size_ - used);
  used_.push_back(used);
  return OkStatus();
}

Result<InodeNum> Directory::Find(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return NotFoundError("no entry '" + std::string(name) + "'");
  }
  return it->second.ino;
}

uint64_t Directory::BlockFor(std::string_view name) const {
  const size_t need = kEntryFixedBytes + name.size();
  for (uint64_t b = 0; b < used_.size(); b++) {
    if (used_[b] + need <= block_size_) {
      return b;
    }
  }
  return used_.size();
}

uint64_t Directory::Add(std::string_view name, InodeNum ino, FileType type) {
  const uint64_t b = BlockFor(name);
  if (b == used_.size()) {
    bytes_.resize(bytes_.size() + block_size_);
    used_.push_back(kHeaderBytes);
  }
  uint8_t* blk = bytes_.data() + b * block_size_;
  uint8_t* e = blk + used_[b];
  PutU32(e, ino);
  e[4] = static_cast<uint8_t>(type);
  e[5] = static_cast<uint8_t>(name.size());
  e[6] = static_cast<uint8_t>(name.size() >> 8);
  std::memcpy(e + kEntryFixedBytes, name.data(), name.size());
  used_[b] += kEntryFixedBytes + name.size();
  PutU32(blk, GetU32(blk) + 1);
  index_.emplace(name, Slot{ino, b});
  return b;
}

Result<uint64_t> Directory::Remove(std::string_view name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return NotFoundError("no entry '" + std::string(name) + "' to remove");
  }
  const uint64_t b = it->second.block;
  index_.erase(it);
  uint8_t* blk = bytes_.data() + b * block_size_;
  uint8_t* end = blk + used_[b];
  uint8_t* e = blk + kHeaderBytes;
  while (EntryName(e) != name) {  // the index names the block that holds it
    e += EntryBytes(e);
    assert(e < end);
  }
  const size_t len = EntryBytes(e);
  std::memmove(e, e + len, static_cast<size_t>(end - e) - len);
  std::memset(end - len, 0, len);
  used_[b] -= len;
  PutU32(blk, GetU32(blk) - 1);
  return b;
}

bool Directory::empty() const {
  return std::all_of(used_.begin(), used_.end(), [](size_t u) { return u == kHeaderBytes; });
}

void Directory::ForEach(const Visitor& visit) const {
  for (uint64_t b = 0; b < used_.size(); b++) {
    Walk(bytes_.data() + b * block_size_, visit);
  }
}

std::vector<DirEntry> Directory::List() const {
  std::vector<DirEntry> out;
  ForEach([&](std::string_view name, InodeNum ino, FileType type) {
    out.push_back(DirEntry{std::string(name), ino, type});
  });
  std::sort(out.begin(), out.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return out;
}

}  // namespace lfs
