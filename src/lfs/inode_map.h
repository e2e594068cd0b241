// InodeMap: maps inode numbers to the current log location of each inode
// (Table 1 "Inode map", Section 3.1).
//
// The map is an array of ImapEntry indexed by inode number, divided into
// fixed-size chunks. The active portion is kept entirely in memory (the
// paper: "inode maps are compact enough to keep the active portions cached
// in main memory"); dirty chunks are written to the log at checkpoint time
// and the checkpoint region records every chunk's disk address.
//
// Entry versions implement the paper's file uid: the version is incremented
// whenever the file is deleted or truncated to length zero, so (ino,
// version) uniquely identifies file contents and lets the cleaner discard
// dead blocks without reading the inode (Section 3.3).
//
// Concurrency: the map synchronizes itself so the filesystem front end can
// call it under the filesystem's *shared* lock. An internal reader-writer
// lock guards the entry array's structure (it grows with the allocation
// high-water mark); lookups and the atime bump take it shared, every
// structural mutator (Allocate/Free/SetLocation/Restore/LoadChunk) takes it
// exclusive. Dirty-chunk tracking is a lock-free relaxed bitmap — hot read
// paths mark atime chunks dirty without any mutex — harvested into an
// ordered list by the checkpoint path, which runs under the filesystem's
// exclusive lock.

#ifndef LFS_LFS_INODE_MAP_H_
#define LFS_LFS_INODE_MAP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "src/lfs/layout.h"
#include "src/util/relaxed.h"
#include "src/util/result.h"

namespace lfs {

class InodeMap {
 public:
  InodeMap(uint32_t max_inodes, uint32_t entries_per_chunk)
      : max_inodes_(max_inodes),
        entries_per_chunk_(entries_per_chunk),
        chunk_addrs_((max_inodes + entries_per_chunk - 1) / entries_per_chunk, kNilBlock),
        chunk_dirty_(chunk_addrs_.size()) {}

  // --- lookups ---------------------------------------------------------------

  bool IsAllocated(InodeNum ino) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return ino < entries_.size() && entries_[ino].allocated();
  }
  // Entry for an inode (zero entry for never-allocated numbers).
  ImapEntry Get(InodeNum ino) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return ino < entries_.size() ? entries_[ino] : ImapEntry{};
  }
  uint32_t ninodes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<uint32_t>(entries_.size());
  }
  uint32_t max_inodes() const { return max_inodes_; }
  uint64_t allocated_count() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return allocated_count_;
  }

  // --- mutation ----------------------------------------------------------------

  // Allocates a fresh inode number (reusing freed numbers first) and bumps
  // its version. Fails with NoInodes when the number space is exhausted.
  Result<InodeNum> Allocate();

  // Frees an inode number and bumps the version so stale log blocks carrying
  // the old (ino, version) uid are recognizably dead.
  void Free(InodeNum ino);

  // Records the new log location of an inode.
  void SetLocation(InodeNum ino, BlockNo inode_block, uint16_t slot);

  // Thread-safe under the filesystem's *shared* lock: the atime store is a
  // relaxed atomic into an entry that structurally exists (the caller just
  // read the inode), and the dirty mark is a relaxed bitmap store.
  void SetAtime(InodeNum ino, uint64_t atime);

  // Used by roll-forward: force an entry to a recovered state.
  void Restore(InodeNum ino, const ImapEntry& entry);

  // --- chunk persistence ---------------------------------------------------------
  //
  // The chunk-address table and dirty harvest are checkpoint-path state,
  // called under the filesystem's exclusive lock (or a quiesced mount path).

  uint32_t chunk_count() const { return static_cast<uint32_t>(chunk_addrs_.size()); }
  uint32_t chunk_of(InodeNum ino) const { return ino / entries_per_chunk_; }
  BlockNo chunk_addr(uint32_t chunk) const { return chunk_addrs_[chunk]; }
  void set_chunk_addr(uint32_t chunk, BlockNo addr) { chunk_addrs_[chunk] = addr; }

  // Chunks marked dirty since the last harvest, in ascending order.
  std::vector<uint32_t> dirty_chunks() const {
    std::vector<uint32_t> out;
    for (uint32_t c = 0; c < chunk_dirty_.size(); c++) {
      if (chunk_dirty_[c].load() != 0) {
        out.push_back(c);
      }
    }
    return out;
  }
  void ClearDirty() {
    for (auto& d : chunk_dirty_) {
      d.store(0);
    }
  }
  void ClearDirtyChunk(uint32_t chunk) { chunk_dirty_[chunk].store(0); }

  // Serializes one chunk into a block-sized buffer.
  void EncodeChunk(uint32_t chunk, std::span<uint8_t> block) const;
  // Loads one chunk from disk contents; extends the in-memory array.
  void LoadChunk(uint32_t chunk, std::span<const uint8_t> block, uint32_t ninodes_limit);

  // Rebuilds the free list after loading chunks (mount / recovery).
  void RebuildFreeList();

 private:
  void EnsureSize(InodeNum ino);  // caller holds mu_ exclusive
  void MarkDirty(InodeNum ino) { chunk_dirty_[chunk_of(ino)].store(1); }

  uint32_t max_inodes_;
  uint32_t entries_per_chunk_;
  mutable std::shared_mutex mu_;        // entry-array structure + free list
  std::vector<ImapEntry> entries_;      // grows to the high-water mark
  std::vector<InodeNum> free_list_;     // freed numbers below the high-water mark
  std::vector<BlockNo> chunk_addrs_;    // current log address of each chunk
  std::vector<Relaxed<uint8_t>> chunk_dirty_;  // lock-free dirty bitmap
  uint64_t allocated_count_ = 0;
};

// InodeLockTable: striped per-inode reader-writer locks for the filesystem
// front end. The stripe for an inode is ino % nstripes; colliding inodes
// simply share a stripe (serialization, never incorrectness). Operations
// that need several inodes (rename, link, unlink-into, ...) must acquire
// stripes in ascending stripe order — InodeLockSet does exactly that — so
// two ops locking overlapping inode sets can never deadlock.
class InodeLockTable {
 public:
  explicit InodeLockTable(uint32_t stripes) {
    // Power-of-two stripe count so StripeOf is a mask.
    nstripes_ = 1;
    while (nstripes_ < stripes && nstripes_ < (1u << 16)) {
      nstripes_ <<= 1;
    }
    stripes_ = std::make_unique<std::shared_mutex[]>(nstripes_);
  }

  uint32_t StripeOf(InodeNum ino) const { return static_cast<uint32_t>(ino) & (nstripes_ - 1); }
  std::shared_mutex& Stripe(uint32_t s) { return stripes_[s]; }
  uint32_t nstripes() const { return nstripes_; }

 private:
  uint32_t nstripes_;
  std::unique_ptr<std::shared_mutex[]> stripes_;
};

// RAII guard over up to four inode stripes (rename touches at most
// from-dir, to-dir, the moved inode, and a replaced target). Stripes are
// deduplicated and locked in ascending index order; all shared or all
// exclusive.
class InodeLockSet {
 public:
  InodeLockSet(InodeLockTable& table, std::initializer_list<InodeNum> inos, bool exclusive)
      : table_(table), exclusive_(exclusive) {
    for (InodeNum ino : inos) {
      // Insertion into the ascending stripe list, dropping duplicates.
      uint32_t s = table_.StripeOf(ino);
      int i = 0;
      while (i < n_ && stripes_[i] < s) {
        i++;
      }
      if (i < n_ && stripes_[i] == s) {
        continue;
      }
      for (int j = n_; j > i; j--) {
        stripes_[j] = stripes_[j - 1];
      }
      stripes_[i] = s;
      n_++;
    }
    for (int i = 0; i < n_; i++) {
      if (exclusive_) {
        table_.Stripe(stripes_[i]).lock();
      } else {
        table_.Stripe(stripes_[i]).lock_shared();
      }
    }
  }
  InodeLockSet(const InodeLockSet&) = delete;
  InodeLockSet& operator=(const InodeLockSet&) = delete;

  ~InodeLockSet() {
    for (int i = n_ - 1; i >= 0; i--) {
      if (exclusive_) {
        table_.Stripe(stripes_[i]).unlock();
      } else {
        table_.Stripe(stripes_[i]).unlock_shared();
      }
    }
  }

 private:
  InodeLockTable& table_;
  const bool exclusive_;
  int n_ = 0;
  uint32_t stripes_[4] = {0, 0, 0, 0};
};

}  // namespace lfs

#endif  // LFS_LFS_INODE_MAP_H_
