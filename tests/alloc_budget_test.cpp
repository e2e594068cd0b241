// Allocation budget of the write path: a steady-state full-block WriteAt and
// its commit allocate no block-sized buffer and only a fixed number of small
// objects, however many blocks the commit carries. Staged blocks live in
// frames from the segment writer's pool, partials refer to them instead of
// copying them, and the file's staged vector keeps its capacity, so nothing
// is allocated per block.
//
// Its own binary: it replaces the global operator new and operator delete
// with counting versions.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};
std::atomic<uint64_t> block_allocations{0};  // of at least kBlockSize bytes

constexpr uint32_t kBlockSize = 4096;

void* CountedAlloc(std::size_t n) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (n >= kBlockSize) {
      block_allocations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedNew(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every form that pairs with a replaced delete is replaced too: a sanitizer
// runtime supplies its own nothrow new, which the plain free below must not
// release.
void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lfs {
namespace {

using ::lfs::testing::TestContent;

TEST(AllocBudgetTest, FullBlockOverwritesAllocateNothingPerBlock) {
  LfsConfig cfg;
  cfg.block_size = kBlockSize;
  // One segment holds the warm-up and every timed commit, so no commit
  // retires a segment into the cleaner's victim index.
  cfg.segment_blocks = 1024;
  cfg.write_buffer_blocks = 64;
  MemDisk disk(cfg.block_size, 16 * cfg.segment_blocks);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  ASSERT_OK_AND_ASSIGN(InodeNum ino, fs->Create("/f"));
  ASSERT_OK(fs->Sync());
  const std::vector<uint8_t> data = TestContent(1, size_t{cfg.write_buffer_blocks} * kBlockSize);
  // Warm-up: the first commit loads every structure and fills the pool.
  ASSERT_OK(fs->WriteAt(ino, 0, data));
  ASSERT_EQ(fs->dirty_buffered_blocks(), 0u);

  // Each WriteAt stages a full write buffer, so each one commits.
  constexpr int kCommits = 8;
  std::vector<uint64_t> per_commit(kCommits);
  std::vector<Status> statuses(kCommits);
  for (int i = 0; i < kCommits; i++) {
    const uint64_t before = allocations.load();
    counting = true;
    statuses[i] = fs->WriteAt(ino, 0, data);
    counting = false;
    per_commit[i] = allocations.load() - before;
  }
  for (int i = 0; i < kCommits; i++) {
    ASSERT_OK(statuses[i]);
  }
  EXPECT_EQ(fs->dirty_buffered_blocks(), 0u);
  EXPECT_EQ(block_allocations.load(), 0u);
  // A fixed handful per commit (the commit's inode list, its dirty-inode
  // entry), not one per block: a commit carries 64 blocks.
  constexpr uint64_t kPerCommitBudget = 8;
  for (int i = 0; i < kCommits; i++) {
    EXPECT_LE(per_commit[i], kPerCommitBudget) << "commit " << i;
  }
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> got, fs->ReadFile("/f"));
  EXPECT_EQ(got, data);
}

}  // namespace
}  // namespace lfs
