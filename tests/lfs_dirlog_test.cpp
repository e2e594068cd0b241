// Directory-operation-log replay matrix (Section 4.2).
//
// For each namespace operation we crash at EVERY device-write boundary
// between the operation and its durability, remount, and assert the
// operation-specific atomicity contract:
//
//   create:          the file is absent, or present with nlink 1 (never a
//                    dangling entry — "the directory entry will be removed");
//   link:            nlink always equals the number of directory entries;
//   unlink:          the name is gone or fully present; never half;
//   rename:          exactly one of the two names resolves to the file;
//   rename-replace:  the target name resolves to either the old or the new
//                    file's contents, never a mix, and the source name is
//                    consistent with whichever state survived.

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "src/disk/crash_disk.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

struct Rig {
  LfsConfig cfg = SmallConfig();
  std::unique_ptr<CrashDisk> disk;
  std::unique_ptr<LfsFileSystem> fs;

  Rig() {
    disk = std::make_unique<CrashDisk>(std::make_unique<MemDisk>(cfg.block_size, 8192));
    fs = std::move(LfsFileSystem::Mkfs(disk.get(), cfg)).value();
  }

  void Remount() {
    fs.reset();
    disk->ClearCrash();
    fs = std::move(LfsFileSystem::Mount(disk.get(), cfg)).value();
  }

  // Counts directory entries across the whole tree that point at `ino`.
  uint32_t CountRefs(InodeNum ino) {
    uint32_t refs = 0;
    std::vector<std::string> dirs = {"/"};
    while (!dirs.empty()) {
      std::string d = dirs.back();
      dirs.pop_back();
      auto entries = fs->ReadDir(d);
      if (!entries.ok()) {
        continue;
      }
      for (const DirEntry& e : *entries) {
        if (e.ino == ino) {
          refs++;
        }
        if (e.type == FileType::kDirectory) {
          dirs.push_back(d == "/" ? "/" + e.name : d + "/" + e.name);
        }
      }
    }
    return refs;
  }
};

// Runs `setup` (made durable), then `op` + a flush-forcing filler write with
// a crash armed after `crash_at` writes; remounts and calls `verify`.
// Returns false once crash_at exceeds the window (sweep complete).
bool CrashPoint(int crash_at, const std::function<void(Rig&)>& setup,
                const std::function<void(Rig&)>& op,
                const std::function<void(Rig&)>& verify) {
  Rig rig;
  setup(rig);
  EXPECT_TRUE(rig.fs->Sync().ok());
  uint64_t before = rig.disk->writes_seen();
  rig.disk->CrashAfterWrites(crash_at, /*torn_blocks=*/1);
  op(rig);
  // Filler pushes the dirlog + directory blocks + inodes into the log.
  (void)rig.fs->WriteFile("/filler", TestContent(999, 40 * 1024));
  (void)rig.fs->Sync();
  bool window_active = rig.disk->crashed();
  uint64_t window = rig.disk->writes_seen() - before;
  rig.Remount();
  verify(rig);
  // Keep sweeping while the armed crash actually fired inside the window.
  return window_active && crash_at < static_cast<int>(window);
}

void Sweep(const std::function<void(Rig&)>& setup, const std::function<void(Rig&)>& op,
           const std::function<void(Rig&)>& verify) {
  for (int crash_at = 0; crash_at < 64; crash_at++) {
    if (!CrashPoint(crash_at, setup, op, verify)) {
      break;
    }
  }
}

TEST(DirLogTest, UnloggableRecordFailsOneCommitOnly) {
  // At 512-byte blocks a rename between two 255-byte names makes a record
  // that no dirlog block can hold. The rename is refused before it changes
  // anything, so no commit fails and the file keeps its old name.
  LfsConfig cfg = SmallConfig();
  cfg.block_size = 512;
  MemDisk disk(cfg.block_size, 8192);
  auto fs = std::move(LfsFileSystem::Mkfs(&disk, cfg)).value();
  const std::string from = "/" + std::string(kMaxNameLen, 'a');
  const std::string to = "/" + std::string(kMaxNameLen, 'b');
  ASSERT_OK(fs->WriteFile(from, TestContent(1, 700)));
  ASSERT_OK(fs->Sync());
  const uint64_t dirlog_bytes =
      fs->stats().log_bytes_by_kind[static_cast<size_t>(BlockKind::kDirLog)];

  EXPECT_EQ(fs->Rename(from, to).code(), StatusCode::kInvalidArgument);
  ASSERT_OK(fs->Sync());
  EXPECT_EQ(fs->stats().log_bytes_by_kind[static_cast<size_t>(BlockKind::kDirLog)],
            dirlog_bytes);
  ASSERT_OK(fs->Unmount());
  fs = std::move(LfsFileSystem::Mount(&disk, cfg)).value();
  EXPECT_FALSE(fs->Lookup(to).ok());
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> got, fs->ReadFile(from));
  EXPECT_EQ(got, TestContent(1, 700));
}

TEST(DirLogMatrix, CreateIsAtomic) {
  Sweep([](Rig&) {},
        [](Rig& rig) { (void)rig.fs->WriteFile("/new", TestContent(1, 3000)); },
        [](Rig& rig) {
          if (!rig.fs->Exists("/new")) {
            return;  // undone: fine
          }
          auto st = rig.fs->StatPath("/new");
          ASSERT_TRUE(st.ok());
          EXPECT_EQ(st->nlink, 1u);
          EXPECT_EQ(rig.CountRefs(st->ino), 1u);
          auto data = rig.fs->ReadFile("/new");
          ASSERT_TRUE(data.ok());  // never a dangling entry
        });
}

TEST(DirLogMatrix, MkdirIsAtomic) {
  Sweep([](Rig&) {},
        [](Rig& rig) { (void)rig.fs->Mkdir("/dir"); },
        [](Rig& rig) {
          if (!rig.fs->Exists("/dir")) {
            return;
          }
          auto entries = rig.fs->ReadDir("/dir");
          ASSERT_TRUE(entries.ok());  // a surviving directory must be usable
          EXPECT_TRUE(entries->empty());
        });
}

TEST(DirLogMatrix, LinkKeepsRefcountConsistent) {
  Sweep([](Rig& rig) { ASSERT_TRUE(rig.fs->WriteFile("/orig", TestContent(2, 2000)).ok()); },
        [](Rig& rig) { (void)rig.fs->Link("/orig", "/alias"); },
        [](Rig& rig) {
          ASSERT_TRUE(rig.fs->Exists("/orig"));
          auto st = rig.fs->StatPath("/orig");
          ASSERT_TRUE(st.ok());
          EXPECT_EQ(st->nlink, rig.CountRefs(st->ino));
          EXPECT_EQ(st->nlink, rig.fs->Exists("/alias") ? 2u : 1u);
        });
}

TEST(DirLogMatrix, UnlinkIsAtomic) {
  Sweep([](Rig& rig) { ASSERT_TRUE(rig.fs->WriteFile("/doomed", TestContent(3, 5000)).ok()); },
        [](Rig& rig) { (void)rig.fs->Unlink("/doomed"); },
        [](Rig& rig) {
          if (!rig.fs->Exists("/doomed")) {
            return;  // deletion recovered
          }
          auto data = rig.fs->ReadFile("/doomed");
          ASSERT_TRUE(data.ok());
          EXPECT_EQ(*data, TestContent(3, 5000));  // or fully intact
        });
}

TEST(DirLogMatrix, RenameMovesExactlyOneName) {
  Sweep([](Rig& rig) { ASSERT_TRUE(rig.fs->WriteFile("/from", TestContent(4, 4000)).ok()); },
        [](Rig& rig) { (void)rig.fs->Rename("/from", "/to"); },
        [](Rig& rig) {
          bool from = rig.fs->Exists("/from");
          bool to = rig.fs->Exists("/to");
          EXPECT_TRUE(from != to) << "rename must never lose or duplicate the file";
          auto data = rig.fs->ReadFile(from ? "/from" : "/to");
          ASSERT_TRUE(data.ok());
          EXPECT_EQ(*data, TestContent(4, 4000));
        });
}

TEST(DirLogMatrix, RenameReplaceNeverMixes) {
  Sweep(
      [](Rig& rig) {
        ASSERT_TRUE(rig.fs->WriteFile("/from", TestContent(5, 4000)).ok());
        ASSERT_TRUE(rig.fs->WriteFile("/to", TestContent(6, 4000)).ok());
      },
      [](Rig& rig) { (void)rig.fs->Rename("/from", "/to"); },
      [](Rig& rig) {
        ASSERT_TRUE(rig.fs->Exists("/to"));
        auto data = rig.fs->ReadFile("/to");
        ASSERT_TRUE(data.ok());
        bool is_new = *data == TestContent(5, 4000);
        bool is_old = *data == TestContent(6, 4000);
        EXPECT_TRUE(is_new || is_old) << "/to must hold one intact version";
        if (is_new) {
          EXPECT_FALSE(rig.fs->Exists("/from")) << "moved file must not appear twice";
        } else {
          // Old state survived entirely: /from must still be intact.
          ASSERT_TRUE(rig.fs->Exists("/from"));
          auto from = rig.fs->ReadFile("/from");
          ASSERT_TRUE(from.ok());
          EXPECT_EQ(*from, TestContent(5, 4000));
        }
      });
}

TEST(DirLogMatrix, RmdirIsAtomic) {
  Sweep([](Rig& rig) { ASSERT_TRUE(rig.fs->Mkdir("/d").ok()); },
        [](Rig& rig) { (void)rig.fs->Rmdir("/d"); },
        [](Rig& rig) {
          if (rig.fs->Exists("/d")) {
            EXPECT_TRUE(rig.fs->ReadDir("/d").ok());
          }
        });
}

}  // namespace
}  // namespace lfs
