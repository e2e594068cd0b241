// On-disk format of the log-structured filesystem.
//
// Disk layout (block addresses):
//
//   block 0                superblock (fixed; Table 1 "Superblock")
//   blocks 1 .. cr         checkpoint region 0 (fixed; Table 1, Section 4.1)
//   blocks 1+cr .. 1+2cr   checkpoint region 1
//   seg_start ...          segments 0..nsegments-1, each segment_blocks long
//
// Everything else — file data, indirect blocks, inode blocks, inode-map
// chunks, segment-usage chunks, and directory-operation-log blocks — lives
// in the log, i.e. inside segments. There is no free-block bitmap or free
// list anywhere (Section 3.3).
//
// A segment is filled by one or more *partial-segment writes*. Each partial
// write is a single sequential device I/O laid out as
//
//   [ segment summary block | payload block 0 | ... | payload block n-1 ]
//
// The summary identifies every payload block (kind + inode + file block
// number + version) and carries a sequence number and CRCs, which makes a
// partial write the atomic unit of logging: a torn partial write fails its
// payload CRC and is ignored by roll-forward.
//
// All structures are serialized explicitly in little-endian form via
// Encoder/Decoder; no host struct is ever memcpy'd to disk.

#ifndef LFS_LFS_LAYOUT_H_
#define LFS_LFS_LAYOUT_H_

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/disk/block_device.h"
#include "src/fs/block_tree.h"
#include "src/fs/file_system.h"
#include "src/util/relaxed.h"
#include "src/util/result.h"

namespace lfs {

using SegNo = uint32_t;
inline constexpr SegNo kNilSeg = 0xFFFFFFFFu;

inline constexpr uint32_t kSuperMagic = 0x4C465331;       // "LFS1"
inline constexpr uint32_t kSummaryMagic = 0x53554D31;     // "SUM1"
inline constexpr uint32_t kCheckpointMagic = 0x434B5031;  // "CKP1"
inline constexpr uint32_t kDirLogMagic = 0x444C4F31;      // "DLO1"
inline constexpr uint32_t kMultiLogMagic = 0x4D4C4731;    // "MLG1" (checkpoint extension)

// Serialized sizes.
inline constexpr uint32_t kInodeSlotSize = 160;       // bytes per inode in an inode block
inline constexpr uint32_t kImapEntrySize = 24;        // per-inode entry in an imap chunk
inline constexpr uint32_t kUsageEntrySize = 16;       // per-segment entry in a usage chunk
inline constexpr uint32_t kSummaryHeaderSize = 40;
inline constexpr uint32_t kSummaryEntrySize = 25;

// What a payload block in the log contains; recorded in the summary entry
// for the block and used for liveness checks (cleaning) and roll-forward.
enum class BlockKind : uint8_t {
  kData = 1,            // file data; fbn = file block number
  kIndirect = 2,        // single-indirect pointer block; fbn = indirect index
  kDoubleIndirect = 3,  // double-indirect root; fbn = 0
  kInodeBlock = 4,      // packed inodes (self-describing slots)
  kImapChunk = 5,       // inode-map chunk; fbn = chunk index
  kUsageChunk = 6,      // segment-usage-table chunk; fbn = chunk index
  kDirLog = 7,          // directory-operation-log records (Section 4.2)
};

// --- superblock --------------------------------------------------------------

struct Superblock {
  uint32_t block_size = 0;
  uint32_t segment_blocks = 0;
  uint32_t nsegments = 0;
  uint64_t seg_start = 0;      // first block of segment 0
  uint32_t cr_blocks = 0;      // blocks per checkpoint region
  uint64_t cr_base0 = 0;       // first block of checkpoint region 0
  uint64_t cr_base1 = 0;
  uint32_t max_inodes = 0;
  uint32_t imap_chunks = 0;    // chunks covering max_inodes
  uint32_t usage_chunks = 0;   // chunks covering nsegments
  uint64_t total_blocks = 0;

  // Derived geometry helpers.
  BlockNo SegmentBase(SegNo seg) const { return seg_start + uint64_t{seg} * segment_blocks; }
  // Segment containing a block, or kNilSeg for the fixed area.
  SegNo SegOf(BlockNo block) const {
    if (block < seg_start) {
      return kNilSeg;
    }
    uint64_t seg = (block - seg_start) / segment_blocks;
    return seg < nsegments ? static_cast<SegNo>(seg) : kNilSeg;
  }
  uint32_t segment_bytes() const { return segment_blocks * block_size; }
  uint32_t inodes_per_block() const { return block_size / kInodeSlotSize; }
  uint32_t imap_entries_per_chunk() const { return block_size / kImapEntrySize; }
  uint32_t usage_entries_per_chunk() const { return block_size / kUsageEntrySize; }
  // Largest file size the inode's block tree can address.
  uint64_t max_file_bytes() const { return BlockTree::MaxBlocks(block_size) * block_size; }
  // Maximum payload blocks a single partial-segment write can describe.
  uint32_t max_summary_entries() const {
    return (block_size - kSummaryHeaderSize) / kSummaryEntrySize;
  }

  void EncodeTo(std::span<uint8_t> block) const;  // block.size() == block_size
  static Result<Superblock> DecodeFrom(std::span<const uint8_t> block);

  // Computes the full geometry for a device. Fails if the device is too
  // small to hold the fixed area plus at least `reserve+4` segments.
  static Result<Superblock> Compute(uint32_t block_size, uint64_t total_blocks,
                                    uint32_t segment_blocks, uint32_t max_inodes);

  bool operator==(const Superblock&) const = default;
};

// --- inode -------------------------------------------------------------------

// File index structure (Table 1 "Inode"): attributes plus the disk addresses
// of the first kNumDirect blocks; larger files use a single- and a
// double-indirect block (Section 3.1). Inodes are written to the log packed
// into inode blocks; each slot is self-describing (carries its own inode
// number) so the cleaner and roll-forward can interpret inode blocks without
// outside context.
struct Inode {
  InodeNum ino = kNilInode;
  FileType type = FileType::kNone;
  uint16_t nlink = 0;
  uint32_t version = 0;  // matches the imap entry; bumped on delete/truncate-to-0
  uint64_t size = 0;
  uint64_t mtime = 0;
  BlockNo direct[kNumDirect] = {};
  BlockNo single_indirect = kNilBlock;
  BlockNo double_indirect = kNilBlock;

  void EncodeTo(std::span<uint8_t> slot) const;  // slot.size() == kInodeSlotSize
  static Result<Inode> DecodeFrom(std::span<const uint8_t> slot);
  // Decodes slot `slot` of an inode block. A slot that does not fit in the
  // block (a damaged imap entry) is kCorruption.
  static Result<Inode> DecodeSlot(std::span<const uint8_t> block, uint32_t slot);
};

// --- segment summary ---------------------------------------------------------

struct SummaryEntry {
  BlockKind kind = BlockKind::kData;
  InodeNum ino = kNilInode;  // owning file (kData/kIndirect/kDoubleIndirect)
  uint64_t fbn = 0;          // file block number / indirect index / chunk index
  uint32_t version = 0;      // file uid = (ino, version); Section 3.3
  // Per-block modification time. The paper's Sprite LFS kept only one mtime
  // per file and called the per-block version out as planned work ("We plan
  // to modify the segment summary information to include modified times for
  // each block"); this implementation carries it, so age-sorting during
  // cleaning uses exact block ages even for partially rewritten files.
  uint64_t mtime = 0;
};

// Summary block for one partial-segment write (Table 1 "Segment summary").
struct SegmentSummary {
  uint64_t seq = 0;        // monotone log sequence number; orders roll-forward
  uint64_t timestamp = 0;  // logical clock at write time
  uint64_t youngest_mtime = 0;  // age of youngest block written (Section 3.6)
  uint32_t payload_crc = 0;     // CRC over all payload blocks; detects torn writes
  std::vector<SummaryEntry> entries;  // one per payload block, in order

  void EncodeTo(std::span<uint8_t> block) const;
  // Fails with Corruption for bad magic or a corrupted header.
  static Result<SegmentSummary> DecodeFrom(std::span<const uint8_t> block);
};

// --- inode map / segment usage table entries ---------------------------------

// In-memory and on-chunk entry of the inode map (Table 1 "Inode map").
struct ImapEntry {
  BlockNo inode_block = kNilBlock;  // block holding the inode; kNilBlock = free
  uint16_t slot = 0;                // inode slot within that block
  uint32_t version = 0;             // survives free/reuse so uids stay unique
  // Time of last access (the paper keeps access times in the inode map).
  // Relaxed so ReadAt, which runs under the shared filesystem lock, can bump
  // it while concurrent readers copy the entry.
  Relaxed<uint64_t> atime = 0;

  bool allocated() const { return inode_block != kNilBlock; }
  void EncodeTo(std::span<uint8_t> out) const;  // kImapEntrySize bytes
  static ImapEntry DecodeFrom(std::span<const uint8_t> in);
};

enum class SegState : uint8_t {
  kClean = 0,        // fully reusable; the writer may claim it
  kDirty = 1,        // contains log data (possibly all dead, awaiting checkpoint)
  kActive = 2,       // the segment currently being filled by the writer
  kQuarantined = 3,  // media damage detected; never allocated, never cleaned
};

// Per-segment entry of the segment usage table (Table 1, Section 3.6).
// log_id and reuse_count live in previously zero spare bytes of the 16-byte
// slot, so legacy images decode to the (0, 0) defaults and single-log images
// stay byte-identical.
struct SegUsageEntry {
  uint32_t live_bytes = 0;
  uint64_t last_write = 0;  // most recent mtime of data written to the segment
  SegState state = SegState::kClean;
  uint8_t log_id = 0;        // append point that last filled the segment
                             // (0 = metadata/hot, higher = colder)
  uint16_t reuse_count = 0;  // clean->active cycles: the filesystem-level
                             // erase count (wear proxy on flash)

  void EncodeTo(std::span<uint8_t> out) const;  // kUsageEntrySize bytes
  static SegUsageEntry DecodeFrom(std::span<const uint8_t> in);
};

// --- checkpoint region --------------------------------------------------------

// Contents of a checkpoint region (Section 4.1): the addresses of all inode
// map and segment usage table chunks, the log tail position, and allocation
// high-water marks. Two regions alternate; the one with the newest valid
// (CRC-checked) trailer wins at mount.
struct Checkpoint {
  uint64_t ckpt_seq = 0;         // monotone checkpoint counter
  uint64_t timestamp = 0;        // logical clock at checkpoint
  uint64_t next_summary_seq = 1; // next partial-write sequence number
  SegNo cur_segment = 0;         // segment the log tail is in
  uint32_t cur_offset = 0;       // next free block index within cur_segment
  uint32_t ninodes = 0;          // imap high-water mark (chunks beyond are empty)
  uint64_t clock = 1;            // logical clock restore value
  std::vector<BlockNo> imap_chunk_addr;   // imap_chunks entries (kNilBlock = none)
  std::vector<BlockNo> usage_chunk_addr;  // usage_chunks entries

  // Append points of the extra logs (logs 1..N-1) in multi-log mode, as
  // (segment, next free offset) pairs. Encoded after the chunk tables behind
  // a sub-magic, only when non-empty — a single-log checkpoint's bytes are
  // unchanged, and legacy regions (zero padding there) decode to empty.
  std::vector<std::pair<SegNo, uint32_t>> extra_logs;

  // Encodes into a whole checkpoint region (cr_blocks * block_size bytes).
  void EncodeTo(std::span<uint8_t> region) const;
  static Result<Checkpoint> DecodeFrom(std::span<const uint8_t> region);

  // Range checks against the superblock for fields that size in-memory
  // tables; mount and the offline checker both run them before loading.
  Status ValidateAgainst(const Superblock& sb) const;

  // next_summary_seq must be below 2^63 (292,000 years of a million partial
  // writes a second). A writer started near 2^64 would wrap to 0, and the
  // cleaner's chain parse, which needs strictly increasing sequence numbers,
  // would then end a victim's chain early and free live blocks.
  Status ValidateSummarySeq() const;

  // Region size needed for the given chunk counts.
  static uint32_t RegionBlocks(uint32_t block_size, uint32_t imap_chunks, uint32_t usage_chunks);

  // Segments holding the imap and usage chunks this checkpoint points at.
  std::set<SegNo> ChunkHosts(const Superblock& sb) const;
};

// --- reading the image ----------------------------------------------------------
//
// Mount, roll-forward, the cleaner, verified reads, lfsck and lfsdump all
// read the fixed area and the log back through the functions below, so each
// read-side rule has one home.

// Reads the superblock from block 0, or from the backup copy in the device's
// last block when the primary is unreadable or undecodable, and checks that
// its geometry fits the device and is exactly what mkfs writes: what Compute
// derives from its block size, total blocks, segment size and max_inodes.
// `*primary` is set to why the primary was passed over (OK when it was used).
Result<Superblock> ReadSuperblock(BlockDevice* device, Status* primary);

// Both checkpoint regions (Section 4.1): each one's checkpoint or why it is
// unusable, and the index of the valid one with the higher ckpt_seq (-1 when
// neither is valid).
struct CheckpointRegions {
  std::vector<Result<Checkpoint>> regions;
  int newest = -1;
};
CheckpointRegions ReadCheckpointRegions(BlockDevice* device, const Superblock& sb);

// Why a segment's chain of partial writes ended.
enum class ChainEnd : uint8_t {
  kNone,               // not ended yet
  kStop,               // no room for another partial before the stop offset
  kSummaryUnreadable,  // the reader failed on the next summary block
  kBadSummary,         // bad magic, header CRC or entry count
  kStaleSeq,           // sequence number not above its predecessor's
  kEmpty,              // the summary lists no blocks
  kOverrun,            // the partial does not fit before the stop offset
  kPayloadUnreadable,  // ReadPayload: the reader failed on the payload
  kPayloadCrc,         // ReadPayload: the payload fails its CRC
};

// Walks the chain of partial-segment writes in one segment, from block offset
// `start` to at most `stop`. This is the one place that decides where a chain
// ends. Sequence numbers rise strictly along a chain, so a drop means the walk
// has reached an earlier generation's leftovers. Reads go through `read`, so
// the filesystem can retry them and the offline tools can read an image.
class SegmentChain {
 public:
  using Reader = std::function<Status(BlockNo block, uint64_t count, std::span<uint8_t> out)>;

  SegmentChain(const Superblock& sb, SegNo seg, uint32_t start, uint32_t stop, Reader read);

  // Reads the next summary. False once the chain has ended; end() says why
  // and offset() where.
  bool Next();
  // Reads the current partial's payload into the first payload_blocks()
  // blocks of `out` and checks its CRC. A failure ends the chain and returns
  // the read's error or kCorruption.
  Status ReadPayload(std::span<uint8_t> out);

  const SegmentSummary& summary() const { return summary_; }
  // The current partial's summary offset; once ended, where the chain ended.
  uint32_t offset() const { return offset_; }
  // Where the next summary will be read (offset() once ended).
  uint32_t next_offset() const { return next_; }
  BlockNo payload_addr() const { return base_ + offset_ + 1; }
  uint32_t payload_blocks() const { return static_cast<uint32_t>(summary_.entries.size()); }
  ChainEnd end() const { return end_; }
  // Summary blocks read so far, including one that ended the chain.
  uint64_t summaries_read() const { return summaries_read_; }

 private:
  bool End(ChainEnd why) {
    end_ = why;
    next_ = offset_;
    return false;
  }

  BlockNo base_;
  uint32_t block_size_;
  uint32_t stop_;
  Reader read_;
  uint32_t offset_;
  uint32_t next_;
  ChainEnd end_ = ChainEnd::kNone;
  uint64_t summaries_read_ = 0;
  SegmentSummary summary_;
  std::vector<uint8_t> block_;  // the summary block being read
};

// --- directory operation log ---------------------------------------------------

enum class DirOp : uint8_t {
  kCreate = 1,  // create file or directory: add entry, target nlink set
  kLink = 2,    // add entry for existing inode
  kUnlink = 3,  // remove entry (also rmdir)
  kRename = 4,  // atomically move an entry, possibly replacing the target
};

// One record of the directory operation log (Section 4.2). For kRename,
// (dir_ino, name) is the source entry and (dir2_ino, name2) the destination;
// replaced_ino is the inode displaced at the destination (kNilInode if none).
struct DirLogRecord {
  DirOp op = DirOp::kCreate;
  InodeNum dir_ino = kNilInode;
  std::string name;
  InodeNum target_ino = kNilInode;
  uint32_t target_version = 0;
  uint16_t new_nlink = 0;       // target's reference count after the operation
  FileType target_type = FileType::kNone;
  InodeNum dir2_ino = kNilInode;   // rename only
  std::string name2;               // rename only
  InodeNum replaced_ino = kNilInode;  // rename only
  uint32_t replaced_version = 0;      // replaced target's version at log time
  uint16_t replaced_nlink = 0;        // replaced target's count after rename
};

// Encodes the longest prefix of `records` that fits into one dirlog block,
// zero-filling the rest, and returns how many records it took: 0 when the
// first record alone does not fit.
size_t EncodeDirLogBlock(std::span<const DirLogRecord> records, std::span<uint8_t> block);
// Whether a dirlog block of `block_size` bytes can hold `record` at all.
bool DirLogRecordFits(const DirLogRecord& record, uint32_t block_size);
Result<std::vector<DirLogRecord>> DecodeDirLogBlock(std::span<const uint8_t> block);

}  // namespace lfs

#endif  // LFS_LFS_LAYOUT_H_
