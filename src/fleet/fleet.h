// Fleet: N independent LFS volumes behind one multi-tenant front door.
//
// This is the first subsystem above the single-mount API: the unit of
// service is no longer "a mounted filesystem" but a fleet of them, each with
// its own disk, cache, and cleaner, serving disjoint tenant namespaces. The
// shape follows LogBase's multi-tenant log-as-data store: tenants are routed
// by namespace to a volume, admission control keeps any one tenant from
// monopolizing its volume's log bandwidth, quotas bound its space, and a
// fleet-level coordinator budgets cleaning across volumes so background
// compaction follows dirtiness instead of whoever asks first.
//
// Every tenant op goes through the same pipeline:
//
//   route (tenant -> volume)  ->  admission (token bucket; kBusy on reject)
//     ->  quota (block/inode budgets; kNoSpace on exhaustion)
//       ->  the volume's LfsFileSystem, under the tenant's namespace root
//
// The front door is synchronous and thread-safe (LfsConfig::concurrent
// tunes a volume for multi-threaded callers); the
// deterministic event-loop scheduler in event_loop.h layers simulated-time
// queueing, backpressure ordering, and latency measurement on top of it.
//
// Quota accounting is by *data blocks* (file contents, block-granular) and
// inodes; metadata overheads (indirect blocks, directories) ride free. That
// is the usual cloud-quota contract — tenants reason about bytes of data —
// and it keeps the charge computable before the op executes.

#ifndef LFS_FLEET_FLEET_H_
#define LFS_FLEET_FLEET_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/tenant.h"
#include "src/fleet/volume.h"
#include "src/obs/metrics.h"

namespace lfs::fleet {

struct FleetConfig {
  std::vector<VolumeConfig> volumes;

  // Fair-share cleaner coordinator: total cleaning passes one round may
  // grant across all volumes, and how strongly foreground pressure (ops
  // routed to a volume since the last round) discounts its share.
  uint32_t clean_passes_per_round = 8;
  double pressure_discount = 1.0 / 256.0;  // score /= 1 + ops * discount

  // Time source for admission-control refill. Defaults to host monotonic
  // time; the deterministic scheduler injects simulated time instead.
  std::function<double()> now_fn;

  // When false, Fleet::Admit skips the token bucket (counters still tick):
  // set by the event-loop scheduler, which reserves admission slots itself
  // in simulated time so waits are modeled instead of rejected.
  bool front_door_admission = true;

  // Fleet-wide fine-grained reclamation override: when true, every volume's
  // LfsConfig gets adaptive cleaning + partial compaction, and (when the
  // rate is nonzero) a cleaner QoS token bucket, applied at Create time on
  // top of whatever the per-volume configs say. Off by default so existing
  // fleets keep their exact per-volume settings.
  bool fine_grained_reclamation = false;
  double cleaner_qos_bytes_per_sec = 0.0;
};

// Uniform fleet: `n` volumes of `bytes` each with the same LfsConfig.
FleetConfig UniformFleetConfig(uint32_t n, uint64_t bytes, const LfsConfig& lfs);

class Fleet {
 public:
  static Result<std::unique_ptr<Fleet>> Create(const FleetConfig& cfg);

  // Registers a tenant and creates its namespace root ("/<name>") on its
  // volume. Fails if the name is taken or the volume index is out of range.
  Status AddTenant(const TenantConfig& cfg);

  TenantState* tenant(std::string_view name);
  FleetVolume* volume(uint32_t index) {
    return index < volumes_.size() ? volumes_[index].get() : nullptr;
  }
  uint32_t num_volumes() const { return static_cast<uint32_t>(volumes_.size()); }
  std::vector<std::string> tenant_names() const;

  // --- tenant operations ---------------------------------------------------------
  //
  // Paths are tenant-relative ("/a/b"); the fleet maps them under the
  // tenant's root on its volume. Admission and quota failures surface as
  // kBusy / kNoSpace without touching the volume.

  Result<InodeNum> Create(std::string_view tenant, std::string_view path);
  Status Mkdir(std::string_view tenant, std::string_view path);
  Status Unlink(std::string_view tenant, std::string_view path);
  Status Rename(std::string_view tenant, std::string_view from, std::string_view to);
  Result<InodeNum> Lookup(std::string_view tenant, std::string_view path);
  Result<FileStat> Stat(std::string_view tenant, InodeNum ino);
  Status WriteAt(std::string_view tenant, InodeNum ino, uint64_t offset,
                 std::span<const uint8_t> data);
  Result<uint64_t> ReadAt(std::string_view tenant, InodeNum ino, uint64_t offset,
                          std::span<uint8_t> out);
  Status Truncate(std::string_view tenant, InodeNum ino, uint64_t new_size);

  // --- lifecycle -----------------------------------------------------------------

  Status SyncAll();     // checkpoint every volume
  Status UnmountAll();  // clean-unmount every volume (media survives)
  Status MountAll();    // remount unmounted volumes

  // --- fair-share cleaning -------------------------------------------------------
  //
  // One coordinator round: score every mounted volume by clean-segment
  // deficit discounted by its recent foreground pressure (drained here),
  // then grant single cleaning passes in score order until the round budget
  // is spent or no volume has a deficit. Volumes at their critical floor
  // always outrank pressure. Returns segments reclaimed fleet-wide.
  uint32_t FairShareCleanRound();

  uint64_t clean_rounds() const { return clean_rounds_.load(); }

  // --- metrics -------------------------------------------------------------------

  // Publishes per-tenant and per-volume counters under
  // "<prefix>tenant.<name>." and "<prefix>volume<i>.".
  void BindMetrics(obs::MetricsRegistry* reg, const std::string& prefix) const;

  double Now() const { return cfg_.now_fn ? cfg_.now_fn() : 0.0; }

 private:
  explicit Fleet(FleetConfig cfg) : cfg_(std::move(cfg)) {}

  struct Routed {
    TenantState* tenant = nullptr;
    FleetVolume* volume = nullptr;
    LfsFileSystem* fs = nullptr;
  };
  // Resolves the tenant and its mounted volume; admission is the caller's
  // job (namespace reads skip it deliberately: Stat/Lookup are index hits).
  Result<Routed> Route(std::string_view tenant);
  // Route + token-bucket admission (kBusy when over rate), bumping the
  // tenant's admitted/rejected counters and the volume's pressure counter.
  Result<Routed> Admit(std::string_view tenant);

  std::string VolumePath(const TenantState& t, std::string_view path) const;

  // Data blocks a file of `bytes` occupies on `fs` (block-granular).
  static uint64_t BlocksFor(const LfsFileSystem* fs, uint64_t bytes);

  FleetConfig cfg_;
  std::vector<std::unique_ptr<FleetVolume>> volumes_;
  // Tenant registry is append-only after setup; the map is stable so
  // TenantState pointers can be held across ops.
  std::map<std::string, std::unique_ptr<TenantState>, std::less<>> tenants_;
  Relaxed<uint64_t> clean_rounds_{0};
  Relaxed<uint64_t> clean_segments_total_{0};
};

}  // namespace lfs::fleet

#endif  // LFS_FLEET_FLEET_H_
