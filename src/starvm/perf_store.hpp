// Persisted per-(codelet, device) performance models.
//
// The engine's EMA calibration cells (perf_model.hpp) evaporate at process
// exit, so every run re-learns what the last one already measured and the
// static layers (cascabel pre-selection, the A5xx capacity analyzer) keep
// reasoning from datasheet GFLOPS. The perf store closes that loop: a
// versioned plain-text snapshot of every calibrated cell, keyed by a hash
// of the PDL-derived device descriptors so a store learned on one platform
// is never applied to another, written atomically (tmp + rename, like the
// Prometheus sink) on engine shutdown and preloaded at engine start.
// A store's device ids index the engine's device list, which for a PDL
// platform is the bridge's driver-core-dedicated list.
//
// The store changes *estimates*, never ordering invariants: deterministic
// replay and starmc exploration stay byte-stable for a fixed store, and a
// missing store is simply a cold start, not an error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "starvm/device.hpp"
#include "starvm/perf_model.hpp"

namespace starvm::perf_store {

/// Bumped whenever the on-disk grammar changes; a mismatch rejects the
/// whole file (fall back to declared rates) rather than guessing.
constexpr int kFormatVersion = 1;

/// One calibrated (codelet, device) cell, exactly as persisted.
struct Entry {
  std::string codelet;
  int device = 0;
  double ema_seconds = 0.0;   ///< smoothed per-task execution time
  std::uint64_t count = 0;    ///< observations behind the EMA
  double ema_gflops = 0.0;    ///< smoothed achieved rate; 0 = never known
};

struct Store {
  /// FNV-1a hash of the canonical device-spec rendering (descriptor_hash).
  /// Rates measured against one set of descriptors are meaningless against
  /// another; loads refuse a store whose hash differs from the engine's.
  std::uint64_t descriptor_hash = 0;
  /// Sorted by (codelet, device) — save() output is byte-stable.
  std::vector<Entry> entries;
};

/// Canonical hash over every property of every device spec that feeds the
/// cost model (name, kind, rates, link, memory, reliability). Same
/// platform -> same hash, any edit to a descriptor -> a cold start.
std::uint64_t descriptor_hash(const std::vector<DeviceSpec>& devices);

enum class LoadStatus {
  kLoaded,      ///< parsed cleanly (and, for load_for, bound)
  kMissing,     ///< no file — a clean cold start, not a rejection
  kBadVersion,  ///< recognizably a perf store, but a different format version
  kCorrupt,     ///< truncated / malformed / not a perf store at all
  kMismatch,    ///< load_for only: learned on a different device list
};

struct LoadResult {
  LoadStatus status = LoadStatus::kMissing;
  Store store;         ///< valid only when status == kLoaded
  std::string detail;  ///< human-readable reason for a rejection
};

/// Parse a store file. Never throws; every failure mode is a status.
LoadResult load(const std::string& path);

/// Parse a store file and bind it to `devices`, the list its ids index:
/// kMismatch when the descriptor hash differs ("descriptor hash mismatch")
/// or a rate row names a device outside the list.
LoadResult load_for(const std::string& path,
                    const std::vector<DeviceSpec>& devices);

/// Render the on-disk text form (also what save() writes).
std::string render_text(const Store& store);

/// Atomically write the store: render to a temp file unique to this call,
/// then rename, so a reader never sees a torn file, even with concurrent
/// savers. False on I/O failure (temp file removed).
bool save(const Store& store, const std::string& path);

/// Snapshot a model's calibrated cells into a store stamped with `hash`.
Store from_model(const PerfModel& model, std::uint64_t hash);

/// Install every entry into the model (overwrites matching cells).
void preload(const Store& store, PerfModel& model);

/// The store path persistence uses: `configured` (EngineConfig or
/// rt::Options perf_store_path, a tool's --perf-store) when set, else the
/// PDL_PERF_STORE environment variable. "" when persistence is off: the
/// chosen value is unset, empty or "0".
std::string resolve_path(const std::string& configured);

}  // namespace starvm::perf_store
