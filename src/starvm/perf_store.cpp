#include "starvm/perf_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace starvm::perf_store {

namespace {

constexpr char kHeaderPrefix[] = "# starvm perf-store v";

/// %.17g round-trips every double exactly; the canonical spelling keeps
/// both the descriptor hash and save() output byte-stable across runs.
std::string fmt_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

std::uint64_t descriptor_hash(const std::vector<DeviceSpec>& devices) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const DeviceSpec& spec : devices) {
    std::string canon = spec.name;
    canon += '|';
    canon += std::to_string(static_cast<int>(spec.kind));
    canon += '|';
    canon += fmt_double(spec.sustained_gflops);
    canon += '|';
    canon += fmt_double(spec.link_bandwidth_gbs);
    canon += '|';
    canon += fmt_double(spec.link_latency_us);
    canon += '|';
    canon += std::to_string(spec.memory_bytes);
    canon += '|';
    canon += std::to_string(spec.max_retries);
    canon += '|';
    canon += fmt_double(spec.mtbf_hours);
    canon += '\n';
    hash = fnv1a(hash, canon);
  }
  return hash;
}

LoadResult load(const std::string& path) {
  LoadResult result;
  std::ifstream in(path);
  if (!in) {
    result.status = LoadStatus::kMissing;
    result.detail = "no store at '" + path + "'";
    return result;
  }
  std::string line;
  if (!std::getline(in, line)) {
    result.status = LoadStatus::kCorrupt;
    result.detail = "empty file";
    return result;
  }
  if (line.rfind(kHeaderPrefix, 0) != 0) {
    result.status = LoadStatus::kCorrupt;
    result.detail = "not a perf store (bad header)";
    return result;
  }
  if (line != std::string(kHeaderPrefix) + std::to_string(kFormatVersion)) {
    result.status = LoadStatus::kBadVersion;
    result.detail = "unsupported store version ('" + line + "')";
    return result;
  }
  bool saw_platform = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "platform") {
      std::string hex;
      if (!(fields >> hex) || hex.empty()) {
        result.status = LoadStatus::kCorrupt;
        result.detail = "malformed platform line";
        return result;
      }
      char* end = nullptr;
      result.store.descriptor_hash = std::strtoull(hex.c_str(), &end, 16);
      if (end == nullptr || *end != '\0') {
        result.status = LoadStatus::kCorrupt;
        result.detail = "malformed platform hash '" + hex + "'";
        return result;
      }
      saw_platform = true;
    } else if (kind == "rate") {
      Entry entry;
      if (!(fields >> entry.codelet >> entry.device >> entry.ema_seconds >>
            entry.count >> entry.ema_gflops) ||
          entry.device < 0 || entry.device >= PerfModel::kMaxDevices ||
          entry.count == 0 || !(entry.ema_seconds > 0.0)) {
        result.status = LoadStatus::kCorrupt;
        result.detail = "malformed rate line '" + line + "'";
        return result;
      }
      result.store.entries.push_back(std::move(entry));
    } else {
      result.status = LoadStatus::kCorrupt;
      result.detail = "unknown record '" + kind + "'";
      return result;
    }
  }
  if (!saw_platform) {
    result.status = LoadStatus::kCorrupt;
    result.detail = "missing platform line (truncated store?)";
    return result;
  }
  result.status = LoadStatus::kLoaded;
  result.detail.clear();
  return result;
}

LoadResult load_for(const std::string& path,
                    const std::vector<DeviceSpec>& devices) {
  LoadResult result = load(path);
  if (result.status != LoadStatus::kLoaded) return result;
  if (result.store.descriptor_hash != descriptor_hash(devices)) {
    result.status = LoadStatus::kMismatch;
    result.detail = "descriptor hash mismatch";
    return result;
  }
  for (const Entry& entry : result.store.entries) {
    if (static_cast<std::size_t>(entry.device) >= devices.size()) {
      result.status = LoadStatus::kMismatch;
      result.detail = "rate row '" + entry.codelet + "' names device " +
                      std::to_string(entry.device) +
                      ", but the hashed device list has only " +
                      std::to_string(devices.size());
      return result;
    }
  }
  return result;
}

std::string render_text(const Store& store) {
  std::string text = std::string(kHeaderPrefix) +
                     std::to_string(kFormatVersion) + "\n";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(store.descriptor_hash));
  text += "platform ";
  text += hex;
  text += '\n';
  std::vector<const Entry*> ordered;
  ordered.reserve(store.entries.size());
  for (const Entry& entry : store.entries) ordered.push_back(&entry);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Entry* a, const Entry* b) {
                     if (a->codelet != b->codelet) return a->codelet < b->codelet;
                     return a->device < b->device;
                   });
  for (const Entry* entry : ordered) {
    text += "rate ";
    text += entry->codelet;
    text += ' ';
    text += std::to_string(entry->device);
    text += ' ';
    text += fmt_double(entry->ema_seconds);
    text += ' ';
    text += std::to_string(entry->count);
    text += ' ';
    text += fmt_double(entry->ema_gflops);
    text += '\n';
  }
  return text;
}

bool save(const Store& store, const std::string& path) {
  // tmp + rename: a concurrent load() must never see a torn store. The tmp
  // name is unique per process and call, so concurrent savers never write
  // into one file; the last rename wins with a whole store.
  static std::atomic<unsigned> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out << render_text(store);
  out.close();
  if (out.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

Store from_model(const PerfModel& model, std::uint64_t hash) {
  Store store;
  store.descriptor_hash = hash;
  for (const PerfModel::Sample& sample : model.snapshot()) {
    store.entries.push_back(Entry{sample.codelet, sample.device,
                                  sample.ema_seconds, sample.count,
                                  sample.ema_gflops});
  }
  return store;
}

void preload(const Store& store, PerfModel& model) {
  for (const Entry& entry : store.entries) {
    model.preload(entry.codelet, entry.device, entry.ema_seconds, entry.count,
                  entry.ema_gflops);
  }
}

std::string resolve_path(const std::string& configured) {
  std::string path = configured;
  if (path.empty()) {
    const char* env = std::getenv("PDL_PERF_STORE");
    if (env != nullptr) path = env;
  }
  return path == "0" ? "" : path;
}

}  // namespace starvm::perf_store
