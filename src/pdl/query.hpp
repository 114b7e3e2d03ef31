// The "simple query API" the case study builds Cascabel on (paper §IV):
// navigation, lookup and data-path derivation over a parsed Platform.
//
// The paper positions the PDL as a namespace for platform information that
// complements hwloc / OpenCL platform queries; this header is that query
// surface for C++ tools (compilers, auto-tuners, schedulers).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pdl/model.hpp"

namespace pdl {

// --- Traversal --------------------------------------------------------------

/// Every PU of the platform in pre-order (masters in declaration order).
std::vector<const ProcessingUnit*> all_pus(const Platform& platform);

/// Every PU in the subtree rooted at `pu` (pre-order, including `pu`).
std::vector<const ProcessingUnit*> subtree(const ProcessingUnit& pu);

/// Visit every PU; stop early when the visitor returns false.
void visit(const Platform& platform,
           const std::function<bool(const ProcessingUnit&)>& visitor);

// --- Lookup -----------------------------------------------------------------

/// PU by id anywhere in the platform; nullptr when absent.
const ProcessingUnit* find_pu(const Platform& platform, std::string_view id);

/// All PUs of a kind.
std::vector<const ProcessingUnit*> pus_of_kind(const Platform& platform, PuKind kind);

/// All PUs whose descriptor has property `name` equal to `value`
/// (case-insensitive on the value, matching how architectures are written).
std::vector<const ProcessingUnit*> pus_with_property(const Platform& platform,
                                                     std::string_view name,
                                                     std::string_view value);

/// All PUs that belong to the given logic group (LogicGroupAttribute).
std::vector<const ProcessingUnit*> group_members(const Platform& platform,
                                                 std::string_view group);

/// All logic group names declared anywhere in the platform (deduplicated).
std::vector<std::string> logic_groups(const Platform& platform);

// --- Derived metrics ----------------------------------------------------------

/// Sum of quantities of Worker PUs in the subtree (the paper's PUs stand
/// for `quantity` identical units).
int worker_count(const ProcessingUnit& pu);
int worker_count(const Platform& platform);

/// Total PU count (sum of quantities over all nodes).
int total_pu_count(const Platform& platform);

/// Maximum control-hierarchy depth (Master = depth 0; empty platform = -1).
int hierarchy_depth(const Platform& platform);

// --- Property resolution ------------------------------------------------------

/// Property lookup with upward inheritance: the PU's own descriptor first,
/// then each ancestor's. Models "workers inherit their controller's
/// environment" (e.g. COMPILER set once on the Master).
const Property* resolve_property(const ProcessingUnit& pu, std::string_view name);

/// Resolved value or "" — convenience over resolve_property.
std::string resolved_value(const ProcessingUnit& pu, std::string_view name);

// --- Data paths (paper §IV-C step 3) -------------------------------------------

/// One hop of a derived transfer route.
struct DataPathHop {
  const ProcessingUnit* from = nullptr;
  const ProcessingUnit* to = nullptr;
  const Interconnect* interconnect = nullptr;  ///< nullptr = implicit control link.
};

/// Derive the data path between two PUs: prefer an explicitly declared
/// Interconnect chain; fall back to routing along the control hierarchy
/// (up from `from` to the common ancestor, then down to `to`). Empty when
/// the PUs belong to different masters with no interconnect between them.
std::vector<DataPathHop> data_path(const Platform& platform, std::string_view from_id,
                                   std::string_view to_id);

/// The explicit interconnect between two PU ids, if any is declared
/// (searched in both directions).
const Interconnect* find_interconnect(const Platform& platform, std::string_view from_id,
                                      std::string_view to_id);

/// All interconnects declared anywhere in the platform.
std::vector<const Interconnect*> all_interconnects(const Platform& platform);

/// Control-link defaults: the parameters of a link with no Interconnect, or
/// whose Interconnect omits BANDWIDTH_GB_S / LATENCY_US.
constexpr double kControlLinkBandwidthGbs = 10.0;
constexpr double kControlLinkLatencyUs = 1.0;

/// Modeled time [s] to move `bytes` along a derived data path, summing
/// latency + bytes/bandwidth per hop from the ICDescriptors
/// (BANDWIDTH_GB_S, LATENCY_US). Hops without an explicit interconnect —
/// control links — use `default_bandwidth_gbs` / `default_latency_us`.
/// Returns nullopt for an empty path (unconnected PUs).
std::optional<double> data_path_seconds(
    const Platform& platform, std::string_view from_id, std::string_view to_id,
    std::size_t bytes, double default_bandwidth_gbs = kControlLinkBandwidthGbs,
    double default_latency_us = kControlLinkLatencyUs);

}  // namespace pdl
