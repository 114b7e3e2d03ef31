#include "pdl/well_known.hpp"

#include "pdl/model.hpp"
#include "pdl/query.hpp"

namespace pdl::props {

std::optional<std::uint64_t> memory_capacity_bytes(const MemoryRegion& mr) {
  if (const Property* size = mr.descriptor.find(kSize)) {
    if (auto bytes = size->as_bytes(); bytes && *bytes >= 0) {
      return static_cast<std::uint64_t>(*bytes);
    }
  }
  return std::nullopt;
}

const MemoryRegion* sized_memory_region(const ProcessingUnit& pu) {
  for (const MemoryRegion& mr : pu.memory_regions()) {
    if (memory_capacity_bytes(mr)) return &mr;
  }
  return nullptr;
}

double sustained_gflops(const ProcessingUnit& pu, double peak_fraction,
                        double fallback) {
  if (const Property* p = resolve_property(pu, kMeasuredGflops)) {
    if (auto v = p->as_double()) return *v;
  }
  if (const Property* p = resolve_property(pu, kSustainedGflops)) {
    if (auto v = p->as_double()) return *v;
  }
  if (const Property* p = resolve_property(pu, kPeakGflops)) {
    if (auto v = p->as_double()) return *v * peak_fraction;
  }
  return fallback;
}

std::optional<double> link_bandwidth_gbs(const Interconnect& ic) {
  return ic.descriptor.get_double(kIcBandwidthGBs);
}

std::optional<double> link_latency_us(const Interconnect& ic) {
  return ic.descriptor.get_double(kIcLatencyUs);
}

}  // namespace pdl::props
