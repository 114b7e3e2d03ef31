// Canonical property names used across the toolchain.
//
// The PDL itself is an open key/value space (paper §III-B); these constants
// are the vocabulary our tools (discovery, Cascabel, starvm bridge) agree
// on, mirroring the names used in the paper's listings.
#pragma once

#include <cstdint>
#include <optional>

namespace pdl {
struct Interconnect;
struct MemoryRegion;
class ProcessingUnit;
}  // namespace pdl

namespace pdl::props {

// --- Base PU properties (paper Listing 1) ---------------------------------
inline constexpr const char* kArchitecture = "ARCHITECTURE";  // "x86", "gpu", "spe", ...
inline constexpr const char* kVendor = "VENDOR";
inline constexpr const char* kModel = "MODEL";
inline constexpr const char* kCores = "CORES";                    // physical cores in this PU
inline constexpr const char* kFrequencyMhz = "FREQUENCY_MHZ";
inline constexpr const char* kPeakGflops = "PEAK_GFLOPS";         // double-precision peak
inline constexpr const char* kSustainedGflops = "SUSTAINED_GFLOPS";  // measured/modeled DGEMM rate
inline constexpr const char* kMeasuredGflops = "MEASURED_GFLOPS";    // runtime feedback (unfixed)
inline constexpr const char* kCompiler = "COMPILER";              // toolchain for this PU
inline constexpr const char* kRuntimeLibrary = "RUNTIME_LIBRARY"; // e.g. "starvm", "starpu"

// --- Accuracy properties (optional, any PU; inherited downward) -----------
// Unit roundoff of the PU's native arithmetic (2^-53 for IEEE double,
// 2^-24 for single). The A7xx analysis floors every rounding model's
// epsilon to the platform's largest declared ACCURACY — a program bound
// for an fp32-native accelerator is bounded by fp32 arithmetic no matter
// what its kernels claim.
inline constexpr const char* kAccuracy = "ACCURACY";

// --- Reliability properties (optional, any PU; inherited downward) --------
inline constexpr const char* kMaxRetries = "MAX_RETRIES";  // retry budget for tasks failing on this PU
inline constexpr const char* kMtbfHours = "MTBF_HOURS";    // declared mean time between failures

// --- MemoryRegion properties ----------------------------------------------
inline constexpr const char* kSize = "SIZE";            // value + unit attribute
inline constexpr const char* kBandwidthGBs = "BANDWIDTH_GB_S";
inline constexpr const char* kLatencyNs = "LATENCY_NS";
inline constexpr const char* kShared = "SHARED";        // "true"/"false"

// --- Interconnect properties ----------------------------------------------
inline constexpr const char* kIcBandwidthGBs = "BANDWIDTH_GB_S";
inline constexpr const char* kIcLatencyUs = "LATENCY_US";

// --- OpenCL extension subschema (paper Listing 2, namespace "ocl") --------
inline constexpr const char* kOclNamespace = "ocl";
inline constexpr const char* kOclPropertyType = "ocl:oclDevicePropertyType";
inline constexpr const char* kOclDeviceName = "DEVICE_NAME";
inline constexpr const char* kOclMaxComputeUnits = "MAX_COMPUTE_UNITS";
inline constexpr const char* kOclMaxWorkItemDimensions = "MAX_WORK_ITEM_DIMENSIONS";
inline constexpr const char* kOclGlobalMemSize = "GLOBAL_MEM_SIZE";
inline constexpr const char* kOclLocalMemSize = "LOCAL_MEM_SIZE";
inline constexpr const char* kOclMaxClockFrequency = "MAX_CLOCK_FREQUENCY";

// --- CUDA extension subschema (namespace "cuda") ---------------------------
inline constexpr const char* kCudaNamespace = "cuda";
inline constexpr const char* kCudaPropertyType = "cuda:cudaDevicePropertyType";
inline constexpr const char* kCudaComputeCapability = "COMPUTE_CAPABILITY";
inline constexpr const char* kCudaMultiprocessors = "MULTIPROCESSOR_COUNT";

// --- Cell B.E. extension subschema (namespace "cell") ----------------------
inline constexpr const char* kCellNamespace = "cell";
inline constexpr const char* kCellPropertyType = "cell:cellPUPropertyType";
inline constexpr const char* kCellLocalStoreSize = "LOCAL_STORE_SIZE";

// --- Architecture values ----------------------------------------------------
inline constexpr const char* kArchX86 = "x86";
inline constexpr const char* kArchGpu = "gpu";
inline constexpr const char* kArchSpe = "spe";   // Cell synergistic PU
inline constexpr const char* kArchPpe = "ppe";   // Cell power PU

// --- Typed accessors ---------------------------------------------------------
// One implementation of the lookup conventions every consumer (starvm bridge,
// capacity analyzer, Cascabel) previously re-derived by hand.

/// Declared capacity of a MemoryRegion: its SIZE property normalized to
/// bytes. nullopt when absent, non-numeric, or the unit is unknown.
std::optional<std::uint64_t> memory_capacity_bytes(const MemoryRegion& mr);

/// A PU's directly attached memory: the first MemoryRegion with a usable
/// SIZE, in declaration order. nullptr when no region declares one.
const MemoryRegion* sized_memory_region(const ProcessingUnit& pu);

/// Effective compute rate of a PU in GFLOP/s with the toolchain-wide
/// precedence: MEASURED_GFLOPS (runtime feedback) beats SUSTAINED_GFLOPS
/// beats PEAK_GFLOPS * `peak_fraction` beats `fallback`. Properties are
/// resolved with upward inheritance (pdl::resolve_property) so rates can
/// be declared once on a controller.
double sustained_gflops(const ProcessingUnit& pu, double peak_fraction,
                        double fallback);

/// BANDWIDTH_GB_S of an Interconnect; nullopt when absent or non-numeric.
std::optional<double> link_bandwidth_gbs(const Interconnect& ic);

/// LATENCY_US of an Interconnect; nullopt when absent or non-numeric.
std::optional<double> link_latency_us(const Interconnect& ic);

}  // namespace pdl::props
