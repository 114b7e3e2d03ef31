// Core vocabulary of the starvm heterogeneous runtime (substrate S7, the
// StarPU substitute — see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace starvm {

/// What physically executes tasks.
enum class DeviceKind {
  kCpu,          ///< A host CPU core; executes implementations directly.
  kAccelerator,  ///< A simulated accelerator: executes on the host (for
                 ///< correctness) while time is charged from its model.
};

std::string_view to_string(DeviceKind kind);

/// Buffer access modes — the same contract as the paper's task-annotation
/// access specifiers (read / write / readwrite), used to infer inter-task
/// dependencies (sequential consistency per data handle, like StarPU).
enum class Access { kRead, kWrite, kReadWrite };

inline bool reads(Access a) { return a != Access::kWrite; }
inline bool writes(Access a) { return a != Access::kRead; }

/// How the engine advances time (see DESIGN.md "virtual-time accounting").
enum class ExecutionMode {
  /// Kernels run for real; CPU task cost = measured wall time, accelerator
  /// task cost = model. The default: correct results + modeled makespan.
  kHybrid,
  /// Nothing executes; every cost comes from the models. Used for
  /// paper-scale problem sizes (8192^3 DGEMM) that are too slow to run.
  kPureSim,
  /// The pure-sim discrete-event loop, but kernels DO execute (on the
  /// host, single-threaded, in virtual-clock order) while every cost still
  /// comes from the models. Scheduling, fault injection, and recovery are
  /// bit-for-bit reproducible across runs AND the numerics are real — the
  /// mode the fault-injection harness replays under.
  kDeterministic,
};

enum class SchedulerKind {
  kEager,         ///< Single shared FIFO; first idle capable device wins.
  kWorkStealing,  ///< Per-device deques with stealing.
  kHeft,          ///< Model-based earliest-finish-time (StarPU dmda-like).
};

std::string_view to_string(SchedulerKind kind);

/// Static numerical-accuracy model of one kernel implementation — the
/// contract the A7xx analysis (docs/ANALYSIS.md) and the autotuner's
/// AccuracyGuard consume. A rounding model claims that one execution adds at
/// most
///
///     coefficient * depth * (product of input magnitudes) * epsilon
///
/// of absolute error per output element, where `depth` is the accumulation
/// depth (the k of a GEMM-like kernel) and `epsilon` the unit roundoff of
/// the arithmetic actually used. The mixed-precision DGEMM's documented
/// bound 3·k·max|A|·max|B|·2⁻²⁴ is exactly this form with coefficient 3 and
/// epsilon = kUlpSingle.
struct ErrorModel {
  enum class Kind {
    kUnspecified,  ///< no claim made — analyses treat the output as unbounded
    kExact,        ///< adds no rounding error (copies, permutations, integers)
    kRounding,     ///< bounded by the closed form above
  };

  /// Unit roundoff of IEEE double (2^-53) and single (2^-24) arithmetic.
  static constexpr double kUlpDouble = 0x1p-53;
  static constexpr double kUlpSingle = 0x1p-24;

  Kind kind = Kind::kUnspecified;
  double coefficient = 1.0;  ///< leading constant of the documented bound
  double epsilon = 0.0;      ///< unit roundoff of the arithmetic used
  /// Default accumulation depth when the call site declares none; 0 means
  /// the depth must come from the task (graph `depth=` or guard config).
  double depth = 0.0;

  static ErrorModel exact() {
    ErrorModel m;
    m.kind = Kind::kExact;
    return m;
  }
  static ErrorModel rounding(double coefficient, double epsilon,
                             double depth = 0.0) {
    ErrorModel m;
    m.kind = Kind::kRounding;
    m.coefficient = coefficient;
    m.epsilon = epsilon;
    m.depth = depth;
    return m;
  }

  bool specified() const { return kind != Kind::kUnspecified; }

  /// Worst-case absolute error one execution adds per output element at
  /// accumulation depth `d` and input-magnitude product `magnitude`; 0 for
  /// exact models and (conservatively) 0 for unspecified ones — callers
  /// must check specified() before trusting the number.
  double term(double d, double magnitude) const {
    if (kind != Kind::kRounding) return 0.0;
    return coefficient * d * magnitude * epsilon;
  }
};

using DeviceId = int;
using MemoryNodeId = int;
using TaskId = std::uint64_t;

/// The host memory node; CPU devices always live here.
inline constexpr MemoryNodeId kHostNode = 0;

}  // namespace starvm
