// The task model of Cascabel's annotation language (paper §IV-A).
//
// A *task* is a self-contained unit of work with input/output parameters.
// One task interface (taskidentifier) can have multiple *task
// implementations* (variants) for different platforms, all sharing the
// same functionality and function signature. The *execute* annotation
// marks a call-site and binds it to an execution group of PUs in the
// target PDL plus per-parameter data distributions.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "starvm/types.hpp"

namespace cascabel {

/// Parameter access specifiers (paper: read, write, readwrite).
enum class AccessMode { kRead, kWrite, kReadWrite };

std::optional<AccessMode> access_mode_from_string(std::string_view s);

/// Data distributions referenced by execute annotations (paper: "block,
/// cyclic, block-cyclic, and optional sizes").
enum class DistributionKind { kNone, kBlock, kCyclic, kBlockCyclic };

std::optional<DistributionKind> distribution_from_string(std::string_view s);

/// Byte range in the original source text.
struct SourceRange {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< one past the last byte
  int line = 0;         ///< 1-based line of `begin`
};

/// One entry of a task pragma's parameterlist: "A: readwrite".
struct ParamSpec {
  std::string name;
  AccessMode mode = AccessMode::kRead;
};

/// One entry of an execute pragma's distribution list: "A:BLOCK:N" (vector
/// of extent N) or "C:BLOCK:n:n" (n x n matrix). The paper's grammar allows
/// "optional sizes"; sizes are spliced verbatim into generated code, so
/// they may be any C++ expression valid at the call site.
struct DistributionSpec {
  std::string param;
  DistributionKind kind = DistributionKind::kNone;
  std::vector<std::string> sizes;  ///< 0 (opaque), 1 (vector) or 2 (matrix) extents
};

/// Parsed "#pragma cascabel task : <platforms> : <interface> : <name> : (<params>)".
struct TaskPragma {
  std::vector<std::string> target_platforms;  ///< e.g. {"x86"}, {"cuda","opencl"}
  std::string task_interface;                 ///< taskidentifier, e.g. "Ivecadd"
  std::string variant_name;                   ///< taskname, e.g. "vecadd01"
  std::vector<ParamSpec> params;
  SourceRange range;
};

/// Parsed "#pragma cascabel execute <interface> : <group> (<distributions>)".
struct ExecutePragma {
  std::string task_interface;
  std::string execution_group;  ///< references a LogicGroupAttribute
  std::vector<DistributionSpec> distributions;
  SourceRange range;
};

/// The C/C++ function definition a task pragma annotates.
struct FunctionInfo {
  std::string return_type;
  std::string name;
  std::vector<std::string> param_types;  ///< parallel to param_names
  std::vector<std::string> param_names;
  SourceRange definition;  ///< full definition including the body
  SourceRange body;        ///< between (and including) the braces
};

/// A task implementation variant: pragma + the annotated function.
struct TaskVariant {
  TaskPragma pragma;
  FunctionInfo function;
  std::string source_text;  ///< the function definition's source
  /// Declared numerical-accuracy claim of this implementation (see
  /// starvm::ErrorModel): consumed by the A7xx static analysis and by the
  /// selection-time AccuracyGuard that vetoes faster-but-looser variants.
  starvm::ErrorModel error_model;
};

/// The statement an execute pragma annotates.
struct CallSite {
  ExecutePragma pragma;
  std::string callee;              ///< invoked function name
  std::vector<std::string> args;   ///< argument expressions, textual
  SourceRange statement;           ///< the full call statement incl. ';'
};

}  // namespace cascabel
