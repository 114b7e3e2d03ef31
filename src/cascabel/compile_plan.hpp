// Compilation-plan derivation (paper §IV-C step 4): "the required
// compilation and linking plan is derived from information available in
// the platform description file" — platform-specific compilers (nvcc,
// gcc-spu, xlc, ...) per processing unit, then one link step.
//
// The plan is a data structure plus a Makefile rendering; the toolchain
// does not execute it (it may name compilers the build host lacks, such as
// nvcc), matching the paper's prototype where the user runs the produced
// plan.
#pragma once

#include <string>
#include <vector>

#include "pdl/model.hpp"

namespace cascabel {

struct CompileStep {
  std::string compiler;             ///< e.g. "gcc", "nvcc", "xlc"
  std::vector<std::string> flags;
  std::string source;               ///< input file
  std::string output;               ///< object file
  std::string for_pu;               ///< PU id this step serves
};

struct LinkStep {
  std::string linker;
  std::vector<std::string> inputs;
  std::string output;
  std::vector<std::string> libraries;
};

struct CompilePlan {
  std::vector<CompileStep> steps;
  LinkStep link;

  /// Render as a Makefile.
  std::string to_makefile() const;
};

/// Derive the plan for one generated source file targeting `platform`.
/// The compiler per PU comes from its (upward-inherited) COMPILER property;
/// PUs without one get a default by architecture (x86 -> gcc, gpu -> nvcc,
/// spe -> spu-gcc). Identical (compiler, flags) pairs are merged into one
/// step.
CompilePlan derive_compile_plan(const pdl::Platform& platform,
                                const std::string& generated_source,
                                const std::string& executable_name);

}  // namespace cascabel
