// Structural validation of platform descriptions against the rules of the
// hierarchical machine model (paper §III-A):
//
//   V1  a platform has at least one Master
//   V2  Master PUs appear only at the highest hierarchy level
//   V3  Worker PUs are leaves (carry out work, control nothing)
//   V4  Worker PUs are controlled by a Master or Hybrid (tree position)
//   V5  Hybrid PUs are inner nodes (control at least one Worker/Hybrid)
//   V6  PU ids are unique across the platform
//   V7  quantity >= 1 on every PU
//   V8  Interconnect endpoints reference existing PU ids
//   V9  an Interconnect should connect the declaring PU's scope (warning)
//   V10 MemoryRegion ids are unique across the platform (warning)
//   V11 Property names are non-empty; duplicates in one descriptor warn
//   V12 fixed properties must carry a value (unfixed may be blank)
//
// Violations of V1–V8 are errors; the rest are warnings. The checker never
// throws: PDL files are user input and tools want the full report.
#pragma once

#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"

namespace pdl {

/// Run all structural checks; appends to `diags` and returns !has_errors.
bool validate(const Platform& platform, Diagnostics& diags);

}  // namespace pdl
