// Platform patterns and pattern->concrete matching (paper §II, §III-B and
// Figure 2: "Concrete platforms are mapped to generic processing-unit
// hierarchies to support portability").
//
// A pattern is itself a Platform whose PUs constrain rather than describe:
//   * kind must match exactly (Master/Hybrid/Worker);
//   * every *fixed* pattern property must be present with an equal value
//     (case-insensitive) on the concrete PU — resolved with upward
//     inheritance, so "ARCHITECTURE=x86 somewhere above" satisfies it;
//   * *unfixed* pattern properties only require the property to exist on
//     the concrete side (the paper's editable-later semantics);
//   * a pattern PU with quantity q requires concrete children matching it
//     with total quantity >= q;
//   * pattern children must be satisfied by disjoint concrete children;
//     concrete children not mentioned by the pattern are allowed (patterns
//     are minimum requirements, not exact shapes).
//
// Patterns can be written in PDL XML like any platform, or in a compact
// one-line syntax convenient for annotations and tests:
//
//   pattern  := pu
//   pu       := kind [ '(' key '=' value { ',' key '=' value } ')' ]
//                    [ 'x' INT ] [ '[' pu { ',' pu } ']' ]
//   kind     := 'M' | 'H' | 'W'
//
// Examples:
//   "M(ARCHITECTURE=x86)"                       an x86 master, nothing else
//   "M[W(ARCHITECTURE=gpu)x2]"                  a master controlling >=2 GPUs
//   "M(ARCHITECTURE=x86)[H[Wx8],W(ARCHITECTURE=gpu)]"   nested hierarchy
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pdl/model.hpp"
#include "util/result.hpp"

namespace pdl {

/// Parse the compact pattern syntax into a single-master pattern Platform.
util::Result<Platform> parse_pattern(std::string_view text);

/// Render a pattern PU subtree back to the compact syntax (inverse of
/// parse_pattern for a pattern's master; also usable on concrete PUs to get
/// a structural summary).
std::string pattern_to_string(const ProcessingUnit& pu);

/// One pattern-PU -> concrete-PU assignment recorded during matching.
struct MatchBinding {
  const ProcessingUnit* pattern_pu = nullptr;
  const ProcessingUnit* concrete_pu = nullptr;
};

/// Result of a match attempt: success plus the bindings, or the reason the
/// match failed (for tool diagnostics, e.g. "variant rejected because ...").
struct MatchResult {
  bool matched = false;
  std::vector<MatchBinding> bindings;
  std::string reason;  ///< Filled when !matched.

  explicit operator bool() const { return matched; }
};

/// True when `concrete` satisfies `pattern_pu`'s kind and property
/// constraints, ignoring children. Used for static mapping: after a
/// structural match succeeds, tools enumerate *every* PU a variant may run
/// on (the minimal bindings of match() only witness the requirement).
bool pu_satisfies(const ProcessingUnit& pattern_pu, const ProcessingUnit& concrete);

/// Match a pattern platform against a concrete platform: every pattern
/// master must be satisfied by a distinct concrete master.
MatchResult match(const Platform& pattern, const Platform& concrete);

/// Convenience: match a compact-syntax pattern against a platform.
/// Returns false (with reason) on pattern syntax errors too.
MatchResult match(std::string_view compact_pattern, const Platform& concrete);

}  // namespace pdl
