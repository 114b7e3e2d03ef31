// Extension subschemas: the reproduction of the paper's XSD inheritance
// mechanism (§III-B).
//
// The base PDL property is an open key/value pair. Platform-specific
// vocabularies (OpenCL device properties, CUDA device properties, Cell
// local stores, ...) are *subschemas*: a namespace prefix + URI + version
// plus a set of typed property definitions. A Property selects its
// subschema via the xsi:type attribute ("ocl:oclDevicePropertyType") —
// exactly the shape of paper Listing 2.
//
// New subschemas can be registered at runtime by "application programmer,
// tool-developer or even hardware vendors" (paper); the built-in registry
// ships ocl/cuda/cell plus the base vocabulary.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"

namespace pdl {

/// Value type a subschema assigns to a property.
enum class PropertyValueKind {
  kString,
  kInt,
  kDouble,
  kSizeBytes,  ///< integer with a required size unit (B/kB/MB/GB)
  kBool,       ///< "true"/"false"
};

std::string_view to_string(PropertyValueKind kind);

/// One property definition inside a subschema.
struct PropertyDef {
  std::string name;
  PropertyValueKind kind = PropertyValueKind::kString;
  bool unit_required = false;
  std::string doc;  ///< Short description for tooling output.
};

/// A namespaced property vocabulary with versioning (paper: "predefined
/// Descriptor and Property subschemas have unique identification and
/// versioning support provided by the XSD").
struct Subschema {
  std::string prefix;     ///< e.g. "ocl"
  std::string uri;        ///< unique identification
  std::string type_name;  ///< xsi:type value, e.g. "ocl:oclDevicePropertyType"
  int version_major = 1;
  int version_minor = 0;
  std::vector<PropertyDef> properties;

  const PropertyDef* find(std::string_view name) const;
  std::string version_string() const;
};

/// Registry of subschemas. Thread-compatible (register up front, then read).
class SchemaRegistry {
 public:
  /// A registry preloaded with the base vocabulary and the ocl/cuda/cell
  /// subschemas used throughout the paper and this reproduction.
  static SchemaRegistry with_builtins();

  /// Register or replace (same type_name + version) a subschema.
  /// Registering an *older* version than present is rejected (false).
  bool register_subschema(Subschema subschema);

  const Subschema* find_by_type(std::string_view xsi_type) const;
  const std::vector<Subschema>& subschemas() const { return subschemas_; }

  /// Validate every property in the platform against its subschema:
  ///   * unknown xsi_type namespaces -> warning (future platforms tolerated)
  ///   * known subschema, unknown property name -> warning
  ///   * value not parseable as the declared kind -> error
  ///   * missing required unit -> error
  /// Returns !has_errors (counting only newly added diagnostics).
  bool validate_properties(const Platform& platform, Diagnostics& diags) const;

 private:
  std::vector<Subschema> subschemas_;
};

/// The process-wide default registry (with_builtins, constructed lazily).
const SchemaRegistry& builtin_registry();

}  // namespace pdl
