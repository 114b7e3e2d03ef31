#include "pdl/extension.hpp"

#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "util/string_util.hpp"

namespace pdl {

std::string_view to_string(PropertyValueKind kind) {
  switch (kind) {
    case PropertyValueKind::kString: return "string";
    case PropertyValueKind::kInt: return "int";
    case PropertyValueKind::kDouble: return "double";
    case PropertyValueKind::kSizeBytes: return "size";
    case PropertyValueKind::kBool: return "bool";
  }
  return "?";
}

const PropertyDef* Subschema::find(std::string_view name) const {
  for (const auto& p : properties) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::string Subschema::version_string() const {
  return std::to_string(version_major) + "." + std::to_string(version_minor);
}

SchemaRegistry SchemaRegistry::with_builtins() {
  SchemaRegistry registry;

  // Base vocabulary (prefix-less, applies to untyped properties).
  Subschema base;
  base.prefix = "";
  base.uri = "urn:pdl:base";
  base.type_name = "";
  base.properties = {
      {props::kArchitecture, PropertyValueKind::kString, false, "PU architecture class"},
      {props::kVendor, PropertyValueKind::kString, false, "hardware vendor"},
      {props::kModel, PropertyValueKind::kString, false, "hardware model"},
      {props::kCores, PropertyValueKind::kInt, false, "physical core count"},
      {props::kFrequencyMhz, PropertyValueKind::kInt, false, "clock frequency (MHz)"},
      {props::kPeakGflops, PropertyValueKind::kDouble, false, "DP peak GFLOP/s"},
      {props::kSustainedGflops, PropertyValueKind::kDouble, false,
       "sustained DGEMM GFLOP/s"},
      {props::kMeasuredGflops, PropertyValueKind::kDouble, false,
       "runtime-observed GFLOP/s (feedback)"},
      {props::kCompiler, PropertyValueKind::kString, false, "toolchain for this PU"},
      {props::kRuntimeLibrary, PropertyValueKind::kString, false, "runtime system"},
      {props::kSize, PropertyValueKind::kSizeBytes, true, "memory region size"},
      {props::kBandwidthGBs, PropertyValueKind::kDouble, false, "bandwidth (GB/s)"},
      {props::kLatencyNs, PropertyValueKind::kDouble, false, "latency (ns)"},
      {props::kShared, PropertyValueKind::kBool, false, "region shared between PUs"},
      {props::kAccuracy, PropertyValueKind::kDouble, false,
       "unit roundoff of the PU's native arithmetic"},
      {props::kIcLatencyUs, PropertyValueKind::kDouble, false, "link latency (us)"},
  };
  registry.register_subschema(std::move(base));

  // OpenCL device properties (paper Listing 2).
  Subschema ocl;
  ocl.prefix = props::kOclNamespace;
  ocl.uri = "urn:pdl:ext:opencl";
  ocl.type_name = props::kOclPropertyType;
  ocl.version_major = 1;
  ocl.version_minor = 1;  // OpenCL 1.1, as cited by the paper
  ocl.properties = {
      {props::kOclDeviceName, PropertyValueKind::kString, false, "CL_DEVICE_NAME"},
      {props::kOclMaxComputeUnits, PropertyValueKind::kInt, false,
       "CL_DEVICE_MAX_COMPUTE_UNITS"},
      {props::kOclMaxWorkItemDimensions, PropertyValueKind::kInt, false,
       "CL_DEVICE_MAX_WORK_ITEM_DIMENSIONS"},
      {props::kOclGlobalMemSize, PropertyValueKind::kSizeBytes, true,
       "CL_DEVICE_GLOBAL_MEM_SIZE"},
      {props::kOclLocalMemSize, PropertyValueKind::kSizeBytes, true,
       "CL_DEVICE_LOCAL_MEM_SIZE"},
      {props::kOclMaxClockFrequency, PropertyValueKind::kInt, false,
       "CL_DEVICE_MAX_CLOCK_FREQUENCY (MHz)"},
  };
  registry.register_subschema(std::move(ocl));

  // CUDA device properties (the paper's case study offloads via CUDA).
  Subschema cuda;
  cuda.prefix = props::kCudaNamespace;
  cuda.uri = "urn:pdl:ext:cuda";
  cuda.type_name = props::kCudaPropertyType;
  cuda.version_major = 3;
  cuda.version_minor = 2;  // CUDA Toolkit 3.2, as used by the paper
  cuda.properties = {
      {props::kCudaComputeCapability, PropertyValueKind::kString, false,
       "SM compute capability, e.g. 2.0"},
      {props::kCudaMultiprocessors, PropertyValueKind::kInt, false, "SM count"},
  };
  registry.register_subschema(std::move(cuda));

  // Cell B.E. properties (the paper's motivating heterogeneous platform).
  Subschema cell;
  cell.prefix = props::kCellNamespace;
  cell.uri = "urn:pdl:ext:cell";
  cell.type_name = props::kCellPropertyType;
  cell.properties = {
      {props::kCellLocalStoreSize, PropertyValueKind::kSizeBytes, true,
       "SPE local store size"},
  };
  registry.register_subschema(std::move(cell));

  return registry;
}

bool SchemaRegistry::register_subschema(Subschema subschema) {
  for (auto& existing : subschemas_) {
    if (existing.type_name == subschema.type_name &&
        existing.prefix == subschema.prefix) {
      // Versioning: only same-or-newer versions may replace.
      if (subschema.version_major < existing.version_major ||
          (subschema.version_major == existing.version_major &&
           subschema.version_minor < existing.version_minor)) {
        return false;
      }
      existing = std::move(subschema);
      return true;
    }
  }
  subschemas_.push_back(std::move(subschema));
  return true;
}

const Subschema* SchemaRegistry::find_by_type(std::string_view xsi_type) const {
  for (const auto& s : subschemas_) {
    if (s.type_name == xsi_type) return &s;
  }
  return nullptr;
}

namespace {

void check_property(const SchemaRegistry& registry, const Property& prop,
                    const std::string& where, Diagnostics& diags) {
  const Subschema* schema = nullptr;
  if (prop.xsi_type.empty()) {
    schema = registry.find_by_type("");  // base vocabulary
  } else {
    schema = registry.find_by_type(prop.xsi_type);
    if (schema == nullptr) {
      add_warning(diags,
                  "unknown property subschema '" + prop.xsi_type +
                      "' (tolerated: future platform)",
                  where);
      return;
    }
  }
  if (schema == nullptr) return;

  const PropertyDef* def = schema->find(prop.name);
  if (def == nullptr) {
    // Open vocabulary: unknown names warn only for *extension* schemas,
    // where the subschema claims to enumerate its properties. Base
    // properties are free-form by design (§III-B holistic approach).
    if (!prop.xsi_type.empty()) {
      add_warning(diags,
                  "property '" + prop.name + "' not defined by subschema '" +
                      prop.xsi_type + "' v" + schema->version_string(),
                  where);
    }
    return;
  }

  // Unfixed properties may legitimately be blank (filled in later).
  if (!prop.fixed && prop.value.empty()) return;

  switch (def->kind) {
    case PropertyValueKind::kString:
      break;
    case PropertyValueKind::kInt:
      if (!prop.as_int()) {
        add_error(diags,
                  "property '" + prop.name + "' must be an integer, got '" +
                      prop.value + "'",
                  where);
      }
      break;
    case PropertyValueKind::kDouble:
      if (!prop.as_double()) {
        add_error(diags,
                  "property '" + prop.name + "' must be numeric, got '" + prop.value +
                      "'",
                  where);
      }
      break;
    case PropertyValueKind::kSizeBytes:
      if (!prop.as_bytes()) {
        add_error(diags,
                  "property '" + prop.name + "' must be a size with unit, got '" +
                      prop.value + "' unit '" + prop.unit + "'",
                  where);
      }
      break;
    case PropertyValueKind::kBool:
      if (!util::iequals(prop.value, "true") && !util::iequals(prop.value, "false")) {
        add_error(diags,
                  "property '" + prop.name + "' must be true/false, got '" + prop.value +
                      "'",
                  where);
      }
      break;
  }
  if (def->unit_required && prop.unit.empty()) {
    add_error(diags, "property '" + prop.name + "' requires a unit", where);
  }
}

}  // namespace

bool SchemaRegistry::validate_properties(const Platform& platform,
                                         Diagnostics& diags) const {
  const std::size_t errors_before = count_severity(diags, Severity::kError);
  visit(platform, [&](const ProcessingUnit& pu) {
    const std::string where = pu.path();
    for (const auto& p : pu.descriptor().properties()) {
      check_property(*this, p, where, diags);
    }
    for (const auto& mr : pu.memory_regions()) {
      for (const auto& p : mr.descriptor.properties()) {
        check_property(*this, p, where + "/MR:" + mr.id, diags);
      }
    }
    for (const auto& ic : pu.interconnects()) {
      for (const auto& p : ic.descriptor.properties()) {
        check_property(*this, p, where + "/IC:" + ic.from + "->" + ic.to, diags);
      }
    }
    return true;
  });
  return count_severity(diags, Severity::kError) == errors_before;
}

const SchemaRegistry& builtin_registry() {
  static const SchemaRegistry registry = SchemaRegistry::with_builtins();
  return registry;
}

}  // namespace pdl
