#include <gtest/gtest.h>

#include "discovery/discovery.hpp"
#include "discovery/presets.hpp"
#include "pdl/extension.hpp"
#include "pdl/well_known.hpp"

namespace pdl {
namespace {

TEST(SchemaRegistry, BuiltinsArePresent) {
  const SchemaRegistry& reg = builtin_registry();
  EXPECT_NE(reg.find_by_type(props::kOclPropertyType), nullptr);
  EXPECT_NE(reg.find_by_type(props::kCudaPropertyType), nullptr);
  EXPECT_NE(reg.find_by_type(props::kCellPropertyType), nullptr);
  EXPECT_NE(reg.find_by_type(""), nullptr);  // base vocabulary
}

TEST(SchemaRegistry, OclSubschemaMatchesPaperListing2) {
  const Subschema* ocl = builtin_registry().find_by_type(props::kOclPropertyType);
  ASSERT_NE(ocl, nullptr);
  EXPECT_EQ(ocl->prefix, "ocl");
  EXPECT_EQ(ocl->version_string(), "1.1");  // OpenCL 1.1, the paper's citation
  for (const char* name :
       {props::kOclDeviceName, props::kOclMaxComputeUnits,
        props::kOclMaxWorkItemDimensions, props::kOclGlobalMemSize,
        props::kOclLocalMemSize}) {
    EXPECT_NE(ocl->find(name), nullptr) << name;
  }
}

TEST(SchemaRegistry, VersioningRejectsDowngrades) {
  SchemaRegistry reg = SchemaRegistry::with_builtins();
  Subschema older;
  older.prefix = "ocl";
  older.type_name = props::kOclPropertyType;
  older.version_major = 1;
  older.version_minor = 0;  // builtin is 1.1
  EXPECT_FALSE(reg.register_subschema(older));

  Subschema newer = older;
  newer.version_major = 2;
  newer.properties.push_back({"NEW_PROP", PropertyValueKind::kInt, false, ""});
  EXPECT_TRUE(reg.register_subschema(newer));
  EXPECT_EQ(reg.find_by_type(props::kOclPropertyType)->version_string(), "2.0");
}

TEST(SchemaRegistry, NewSubschemasCanBeRegistered) {
  // Paper: "New subschemas for novel platforms ... can be provided by
  // application programmer, tool-developer or even hardware vendors."
  SchemaRegistry reg = SchemaRegistry::with_builtins();
  Subschema fpga;
  fpga.prefix = "fpga";
  fpga.uri = "urn:vendor:fpga";
  fpga.type_name = "fpga:fpgaPropertyType";
  fpga.properties = {{"LUT_COUNT", PropertyValueKind::kInt, false, "logic cells"}};
  EXPECT_TRUE(reg.register_subschema(fpga));
  EXPECT_NE(reg.find_by_type("fpga:fpgaPropertyType"), nullptr);
}

Platform platform_with_property(Property prop) {
  Platform p("t");
  p.add_master("m")->descriptor().add(std::move(prop));
  return p;
}

TEST(ValidateProperties, AcceptsDiscoveredGpuWorker) {
  Platform p = discovery::paper_platform_starpu_2gpu();
  Diagnostics diags;
  EXPECT_TRUE(builtin_registry().validate_properties(p, diags));
  EXPECT_FALSE(has_errors(diags));
}

TEST(ValidateProperties, UnknownSubschemaIsToleratedAsWarning) {
  Property prop;
  prop.name = "WEIRD";
  prop.value = "1";
  prop.xsi_type = "future:unknownType";
  Platform p = platform_with_property(prop);
  Diagnostics diags;
  EXPECT_TRUE(builtin_registry().validate_properties(p, diags));
  EXPECT_EQ(count_severity(diags, Severity::kWarning), 1u);
}

TEST(ValidateProperties, UnknownExtensionPropertyWarns) {
  Property prop;
  prop.name = "NOT_IN_OCL";
  prop.value = "1";
  prop.xsi_type = props::kOclPropertyType;
  Platform p = platform_with_property(prop);
  Diagnostics diags;
  EXPECT_TRUE(builtin_registry().validate_properties(p, diags));
  EXPECT_EQ(count_severity(diags, Severity::kWarning), 1u);
}

TEST(ValidateProperties, BasePropertiesAreOpenVocabulary) {
  Property prop;
  prop.name = "MY_CUSTOM_THING";
  prop.value = "whatever";
  Platform p = platform_with_property(prop);
  Diagnostics diags;
  EXPECT_TRUE(builtin_registry().validate_properties(p, diags));
  EXPECT_TRUE(diags.empty());
}

TEST(ValidateProperties, IntTypeMismatchIsError) {
  Property prop;
  prop.name = props::kOclMaxComputeUnits;
  prop.value = "many";
  prop.xsi_type = props::kOclPropertyType;
  Platform p = platform_with_property(prop);
  Diagnostics diags;
  EXPECT_FALSE(builtin_registry().validate_properties(p, diags));
}

TEST(ValidateProperties, SizeWithoutUnitIsError) {
  Property prop;
  prop.name = props::kOclGlobalMemSize;
  prop.value = "1024";
  prop.xsi_type = props::kOclPropertyType;  // unit required
  Platform p = platform_with_property(prop);
  Diagnostics diags;
  EXPECT_FALSE(builtin_registry().validate_properties(p, diags));
}

TEST(ValidateProperties, BoolTypeChecked) {
  Property prop;
  prop.name = props::kShared;
  prop.value = "maybe";
  Platform p = platform_with_property(prop);
  Diagnostics diags;
  EXPECT_FALSE(builtin_registry().validate_properties(p, diags));
}

TEST(ValidateProperties, UnfixedBlankValuesAreAllowed) {
  // Unfixed = "editable by other tools or users" (paper §III-B): blank
  // until instantiated.
  Property prop;
  prop.name = props::kOclMaxComputeUnits;
  prop.fixed = false;
  prop.xsi_type = props::kOclPropertyType;
  Platform p = platform_with_property(prop);
  Diagnostics diags;
  EXPECT_TRUE(builtin_registry().validate_properties(p, diags));
  EXPECT_FALSE(has_errors(diags));
}

TEST(ValidateProperties, ChecksMemoryRegionAndInterconnectDescriptors) {
  Platform p("t");
  ProcessingUnit* m = p.add_master("m");
  MemoryRegion mr;
  mr.id = "ram";
  Property bad;
  bad.name = props::kSize;
  bad.value = "big";
  bad.unit = "kB";
  mr.descriptor.add(bad);
  m->memory_regions().push_back(mr);
  Diagnostics diags;
  EXPECT_FALSE(builtin_registry().validate_properties(p, diags));
}

TEST(PropertyValueKind, ToStringCoversAll) {
  EXPECT_EQ(to_string(PropertyValueKind::kString), "string");
  EXPECT_EQ(to_string(PropertyValueKind::kInt), "int");
  EXPECT_EQ(to_string(PropertyValueKind::kDouble), "double");
  EXPECT_EQ(to_string(PropertyValueKind::kSizeBytes), "size");
  EXPECT_EQ(to_string(PropertyValueKind::kBool), "bool");
}

}  // namespace
}  // namespace pdl
