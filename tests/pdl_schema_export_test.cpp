#include <gtest/gtest.h>

#include "pdl/schema_export.hpp"
#include "pdl/well_known.hpp"
#include "xml/parser.hpp"

namespace pdl {
namespace {

TEST(SchemaExport, ProducesWellFormedXml) {
  const std::string xsd = export_xsd(builtin_registry());
  auto doc = xml::parse(xsd);
  ASSERT_TRUE(doc.ok()) << doc.error().str();
  EXPECT_EQ(doc.value().root()->local_name(), "schema");
  EXPECT_EQ(doc.value().root()->attribute("xmlns:xs"),
            "http://www.w3.org/2001/XMLSchema");
}

TEST(SchemaExport, DefinesBaseEntities) {
  const std::string xsd = export_xsd(builtin_registry());
  auto doc = xml::parse(xsd);
  ASSERT_TRUE(doc.ok());
  const xml::Element& root = *doc.value().root();

  for (const char* type :
       {"PropertyType", "PUDescriptorType", "MRDescriptorType",
        "ICDescriptorType", "MemoryRegionType", "InterconnectType",
        "PUCommonType", "MasterType", "HybridType", "WorkerType"}) {
    bool found = false;
    for (const auto* e : root.child_elements("xs:complexType")) {
      found |= e->attribute_or("name", "") == type;
    }
    EXPECT_TRUE(found) << type;
  }
  // Both document roots the parser accepts are declared.
  std::vector<std::string> elements;
  for (const auto* e : root.child_elements("xs:element")) {
    elements.push_back(e->attribute_or("name", ""));
  }
  EXPECT_NE(std::find(elements.begin(), elements.end(), "Master"), elements.end());
  EXPECT_NE(std::find(elements.begin(), elements.end(), "Platform"),
            elements.end());
}

TEST(SchemaExport, EmitsSubschemaDerivedTypes) {
  const std::string xsd = export_xsd(builtin_registry());
  // Each registered subschema appears as a derived property type with its
  // version and vocabulary documented.
  EXPECT_NE(xsd.find("oclDevicePropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("cudaDevicePropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("cellPUPropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("urn:pdl:ext:opencl"), std::string::npos);
  EXPECT_NE(xsd.find("v1.1"), std::string::npos);  // OpenCL subschema version
  EXPECT_NE(xsd.find("GLOBAL_MEM_SIZE : size (unit required)"), std::string::npos);
  EXPECT_NE(xsd.find("base=\"pdl:PropertyType\""), std::string::npos);
}

TEST(SchemaExport, ReflectsNewlyRegisteredSubschemas) {
  SchemaRegistry registry = SchemaRegistry::with_builtins();
  Subschema fpga;
  fpga.prefix = "fpga";
  fpga.uri = "urn:vendor:fpga";
  fpga.type_name = "fpga:fpgaPropertyType";
  fpga.version_major = 2;
  fpga.version_minor = 3;
  fpga.properties = {{"LUT_COUNT", PropertyValueKind::kInt, false, "logic cells"}};
  registry.register_subschema(fpga);

  const std::string xsd = export_xsd(registry);
  EXPECT_NE(xsd.find("fpgaPropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("v2.3"), std::string::npos);
  EXPECT_NE(xsd.find("LUT_COUNT : int"), std::string::npos);
}

}  // namespace
}  // namespace pdl
