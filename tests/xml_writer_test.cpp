#include <gtest/gtest.h>

#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace pdl::xml {
namespace {

/// Structural equality of two elements (names, attributes, text, children).
bool structurally_equal(const Element& a, const Element& b) {
  if (a.name() != b.name()) return false;
  if (a.attributes().size() != b.attributes().size()) return false;
  for (const auto& attr : a.attributes()) {
    if (b.attribute(attr.name) != attr.value) return false;
  }
  const auto ac = a.child_elements();
  const auto bc = b.child_elements();
  if (ac.size() != bc.size()) return false;
  for (std::size_t i = 0; i < ac.size(); ++i) {
    if (!structurally_equal(*ac[i], *bc[i])) return false;
  }
  return a.text_content() == b.text_content();
}

TEST(XmlWriter, WritesEmptyElementSelfClosing) {
  Document doc;
  doc.create_root("root");
  WriteOptions options;
  options.declaration = false;
  options.pretty = false;
  EXPECT_EQ(write(doc, options), "<root/>");
}

TEST(XmlWriter, WritesDeclarationByDefault) {
  Document doc;
  doc.create_root("r");
  const std::string text = write(doc);
  EXPECT_NE(text.find("<?xml version=\"1.0\" encoding=\"UTF-8\"?>"), std::string::npos);
}

TEST(XmlWriter, EscapesTextAndAttributes) {
  Document doc;
  Element* root = doc.create_root("r");
  root->set_attribute("a", "x\"<>&y");
  root->append_text("1 < 2 & 3 > 2");
  WriteOptions options;
  options.declaration = false;
  options.pretty = false;
  const std::string text = write(doc, options);
  EXPECT_NE(text.find("a=\"x&quot;&lt;&gt;&amp;y\""), std::string::npos);
  EXPECT_NE(text.find("1 &lt; 2 &amp; 3 &gt; 2"), std::string::npos);
}

TEST(XmlWriter, PrettyPrintsNestedElements) {
  Document doc;
  Element* root = doc.create_root("a");
  root->append_element("b")->append_element("c");
  WriteOptions options;
  options.declaration = false;
  const std::string text = write(doc, options);
  EXPECT_NE(text.find("<a>\n  <b>\n    <c/>\n  </b>\n</a>"), std::string::npos);
}

TEST(XmlWriter, LeafTextStaysInline) {
  Document doc;
  Element* root = doc.create_root("a");
  root->append_element("name")->append_text("value");
  WriteOptions options;
  options.declaration = false;
  const std::string text = write(doc, options);
  EXPECT_NE(text.find("<name>value</name>"), std::string::npos);
}

TEST(XmlWriter, WritesCData) {
  Document doc;
  Element* root = doc.create_root("a");
  auto node = std::make_unique<Node>(NodeKind::kCData);
  node->set_text("<raw>&");
  root->append(std::move(node));
  const std::string text = write(doc, {.pretty = false, .declaration = false});
  EXPECT_EQ(text, "<a><![CDATA[<raw>&]]></a>");
}

TEST(XmlWriter, RoundTripPreservesStructure) {
  const char* kInput = R"(<platform name="p&amp;q" version="1.0">
    <Master id="0" quantity="1">
      <PUDescriptor>
        <Property fixed="true"><name>ARCH</name><value>x86</value></Property>
      </PUDescriptor>
      <Worker id="1"><PUDescriptor/></Worker>
    </Master>
  </platform>)";
  auto first = parse(kInput);
  ASSERT_TRUE(first.ok()) << first.error().str();
  const std::string serialized = write(first.value());
  auto second = parse(serialized);
  ASSERT_TRUE(second.ok()) << second.error().str();
  EXPECT_TRUE(structurally_equal(*first.value().root(), *second.value().root()));
}

TEST(XmlWriter, IndentWidthIsConfigurable) {
  Document doc;
  doc.create_root("a")->append_element("b");
  WriteOptions options;
  options.declaration = false;
  options.indent_width = 4;
  EXPECT_EQ(write(doc, options), "<a>\n    <b/>\n</a>\n");
}

TEST(XmlWriter, CompactModeHasNoWhitespace) {
  Document doc;
  Element* root = doc.create_root("a");
  root->append_element("b")->append_text("t");
  WriteOptions options;
  options.declaration = false;
  options.pretty = false;
  EXPECT_EQ(write(doc, options), "<a><b>t</b></a>");
}

TEST(XmlWriter, AttributeControlCharactersRoundTrip) {
  Document doc;
  doc.create_root("e")->set_attribute("a", "line1\nline2\tend");
  const std::string text = write(doc);
  auto reparsed = parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().str();
  EXPECT_EQ(reparsed.value().root()->attribute("a"), "line1\nline2\tend");
}

TEST(XmlWriter, RoundTripIsIdempotent) {
  const char* kInput = "<a x=\"1\"><b>text</b><c/></a>";
  auto doc = parse(kInput);
  ASSERT_TRUE(doc.ok());
  const std::string once = write(doc.value());
  auto reparsed = parse(once);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(write(reparsed.value()), once);
}

}  // namespace
}  // namespace pdl::xml
