#include "pdl/parser.hpp"

#include <limits>
#include <memory>

#include "util/string_util.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"

namespace pdl {

namespace {

/// Shared parse state: the diagnostics sink plus the document name used as
/// the file part of every SourceLoc threaded onto the model.
struct ParseCtx {
  Diagnostics& diags;
  std::string source_name;

  SourceLoc loc_of(const xml::Element& e) const {
    const auto pos = e.pos();
    return SourceLoc{source_name, pos.line, pos.column};
  }

  std::string where_of(const xml::Element& e) const { return "<" + e.name() + ">"; }

  void error(const xml::Element& e, std::string message) {
    add_finding(diags, Severity::kError, {}, std::move(message), loc_of(e),
                where_of(e));
  }
  void warning(const xml::Element& e, std::string message) {
    add_finding(diags, Severity::kWarning, {}, std::move(message), loc_of(e),
                where_of(e));
  }
};

/// Parse a <Property> element (base or extension-typed).
///
/// Base form:      <Property fixed="true"><name>N</name><value>V</value></Property>
/// Extension form: <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
///                   <ocl:name>N</ocl:name><ocl:value unit="kB">V</ocl:value>
///                 </Property>
/// Child names are matched by local name so any extension prefix works.
Property parse_property(const xml::Element& e, ParseCtx& ctx) {
  Property prop;
  prop.fixed = !util::iequals(e.attribute_or("fixed", "true"), "false");
  prop.xsi_type = e.attribute_or("xsi:type", "");
  prop.loc = ctx.loc_of(e);

  const xml::Element* name_el = nullptr;
  const xml::Element* value_el = nullptr;
  for (const auto* child : e.child_elements()) {
    if (child->local_name() == "name") {
      name_el = child;
    } else if (child->local_name() == "value") {
      value_el = child;
    } else {
      ctx.warning(*child, "unknown element <" + child->name() + "> inside <Property>");
    }
  }
  if (name_el == nullptr) {
    ctx.error(e, "<Property> without <name>");
  } else {
    prop.name = name_el->text_content();
  }
  if (value_el != nullptr) {
    prop.value = value_el->text_content();
    prop.unit = value_el->attribute_or("unit", "");
  }
  return prop;
}

/// Parse a *Descriptor element (PUDescriptor / MRDescriptor / ICDescriptor):
/// a sequence of <Property> children.
Descriptor parse_descriptor(const xml::Element& e, ParseCtx& ctx) {
  Descriptor d;
  for (const auto* child : e.child_elements()) {
    if (child->local_name() == "Property") {
      d.add(parse_property(*child, ctx));
    } else {
      ctx.warning(*child, "unknown element <" + child->name() + "> inside <" +
                              e.name() + ">");
    }
  }
  return d;
}

MemoryRegion parse_memory_region(const xml::Element& e, ParseCtx& ctx) {
  MemoryRegion mr;
  mr.id = e.attribute_or("id", "");
  mr.loc = ctx.loc_of(e);
  if (mr.id.empty()) {
    ctx.warning(e, "<MemoryRegion> without id");
  }
  for (const auto* child : e.child_elements()) {
    if (child->local_name() == "MRDescriptor") {
      mr.descriptor = parse_descriptor(*child, ctx);
    } else if (child->local_name() == "Property") {
      // Tolerate properties directly under MemoryRegion.
      mr.descriptor.add(parse_property(*child, ctx));
    } else {
      ctx.warning(*child,
                  "unknown element <" + child->name() + "> inside <MemoryRegion>");
    }
  }
  return mr;
}

Interconnect parse_interconnect(const xml::Element& e, ParseCtx& ctx) {
  Interconnect ic;
  ic.type = e.attribute_or("type", "");
  ic.from = e.attribute_or("from", "");
  ic.to = e.attribute_or("to", "");
  ic.scheme = e.attribute_or("scheme", "");
  ic.loc = ctx.loc_of(e);
  if (ic.from.empty() || ic.to.empty()) {
    ctx.error(e, "<Interconnect> requires 'from' and 'to' PU ids");
  }
  for (const auto* child : e.child_elements()) {
    if (child->local_name() == "ICDescriptor") {
      ic.descriptor = parse_descriptor(*child, ctx);
    } else if (child->local_name() == "Property") {
      ic.descriptor.add(parse_property(*child, ctx));
    } else {
      ctx.warning(*child,
                  "unknown element <" + child->name() + "> inside <Interconnect>");
    }
  }
  return ic;
}

std::unique_ptr<ProcessingUnit> parse_pu(const xml::Element& e, ParseCtx& ctx);

void parse_pu_children(const xml::Element& e, ProcessingUnit& pu, ParseCtx& ctx) {
  for (const auto* child : e.child_elements()) {
    const auto local = child->local_name();
    if (local == "PUDescriptor") {
      pu.descriptor() = parse_descriptor(*child, ctx);
    } else if (local == "MemoryRegion") {
      pu.memory_regions().push_back(parse_memory_region(*child, ctx));
    } else if (local == "Interconnect") {
      pu.interconnects().push_back(parse_interconnect(*child, ctx));
    } else if (local == "LogicGroupAttribute") {
      // Group names can appear as a `group` attribute or as text content;
      // both are normalized to the PU's group list.
      std::string group = child->attribute_or("group", "");
      if (group.empty()) group = child->text_content();
      if (group.empty()) {
        ctx.warning(*child, "<LogicGroupAttribute> without group name");
      } else {
        pu.logic_groups().push_back(group);
      }
    } else if (pu_kind_from_string(std::string(local))) {
      auto sub = parse_pu(*child, ctx);
      if (sub) pu.add_child(std::move(sub));
    } else {
      ctx.warning(*child, "unknown element <" + child->name() + "> inside <" +
                              e.name() + ">");
    }
  }
}

std::unique_ptr<ProcessingUnit> parse_pu(const xml::Element& e, ParseCtx& ctx) {
  auto kind = pu_kind_from_string(std::string(e.local_name()));
  if (!kind) {
    ctx.error(e, "expected Master/Hybrid/Worker, got <" + e.name() + ">");
    return nullptr;
  }
  std::string id = e.attribute_or("id", "");
  if (id.empty()) {
    ctx.error(e, "<" + e.name() + "> without id");
  }
  int quantity = 1;
  if (auto q = e.attribute("quantity")) {
    auto parsed = util::parse_int(*q);
    // Upper bound matters too: parse_int yields int64, and quantity is
    // stored as int — "1e9"-style or absurd values must not wrap on the
    // narrowing cast and silently expand to garbage.
    if (!parsed || *parsed < 1 ||
        *parsed > std::numeric_limits<int>::max()) {
      ctx.error(e, "invalid quantity '" + *q + "' on <" + e.name() +
                       "> (expected an integer >= 1)");
    } else {
      quantity = static_cast<int>(*parsed);
    }
  }
  auto pu = std::make_unique<ProcessingUnit>(*kind, std::move(id), quantity);
  pu->set_loc(ctx.loc_of(e));
  parse_pu_children(e, *pu, ctx);
  return pu;
}

}  // namespace

util::Result<Platform> parse_platform(std::string_view xml_text, Diagnostics& diags,
                                      std::string source_name) {
  xml::ParseOptions xml_options;
  xml_options.source_name = source_name;
  auto doc = xml::parse(xml_text, xml_options);
  if (!doc) return doc.error();
  const xml::Element* root = doc.value().root();
  if (root == nullptr) return util::Error{"empty PDL document"};

  ParseCtx ctx{diags, std::move(source_name)};
  Platform platform;
  platform.set_source_name(ctx.source_name);

  // Collect namespace declarations from the root element.
  for (const auto& attr : root->attributes()) {
    if (util::starts_with(attr.name, "xmlns:")) {
      platform.declare_namespace(attr.name.substr(6), attr.value);
    } else if (attr.name == "xmlns") {
      platform.declare_namespace("", attr.value);
    }
  }

  if (root->local_name() == "Platform") {
    platform.set_name(root->attribute_or("name", ""));
    platform.set_schema_version(root->attribute_or("version", "1.0"));
    for (const auto* child : root->child_elements()) {
      if (child->local_name() == "Master") {
        auto pu = parse_pu(*child, ctx);
        if (pu) platform.add_master(std::move(pu));
      } else if (pu_kind_from_string(std::string(child->local_name()))) {
        ctx.error(*child, "top-level PU must be a Master, got <" + child->name() + ">");
      } else {
        ctx.warning(*child,
                    "unknown element <" + child->name() + "> inside <Platform>");
      }
    }
  } else if (root->local_name() == "Master") {
    // Paper Listing 1: a bare Master as document root.
    auto pu = parse_pu(*root, ctx);
    if (pu) platform.add_master(std::move(pu));
  } else {
    return util::Error{"PDL root must be <Platform> or <Master>, got <" +
                       std::string(root->name()) + ">"};
  }

  if (platform.masters().empty()) {
    add_error(diags, "platform has no Master processing unit");
  }
  return platform;
}

util::Result<Platform> parse_platform(std::string_view xml_text, Diagnostics& diags) {
  return parse_platform(xml_text, diags, "<memory>");
}

util::Result<Platform> parse_platform_file(const std::string& path, Diagnostics& diags) {
  auto contents = util::read_file(path);
  if (!contents) return util::Error{"cannot open file", path};
  return parse_platform(*contents, diags, path);
}

}  // namespace pdl
