#include "xml/writer.hpp"

#include "xml/parser.hpp"

namespace pdl::xml {

namespace {

bool has_element_children(const Element& e) {
  for (const auto& c : e.children()) {
    if (c->is_element()) return true;
  }
  return false;
}

void write_element(std::string& out, const Element& e, const WriteOptions& options,
                   int depth) {
  const std::string indent =
      options.pretty ? std::string(static_cast<std::size_t>(depth) *
                                       static_cast<std::size_t>(options.indent_width),
                                   ' ')
                     : std::string();
  out += indent;
  out += '<';
  out += e.name();
  for (const auto& a : e.attributes()) {
    out += ' ';
    out += a.name;
    out += "=\"";
    out += escape_attribute(a.value);
    out += '"';
  }
  if (e.children().empty()) {
    out += "/>";
    if (options.pretty) out += '\n';
    return;
  }
  out += '>';

  // Mixed/leaf content (text only) stays on one line; element content nests.
  const bool nested = has_element_children(e);
  if (nested && options.pretty) out += '\n';
  for (const auto& c : e.children()) {
    switch (c->kind()) {
      case NodeKind::kElement:
        write_element(out, *c->as_element(), options, depth + 1);
        break;
      case NodeKind::kText:
        if (nested && options.pretty) {
          out += std::string(
              static_cast<std::size_t>(depth + 1) *
                  static_cast<std::size_t>(options.indent_width),
              ' ');
        }
        out += escape_text(c->text());
        if (nested && options.pretty) out += '\n';
        break;
      case NodeKind::kCData:
        out += "<![CDATA[";
        out += c->text();
        out += "]]>";
        if (nested && options.pretty) out += '\n';
        break;
      case NodeKind::kComment:
        if (nested && options.pretty) {
          out += std::string(
              static_cast<std::size_t>(depth + 1) *
                  static_cast<std::size_t>(options.indent_width),
              ' ');
        }
        out += "<!--";
        out += c->text();
        out += "-->";
        if (nested && options.pretty) out += '\n';
        break;
      case NodeKind::kProcInstr:
        out += "<?";
        out += c->text();
        out += "?>";
        if (nested && options.pretty) out += '\n';
        break;
    }
  }
  if (nested && options.pretty) out += indent;
  out += "</";
  out += e.name();
  out += '>';
  if (options.pretty) out += '\n';
}

}  // namespace

std::string write(const Document& doc, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"" + doc.xml_version() + "\" encoding=\"" + doc.encoding() +
           "\"?>";
    if (options.pretty) out += '\n';
  }
  if (doc.root() != nullptr) write_element(out, *doc.root(), options, 0);
  return out;
}

}  // namespace pdl::xml
