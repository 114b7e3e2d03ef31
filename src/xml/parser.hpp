// Recursive-descent XML parser producing a pdl::xml::Document.
//
// Supports the XML surface PDL documents use: declaration, comments, CDATA,
// processing instructions, DOCTYPE (skipped), namespaced element/attribute
// names, single/double-quoted attributes, the five predefined entities plus
// numeric character references. Errors carry 1-based line/column positions.
#pragma once

#include <string>
#include <string_view>

#include "util/result.hpp"
#include "xml/dom.hpp"

namespace pdl::xml {

struct ParseOptions {
  /// Keep whitespace-only text nodes (default: dropped — PDL is data XML).
  bool keep_whitespace_text = false;
  /// Keep comment nodes in the tree.
  bool keep_comments = false;
  /// Name used in error locations ("<memory>" when parsing from a string).
  std::string source_name = "<memory>";
};

/// Parse a complete document from text.
util::Result<Document> parse(std::string_view text, const ParseOptions& options = {});

/// Decode the predefined entities and numeric character references in `text`.
/// Unknown entities are an error.
util::Result<std::string> decode_entities(std::string_view text);

/// Escape text for use as element content (&, <, >).
std::string escape_text(std::string_view text);

/// Escape text for use inside a double-quoted attribute value.
std::string escape_attribute(std::string_view text);

}  // namespace pdl::xml
