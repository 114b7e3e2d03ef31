// XML serialization: Document/Element -> text, with optional pretty-printing.
#pragma once

#include <string>

#include "xml/dom.hpp"

namespace pdl::xml {

struct WriteOptions {
  bool pretty = true;        ///< Indent nested elements, one per line.
  int indent_width = 2;      ///< Spaces per nesting level when pretty.
  bool declaration = true;   ///< Emit <?xml version=... encoding=...?>.
};

/// Serialize a whole document.
std::string write(const Document& doc, const WriteOptions& options = {});

}  // namespace pdl::xml
