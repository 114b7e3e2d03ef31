#include "xml/parser.hpp"

#include <cctype>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace pdl::xml {

namespace {

bool is_name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

/// UTF-8 encode a code point (PDL values may contain arbitrary text).
void append_utf8(std::string& out, unsigned long cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  util::Result<Document> run() {
    Document doc;
    skip_prolog(doc);
    if (!error_.message.empty()) return error_;
    skip_misc();
    if (at_end()) return fail("document has no root element");
    if (peek() != '<') return fail("expected '<' before root element");
    auto root = parse_element();
    if (!root) return error_;
    doc.set_root(std::move(root));
    skip_misc();
    if (!at_end()) return fail("content after root element");
    return doc;
  }

 private:
  // --- Input primitives ---------------------------------------------------

  bool at_end() const { return pos_ >= text_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  bool match(std::string_view s) const {
    return text_.substr(pos_, s.size()) == s;
  }
  void advance() {
    if (at_end()) return;
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }
  void advance(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) advance();
  }
  void skip_ws() {
    while (!at_end() && is_ws(peek())) advance();
  }

  util::Error fail(std::string message) {
    if (error_.message.empty()) {
      error_ = util::Error{std::move(message),
                           util::location_string(options_.source_name, line_, column_)};
    }
    return error_;
  }

  // --- Grammar ------------------------------------------------------------

  void skip_prolog(Document& doc) {
    skip_ws();
    if (match("<?xml")) {
      // Parse the declaration's version/encoding pseudo-attributes.
      advance(5);
      std::string version = "1.0";
      std::string encoding = "UTF-8";
      while (!at_end() && !match("?>")) {
        skip_ws();
        if (match("?>")) break;
        auto name = parse_name();
        if (name.empty()) {
          fail("malformed XML declaration");
          return;
        }
        skip_ws();
        if (peek() != '=') {
          fail("expected '=' in XML declaration");
          return;
        }
        advance();
        skip_ws();
        auto value = parse_quoted();
        if (!value) return;
        if (name == "version") version = *value;
        if (name == "encoding") encoding = *value;
      }
      if (!match("?>")) {
        fail("unterminated XML declaration");
        return;
      }
      advance(2);
      doc.set_declaration(version, encoding);
    }
  }

  /// Skip whitespace, comments, PIs and DOCTYPE between top-level items.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (match("<!--")) {
        skip_comment();
      } else if (match("<?")) {
        skip_pi();
      } else if (match("<!DOCTYPE")) {
        skip_doctype();
      } else {
        return;
      }
      if (!error_.message.empty()) return;
    }
  }

  void skip_comment() {
    advance(4);  // <!--
    const auto end = text_.find("-->", pos_);
    if (end == std::string_view::npos) {
      fail("unterminated comment");
      return;
    }
    while (pos_ < end) advance();
    advance(3);
  }

  void skip_pi() {
    advance(2);  // <?
    const auto end = text_.find("?>", pos_);
    if (end == std::string_view::npos) {
      fail("unterminated processing instruction");
      return;
    }
    while (pos_ < end) advance();
    advance(2);
  }

  void skip_doctype() {
    // Skip to the matching '>' accounting for an optional internal subset.
    advance(9);  // <!DOCTYPE
    int bracket_depth = 0;
    while (!at_end()) {
      const char c = peek();
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) {
        advance();
        return;
      }
      advance();
    }
    fail("unterminated DOCTYPE");
  }

  std::string parse_name() {
    if (at_end() || !is_name_start(peek())) return {};
    std::string name;
    while (!at_end() && is_name_char(peek())) {
      name += peek();
      advance();
    }
    return name;
  }

  std::optional<std::string> parse_quoted() {
    const char quote = peek();
    if (quote != '"' && quote != '\'') {
      fail("expected quoted value");
      return std::nullopt;
    }
    advance();
    std::string raw;
    while (!at_end() && peek() != quote) {
      if (peek() == '<') {
        fail("'<' not allowed in attribute value");
        return std::nullopt;
      }
      raw += peek();
      advance();
    }
    if (at_end()) {
      fail("unterminated attribute value");
      return std::nullopt;
    }
    advance();  // closing quote
    auto decoded = decode_entities(raw);
    if (!decoded) {
      fail(decoded.error().message);
      return std::nullopt;
    }
    return std::move(decoded).value();
  }

  std::unique_ptr<Element> parse_element() {
    const SourcePos open_pos{line_, column_};
    advance();  // '<'
    auto name = parse_name();
    if (name.empty()) {
      fail("expected element name");
      return nullptr;
    }
    ++elements_parsed_;
    auto element = std::make_unique<Element>(name);
    element->set_pos(open_pos);

    // Attributes.
    while (true) {
      skip_ws();
      if (at_end()) {
        fail("unterminated start tag for <" + name + ">");
        return nullptr;
      }
      if (peek() == '>' || match("/>")) break;
      auto attr_name = parse_name();
      if (attr_name.empty()) {
        fail("expected attribute name in <" + name + ">");
        return nullptr;
      }
      skip_ws();
      if (peek() != '=') {
        fail("expected '=' after attribute '" + attr_name + "'");
        return nullptr;
      }
      advance();
      skip_ws();
      auto value = parse_quoted();
      if (!value) return nullptr;
      if (element->attribute(attr_name)) {
        fail("duplicate attribute '" + attr_name + "' in <" + name + ">");
        return nullptr;
      }
      element->set_attribute(attr_name, *value);
    }

    if (match("/>")) {
      advance(2);
      return element;
    }
    advance();  // '>'

    // Content.
    if (!parse_content(*element, name)) return nullptr;
    return element;
  }

  bool parse_content(Element& element, const std::string& name) {
    std::string pending_text;
    const auto flush_text = [&] {
      if (pending_text.empty()) return true;
      const bool ws_only = util::trim(pending_text).empty();
      if (!ws_only || options_.keep_whitespace_text) {
        auto decoded = decode_entities(pending_text);
        if (!decoded) {
          fail(decoded.error().message);
          return false;
        }
        element.append_text(std::move(decoded).value());
      }
      pending_text.clear();
      return true;
    };

    while (true) {
      if (at_end()) {
        fail("unterminated element <" + name + ">");
        return false;
      }
      if (match("</")) {
        if (!flush_text()) return false;
        advance(2);
        auto close_name = parse_name();
        skip_ws();
        if (peek() != '>') {
          fail("malformed end tag for </" + close_name + ">");
          return false;
        }
        advance();
        if (close_name != name) {
          fail("mismatched end tag: expected </" + name + ">, got </" + close_name + ">");
          return false;
        }
        return true;
      }
      if (match("<!--")) {
        if (!flush_text()) return false;
        const SourcePos cpos{line_, column_};
        const auto begin = pos_ + 4;
        skip_comment();
        if (!error_.message.empty()) return false;
        if (options_.keep_comments) {
          auto node = std::make_unique<Node>(NodeKind::kComment);
          node->set_text(std::string(text_.substr(begin, pos_ - 3 - begin)));
          node->set_pos(cpos);
          element.append(std::move(node));
        }
        continue;
      }
      if (match("<![CDATA[")) {
        if (!flush_text()) return false;
        const SourcePos cpos{line_, column_};
        advance(9);
        const auto end = text_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          fail("unterminated CDATA section");
          return false;
        }
        auto node = std::make_unique<Node>(NodeKind::kCData);
        node->set_text(std::string(text_.substr(pos_, end - pos_)));
        node->set_pos(cpos);
        element.append(std::move(node));
        while (pos_ < end) advance();
        advance(3);
        continue;
      }
      if (match("<?")) {
        if (!flush_text()) return false;
        skip_pi();
        if (!error_.message.empty()) return false;
        continue;
      }
      if (peek() == '<') {
        if (!flush_text()) return false;
        auto child = parse_element();
        if (!child) return false;
        element.append(std::move(child));
        continue;
      }
      pending_text += peek();
      advance();
    }
  }

  std::string_view text_;
  const ParseOptions& options_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  util::Error error_;

 public:
  std::size_t elements_parsed_ = 0;
};

}  // namespace

util::Result<Document> parse(std::string_view text, const ParseOptions& options) {
  obs::Span span("xml.parse", options.source_name);
  static obs::Counter& documents = obs::counter("xml.documents_parsed");
  static obs::Counter& nodes = obs::counter("xml.nodes_parsed");
  static obs::Counter& bytes = obs::counter("xml.bytes_parsed");
  static obs::Counter& errors = obs::counter("xml.parse_errors");
  Parser parser(text, options);
  auto result = parser.run();
  bytes.inc(text.size());
  nodes.inc(parser.elements_parsed_);
  if (result.ok()) {
    documents.inc();
  } else {
    errors.inc();
  }
  return result;
}

util::Result<std::string> decode_entities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c != '&') {
      out += c;
      ++i;
      continue;
    }
    const auto semi = text.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return util::Error{"unterminated entity reference"};
    }
    const std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "amp") {
      out += '&';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      std::string_view digits = entity.substr(1);
      int base = 10;
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) return util::Error{"empty character reference"};
      unsigned long cp = 0;
      for (char d : digits) {
        int v;
        if (d >= '0' && d <= '9') {
          v = d - '0';
        } else if (base == 16 && d >= 'a' && d <= 'f') {
          v = d - 'a' + 10;
        } else if (base == 16 && d >= 'A' && d <= 'F') {
          v = d - 'A' + 10;
        } else {
          return util::Error{"malformed character reference '&" + std::string(entity) + ";'"};
        }
        cp = cp * static_cast<unsigned long>(base) + static_cast<unsigned long>(v);
        if (cp > 0x10FFFF) return util::Error{"character reference out of range"};
      }
      // XML 1.0 forbids U+0000; UTF-16 surrogates (D800–DFFF) are not
      // Unicode scalar values and would encode as invalid UTF-8 that fails
      // to round-trip through the writer.
      if (cp == 0) return util::Error{"character reference to U+0000"};
      if (cp >= 0xD800 && cp <= 0xDFFF) {
        return util::Error{"character reference to UTF-16 surrogate '&" +
                           std::string(entity) + ";'"};
      }
      append_utf8(out, cp);
    } else {
      return util::Error{"unknown entity '&" + std::string(entity) + ";'"};
    }
    i = semi + 1;
  }
  return out;
}

std::string escape_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escape_attribute(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\n': out += "&#10;"; break;
      case '\t': out += "&#9;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace pdl::xml
