#include "xml/dom.hpp"

#include "util/string_util.hpp"

namespace pdl::xml {

Element* Node::as_element() {
  return is_element() ? static_cast<Element*>(this) : nullptr;
}

std::string_view Element::local_name() const {
  const auto pos = name_.find(':');
  if (pos == std::string::npos) return name_;
  return std::string_view(name_).substr(pos + 1);
}

std::optional<std::string> Element::attribute(std::string_view name) const {
  for (const auto& a : attributes_) {
    if (a.name == name) return a.value;
  }
  return std::nullopt;
}

std::string Element::attribute_or(std::string_view name, std::string fallback) const {
  auto v = attribute(name);
  return v ? *v : std::move(fallback);
}

void Element::set_attribute(std::string_view name, std::string_view value) {
  for (auto& a : attributes_) {
    if (a.name == name) {
      a.value = std::string(value);
      return;
    }
  }
  attributes_.push_back(Attribute{std::string(name), std::string(value)});
}

Node* Element::append(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Element* Element::append_element(std::string name) {
  auto child = std::make_unique<Element>(std::move(name));
  Element* raw = child.get();
  append(std::move(child));
  return raw;
}

Node* Element::append_text(std::string text) {
  auto child = std::make_unique<Node>(NodeKind::kText);
  child->set_text(std::move(text));
  return append(std::move(child));
}

std::vector<const Element*> Element::child_elements(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (const auto* e = c->as_element(); e != nullptr && (name.empty() || e->name() == name)) {
      out.push_back(e);
    }
  }
  return out;
}

std::string Element::text_content() const {
  std::string out;
  for (const auto& c : children_) {
    if (c->kind() == NodeKind::kText || c->kind() == NodeKind::kCData) {
      out += c->text();
    }
  }
  return std::string(util::trim(out));
}

Element* Document::set_root(std::unique_ptr<Element> root) {
  root_ = std::move(root);
  return root_.get();
}

Element* Document::create_root(std::string name) {
  return set_root(std::make_unique<Element>(std::move(name)));
}

}  // namespace pdl::xml
