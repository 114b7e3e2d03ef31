#include "pdl/model.hpp"

#include "util/string_util.hpp"

namespace pdl {

std::string_view to_string(PuKind kind) {
  switch (kind) {
    case PuKind::kMaster: return "Master";
    case PuKind::kHybrid: return "Hybrid";
    case PuKind::kWorker: return "Worker";
  }
  return "?";
}

std::optional<PuKind> pu_kind_from_string(std::string_view name) {
  if (name == "Master") return PuKind::kMaster;
  if (name == "Hybrid") return PuKind::kHybrid;
  if (name == "Worker") return PuKind::kWorker;
  return std::nullopt;
}

std::optional<std::int64_t> Property::as_int() const { return util::parse_int(value); }

std::optional<double> Property::as_double() const { return util::parse_double(value); }

std::optional<std::int64_t> Property::as_bytes() const {
  auto n = util::parse_int(value);
  if (!n) return std::nullopt;
  if (unit.empty() || util::iequals(unit, "B")) return *n;
  if (util::iequals(unit, "kB") || util::iequals(unit, "KiB")) return *n * 1024;
  if (util::iequals(unit, "MB") || util::iequals(unit, "MiB")) return *n * 1024 * 1024;
  if (util::iequals(unit, "GB") || util::iequals(unit, "GiB")) {
    return *n * 1024 * 1024 * 1024;
  }
  return std::nullopt;
}

const Property* Descriptor::find(std::string_view name) const {
  for (const auto& p : properties_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Property* Descriptor::find(std::string_view name) {
  return const_cast<Property*>(static_cast<const Descriptor*>(this)->find(name));
}

std::string Descriptor::get(std::string_view name) const { return get_or(name, {}); }

std::string Descriptor::get_or(std::string_view name, std::string fallback) const {
  const Property* p = find(name);
  return p != nullptr ? p->value : std::move(fallback);
}

std::optional<double> Descriptor::get_double(std::string_view name) const {
  const Property* p = find(name);
  return p != nullptr ? p->as_double() : std::nullopt;
}

Property& Descriptor::add(std::string name, std::string value) {
  properties_.push_back(Property{std::move(name), std::move(value), {}, true, {}});
  return properties_.back();
}

Property& Descriptor::add(Property property) {
  properties_.push_back(std::move(property));
  return properties_.back();
}

bool ProcessingUnit::in_group(std::string_view group) const {
  for (const auto& g : logic_groups_) {
    if (g == group) return true;
  }
  return false;
}

ProcessingUnit* ProcessingUnit::add_child(std::unique_ptr<ProcessingUnit> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

ProcessingUnit* ProcessingUnit::add_child(PuKind kind, std::string child_id, int quantity) {
  return add_child(std::make_unique<ProcessingUnit>(kind, std::move(child_id), quantity));
}

int ProcessingUnit::depth() const {
  int d = 0;
  for (const ProcessingUnit* p = parent_; p != nullptr; p = p->parent_) ++d;
  return d;
}

std::string ProcessingUnit::path() const {
  if (parent_ == nullptr) return id_;
  return parent_->path() + "/" + id_;
}

ProcessingUnit* Platform::add_master(std::unique_ptr<ProcessingUnit> master) {
  masters_.push_back(std::move(master));
  return masters_.back().get();
}

ProcessingUnit* Platform::add_master(std::string id, int quantity) {
  return add_master(
      std::make_unique<ProcessingUnit>(PuKind::kMaster, std::move(id), quantity));
}

void Platform::declare_namespace(std::string prefix, std::string uri) {
  for (auto& [p, u] : namespaces_) {
    if (p == prefix) {
      u = std::move(uri);
      return;
    }
  }
  namespaces_.emplace_back(std::move(prefix), std::move(uri));
}

std::unique_ptr<ProcessingUnit> clone_pu(const ProcessingUnit& pu) {
  auto copy = std::make_unique<ProcessingUnit>(pu.kind(), pu.id(), pu.quantity());
  copy->descriptor() = pu.descriptor();
  copy->memory_regions() = pu.memory_regions();
  copy->interconnects() = pu.interconnects();
  copy->logic_groups() = pu.logic_groups();
  copy->set_loc(pu.loc());
  for (const auto& child : pu.children()) {
    copy->add_child(clone_pu(*child));
  }
  return copy;
}

Platform Platform::clone() const {
  Platform copy(name_);
  copy.schema_version_ = schema_version_;
  copy.source_name_ = source_name_;
  copy.namespaces_ = namespaces_;
  for (const auto& m : masters_) {
    copy.add_master(clone_pu(*m));
  }
  return copy;
}

}  // namespace pdl
