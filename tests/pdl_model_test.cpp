#include <gtest/gtest.h>

#include "pdl/model.hpp"
#include "pdl/well_known.hpp"

namespace pdl {
namespace {

TEST(PuKind, StringRoundTrip) {
  EXPECT_EQ(to_string(PuKind::kMaster), "Master");
  EXPECT_EQ(to_string(PuKind::kHybrid), "Hybrid");
  EXPECT_EQ(to_string(PuKind::kWorker), "Worker");
  EXPECT_EQ(pu_kind_from_string("Master"), PuKind::kMaster);
  EXPECT_EQ(pu_kind_from_string("Hybrid"), PuKind::kHybrid);
  EXPECT_EQ(pu_kind_from_string("Worker"), PuKind::kWorker);
  EXPECT_FALSE(pu_kind_from_string("master").has_value());  // case-sensitive
  EXPECT_FALSE(pu_kind_from_string("").has_value());
}

TEST(Property, NumericViews) {
  Property p{.name = "X", .value = "42"};
  EXPECT_EQ(p.as_int(), 42);
  EXPECT_DOUBLE_EQ(p.as_double().value(), 42.0);

  Property f{.name = "Y", .value = "2.5"};
  EXPECT_FALSE(f.as_int().has_value());
  EXPECT_DOUBLE_EQ(f.as_double().value(), 2.5);

  Property s{.name = "Z", .value = "gpu"};
  EXPECT_FALSE(s.as_int().has_value());
  EXPECT_FALSE(s.as_double().has_value());
}

TEST(Property, AsBytesHonorsUnits) {
  Property p{.name = "SIZE", .value = "48", .unit = "kB"};
  EXPECT_EQ(p.as_bytes(), 48 * 1024);
  p.unit = "MB";
  EXPECT_EQ(p.as_bytes(), 48LL * 1024 * 1024);
  p.unit = "GB";
  EXPECT_EQ(p.as_bytes(), 48LL * 1024 * 1024 * 1024);
  p.unit = "B";
  EXPECT_EQ(p.as_bytes(), 48);
  p.unit = "";
  EXPECT_EQ(p.as_bytes(), 48);
  p.unit = "parsec";
  EXPECT_FALSE(p.as_bytes().has_value());
  p.unit = "kB";
  p.value = "lots";
  EXPECT_FALSE(p.as_bytes().has_value());
}

TEST(Descriptor, FindGetSetRemove) {
  Descriptor d;
  EXPECT_TRUE(d.empty());
  d.add("ARCH", "x86");
  d.add("CORES", "8");
  EXPECT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.has("ARCH"));
  EXPECT_EQ(d.get("ARCH"), "x86");
  EXPECT_EQ(d.get("MISSING"), "");
  EXPECT_EQ(d.get_or("MISSING", "dflt"), "dflt");
  EXPECT_EQ(d.find("CORES")->as_int(), 8);
  EXPECT_EQ(d.find("MISSING"), nullptr);

  d.find("ARCH")->value = "gpu";  // edits in place
  EXPECT_EQ(d.get("ARCH"), "gpu");
  EXPECT_EQ(d.size(), 2u);
}

TEST(ProcessingUnit, HierarchyAndPaths) {
  ProcessingUnit master(PuKind::kMaster, "m0");
  ProcessingUnit* hybrid = master.add_child(PuKind::kHybrid, "h0");
  ProcessingUnit* worker = hybrid->add_child(PuKind::kWorker, "w0", 4);

  EXPECT_EQ(master.depth(), 0);
  EXPECT_EQ(hybrid->depth(), 1);
  EXPECT_EQ(worker->depth(), 2);
  EXPECT_EQ(worker->path(), "m0/h0/w0");
  EXPECT_EQ(worker->parent(), hybrid);
  EXPECT_EQ(hybrid->parent(), &master);
  EXPECT_EQ(master.parent(), nullptr);
  EXPECT_TRUE(worker->is_leaf());
  EXPECT_FALSE(master.is_leaf());
  EXPECT_EQ(worker->quantity(), 4);
}

TEST(ProcessingUnit, LogicGroups) {
  ProcessingUnit pu(PuKind::kWorker, "w");
  EXPECT_FALSE(pu.in_group("gpu"));
  pu.logic_groups().push_back("gpu");
  pu.logic_groups().push_back("all");
  EXPECT_TRUE(pu.in_group("gpu"));
  EXPECT_TRUE(pu.in_group("all"));
  EXPECT_FALSE(pu.in_group("cpu"));
}

TEST(Platform, AddMasterAndNamespaces) {
  Platform platform("test");
  platform.add_master("m0");
  platform.add_master("m1", 2);
  EXPECT_EQ(platform.masters().size(), 2u);
  EXPECT_EQ(platform.masters()[1]->quantity(), 2);

  platform.declare_namespace("ocl", "urn:a");
  platform.declare_namespace("ocl", "urn:b");  // replaces
  ASSERT_EQ(platform.namespaces().size(), 1u);
  EXPECT_EQ(platform.namespaces()[0].second, "urn:b");
}

TEST(Platform, CloneIsDeepAndIndependent) {
  Platform platform("orig");
  ProcessingUnit* m = platform.add_master("m0");
  m->descriptor().add(props::kArchitecture, "x86");
  ProcessingUnit* w = m->add_child(PuKind::kWorker, "w0", 8);
  w->logic_groups().push_back("cpu");
  Interconnect ic;
  ic.type = "PCIe";
  ic.from = "m0";
  ic.to = "w0";
  m->interconnects().push_back(ic);

  Platform copy = platform.clone();
  ASSERT_EQ(copy.masters().size(), 1u);
  const ProcessingUnit& cm = *copy.masters()[0];
  EXPECT_EQ(cm.descriptor().get(props::kArchitecture), "x86");
  ASSERT_EQ(cm.children().size(), 1u);
  EXPECT_EQ(cm.children()[0]->quantity(), 8);
  EXPECT_TRUE(cm.children()[0]->in_group("cpu"));
  EXPECT_EQ(cm.interconnects().size(), 1u);
  // Parent links must be rebuilt, not shared.
  EXPECT_EQ(cm.children()[0]->parent(), &cm);

  // Mutating the copy leaves the original untouched.
  copy.masters()[0]->descriptor().find(props::kArchitecture)->value = "arm";
  EXPECT_EQ(platform.masters()[0]->descriptor().get(props::kArchitecture), "x86");
}

}  // namespace
}  // namespace pdl
