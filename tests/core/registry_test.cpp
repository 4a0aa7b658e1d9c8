#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hpmm {
namespace {

TEST(Registry, ContainsAllPaperFormulations) {
  const auto& reg = default_registry();
  for (const char* name : {"simple", "simple-ring", "cannon", "cannon-gray",
                           "cannon25d", "fox", "fox-pipe", "berntsen", "dns",
                           "gk", "gk-jh", "gk-fc", "simple-allport",
                           "gk-allport"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("strassen"));
  EXPECT_EQ(reg.names().size(), 14u);
}

TEST(Registry, CountMatchesDesignDoc) {
  // DESIGN.md documents the registered-formulation count next to a
  // machine-readable marker; a new registration must update both. The doc
  // is read from the source tree (HPMM_SOURCE_DIR is set by tests/CMake).
  std::ifstream design(std::string(HPMM_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_TRUE(design.is_open()) << "DESIGN.md not found in source tree";
  std::string line;
  std::optional<std::size_t> documented;
  const std::string marker = "<!-- registry-count:";
  while (std::getline(design, line)) {
    const auto pos = line.find(marker);
    if (pos == std::string::npos) continue;
    documented = static_cast<std::size_t>(
        std::stoul(line.substr(pos + marker.size())));
    break;
  }
  ASSERT_TRUE(documented.has_value())
      << "DESIGN.md lost its '<!-- registry-count: N -->' marker";
  EXPECT_EQ(default_registry().names().size(), *documented)
      << "registry and DESIGN.md disagree on the formulation count";
}

TEST(Registry, ImplementationNamesMatchKeys) {
  const auto& reg = default_registry();
  for (const auto& name : reg.names()) {
    EXPECT_EQ(reg.implementation(name).name(), name);
  }
}

TEST(Registry, ModelNamesMatchKeys) {
  const auto& reg = default_registry();
  MachineParams mp;
  for (const auto& name : reg.names()) {
    // Variants share their base formulation's model.
    if (name == "cannon-gray") {
      EXPECT_EQ(reg.model(name, mp)->name(), "cannon");
    } else if (name == "fox-pipe") {
      EXPECT_EQ(reg.model(name, mp)->name(), "fox");
    } else {
      EXPECT_EQ(reg.model(name, mp)->name(), name);
    }
  }
}

TEST(Registry, SelectableNamesAreTheOnePortHypercubeFormulations) {
  // The selector's candidates, in registry order; their order breaks ties.
  const std::vector<std::string> expected = {
      "simple", "cannon", "cannon25d", "fox", "berntsen", "dns", "gk", "gk-jh"};
  EXPECT_EQ(default_registry().selectable_names(), expected);
}

TEST(Registry, ModelBindsParams) {
  const auto& reg = default_registry();
  MachineParams mp;
  mp.t_s = 123.0;
  const auto model = reg.model("cannon", mp);
  EXPECT_DOUBLE_EQ(model->params().t_s, 123.0);
}

TEST(Registry, UnknownNameThrows) {
  const auto& reg = default_registry();
  EXPECT_THROW(reg.implementation("nope"), PreconditionError);
  EXPECT_THROW(reg.model("nope", MachineParams{}), PreconditionError);
}

TEST(Registry, DefaultRegistryIsSingleton) {
  EXPECT_EQ(&default_registry(), &default_registry());
}

}  // namespace
}  // namespace hpmm
