#include "runner/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace das::runner {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(full.size()), full.data());
}

TEST(ArgsTest, EqualsForm) {
  const Args args = parse({"--kernel=gaussian-2d", "--gib=24"});
  EXPECT_EQ(args.get("kernel", ""), "gaussian-2d");
  EXPECT_EQ(args.get_int("gib", 0), 24);
}

TEST(ArgsTest, SpaceForm) {
  const Args args = parse({"--nodes", "48"});
  EXPECT_EQ(args.get_int("nodes", 0), 48);
}

TEST(ArgsTest, BareFlagIsTrue) {
  const Args args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(ArgsTest, DefaultsWhenAbsent) {
  const Args args = parse({});
  EXPECT_EQ(args.get("kernel", "flow-routing"), "flow-routing");
  EXPECT_EQ(args.get_int("gib", 6), 6);
  EXPECT_FALSE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.has("kernel"));
}

TEST(ArgsTest, BoolSpellings) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
}

TEST(ArgsTest, UnusedFlagsAreReported) {
  const Args args = parse({"--kernel=x", "--typo=1"});
  EXPECT_EQ(args.get("kernel", ""), "x");
  EXPECT_EQ(args.unused(), "typo");
}

TEST(ArgsTest, AllFlagsTouchedMeansNoUnused) {
  const Args args = parse({"--a=1", "--b=2"});
  (void)args.get_int("a", 0);
  (void)args.get_int("b", 0);
  EXPECT_EQ(args.unused(), "");
}

TEST(ArgsTest, NumbersMustBeWholeTokens) {
  EXPECT_EQ(parse({"--gib=17179869185"}).get_int("gib", 0), 17179869185);
  EXPECT_EQ(parse({"--slowdown=1.5"}).get_double("slowdown", 1.0), 1.5);
  for (const char* value : {"1x", "8.9", "abc", "", "99999999999999999999"}) {
    const Args args = parse({("--n=" + std::string(value)).c_str()});
    try {
      (void)args.get_int("n", 0);
      ADD_FAILURE() << "--n=" << value << " parsed as an integer";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--n=" + std::string(value)),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW((void)parse({"--x=1x"}).get_double("x", 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--x=1e999"}).get_double("x", 0.0),
               std::invalid_argument);
}

TEST(ArgsTest, MalformedArgumentThrows) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

}  // namespace
}  // namespace das::runner
