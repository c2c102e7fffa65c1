// The front ends' one flag table: value, switch, custom and positional
// flags, the refusals, per-mode reads and the re-spelled arguments the
// supervisor hands its workers.
#include "src/core/arg_parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mfc {
namespace {

constexpr FlagTable::Modes kOne = 1;
constexpr FlagTable::Modes kTwo = 2;

struct Values {
  size_t count = 0;
  uint64_t seed = 0;
  double rate = 0.0;
  std::string path = "unset";
  bool quiet = false;
  std::vector<std::string> list;
  size_t servers = 0;
};

FlagTable MakeTable(Values* v) {
  FlagTable table({"one", "two"});
  table.Add("<servers>", &v->servers, "positional count");
  table.Add("--count=<N>", &v->count, "a size", kOne);
  table.Add("--seed=<N>", &v->seed, "a 64-bit value");
  table.Add("--rate=<X>", &v->rate, "a double", kTwo);
  table.Add("--path=<path>", &v->path, "a string", kOne);
  table.Add("--quiet", &v->quiet, "a switch");
  table.Add(
      "--list=<a,b>",
      [v](const std::string& text) {
        if (text == "bad") {
          return false;
        }
        v->list.push_back(text);
        return true;
      },
      "a custom parser that accumulates", kTwo);
  return table;
}

bool Parse(FlagTable& table, std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return table.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagTableTest, ParsesValueSwitchCustomAndPositionalFlags) {
  Values v;
  FlagTable table = MakeTable(&v);
  ASSERT_TRUE(Parse(table, {"--count=7", "--seed=18446744073709551615", "--rate=-2.5",
                            "--path=", "--quiet", "--list=a", "12", "--list=b,c"}));
  EXPECT_EQ(v.count, 7u);
  EXPECT_EQ(v.seed, UINT64_MAX);
  EXPECT_DOUBLE_EQ(v.rate, -2.5);
  EXPECT_EQ(v.path, "");
  EXPECT_TRUE(v.quiet);
  EXPECT_EQ(v.list, (std::vector<std::string>{"a", "b,c"}));
  EXPECT_EQ(v.servers, 12u);
  EXPECT_TRUE(table.Given("--quiet"));
  EXPECT_TRUE(table.Given("<servers>"));
  EXPECT_FALSE(table.Given("--nope"));
}

TEST(FlagTableTest, RefusesWhatNoDeclarationReads) {
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"--nope=1"},                     // unknown flag
           {"-c"},                           // unknown short spelling
           {"--count=7x"},                   // trailing garbage
           {"--count=-1"},                   // a sign would wrap
           {"--seed=18446744073709551616"},  // past uint64_t
           {"--rate=nan"},                   // not finite
           {"--rate="},                      // empty number
           {"--quiet=1"},                    // a switch given a value
           {"--count"},                      // a value flag given none
           {"--count", "7"},                 // ... nor as the next argument
           {"1", "2"},                       // one positional too many
           {"--list=bad"},                   // the custom parser's refusal
           {"--help"},
           {"-h"},
       }) {
    Values v;
    FlagTable table = MakeTable(&v);
    EXPECT_FALSE(Parse(table, args)) << args[0];
  }
}

TEST(FlagTableTest, UnreadNamesEveryGivenFlagTheModeDoesNotRead) {
  Values v;
  FlagTable table = MakeTable(&v);
  ASSERT_TRUE(Parse(table, {"--rate=1", "--count=2", "--quiet", "--path=p", "--list=x"}));
  testing::internal::CaptureStderr();
  EXPECT_TRUE(table.Unread(kTwo));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "--count has no effect with two\n--path has no effect with two\n");
  testing::internal::CaptureStderr();
  EXPECT_TRUE(table.Unread(kOne));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "--rate has no effect with one\n--list has no effect with one\n");

  Values w;
  FlagTable quiet_only = MakeTable(&w);
  ASSERT_TRUE(Parse(quiet_only, {"--quiet", "--seed=3", "4"}));
  EXPECT_FALSE(quiet_only.Unread(kOne));
  EXPECT_FALSE(quiet_only.Unread(kTwo));
}

TEST(FlagTableTest, SpelledArgumentsReparseToTheSameValues) {
  Values v;
  FlagTable table = MakeTable(&v);
  ASSERT_TRUE(Parse(table, {"--seed=007", "--count=3", "--list=a", "9", "--rate=0.25",
                            "--list=b,c", "--quiet"}));
  const std::vector<std::string> spelled =
      table.Spelled({"--seed", "--list", "--rate", "--quiet", "<servers>"});
  EXPECT_EQ(spelled, (std::vector<std::string>{"--seed=007", "--list=a", "9", "--rate=0.25",
                                               "--list=b,c", "--quiet"}));
  Values again;
  FlagTable reparsed = MakeTable(&again);
  ASSERT_TRUE(Parse(reparsed, spelled));
  EXPECT_EQ(again.seed, v.seed);
  EXPECT_EQ(again.list, v.list);
  EXPECT_EQ(again.rate, v.rate);
  EXPECT_EQ(again.quiet, v.quiet);
  EXPECT_EQ(again.servers, v.servers);
  EXPECT_EQ(again.count, 0u);  // not asked for
}

}  // namespace
}  // namespace mfc
