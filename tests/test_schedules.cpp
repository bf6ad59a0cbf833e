// Property suite: both pipelines must produce exactly the oracle's result
// set under adversarial execution schedules — many seeds, pipeline shapes,
// and window types. These are the tests that would catch protocol races
// (missed in-flight crossings, double matches, expiry/relocation races,
// expedition-end misordering).
#include <gtest/gtest.h>

#include <string>

#include "hsj/hsj_pipeline.hpp"
#include "llhj/llhj_pipeline.hpp"

#include "kang_join.hpp"
#include "schedule_fuzzer.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::KeyEq;
using test::MakeRandomTrace;
using test::RunFuzzedSchedule;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

struct FuzzParam {
  int nodes;
  uint64_t seed;
  bool count_windows;
};

std::string FuzzName(const ::testing::TestParamInfo<FuzzParam>& info) {
  std::string name = "n";
  name += std::to_string(info.param.nodes);
  name += "s";
  name += std::to_string(info.param.seed);
  name += info.param.count_windows ? "cnt" : "time";
  return name;
}

DriverScript<TR, TS> FuzzScript(const FuzzParam& param) {
  TraceConfig config;
  config.events = 220;
  config.key_domain = 5;
  config.max_gap_us = 3;
  auto trace = MakeRandomTrace(param.seed * 977 + 13, config);
  if (param.count_windows) {
    return BuildDriverScript(trace, WindowSpec::Count(25),
                             WindowSpec::Count(19));
  }
  return BuildDriverScript(trace, WindowSpec::Time(60), WindowSpec::Time(60));
}

std::vector<FuzzParam> MakeFuzzParams() {
  std::vector<FuzzParam> params;
  for (int nodes : {2, 3, 4, 5}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      params.push_back(FuzzParam{nodes, seed, false});
      params.push_back(FuzzParam{nodes, seed, true});
    }
  }
  return params;
}

class LlhjFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(LlhjFuzz, ExactUnderAdversarialSchedules) {
  const auto param = GetParam();
  auto script = FuzzScript(param);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = param.nodes;
  options.channel_capacity = 64;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  auto fuzzed = RunFuzzedSchedule(pipeline, script, param.seed * 31 + 7);
  EXPECT_TRUE(SameResultSet(oracle, fuzzed.results));
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedules, LlhjFuzz,
                         ::testing::ValuesIn(MakeFuzzParams()), FuzzName);

class HsjFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(HsjFuzz, ExactUnderAdversarialSchedules) {
  const auto param = GetParam();
  auto script = FuzzScript(param);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = param.nodes;
  // Alternate between tiny static segments (tuples relocate constantly,
  // racing against expiries) and the default self-balancing mode.
  options.segment_capacity_r = param.count_windows ? 3 : 0;
  options.segment_capacity_s = options.segment_capacity_r;
  options.channel_capacity = 64;
  HsjPipeline<TR, TS, KeyEq> pipeline(options);

  auto fuzzed = RunFuzzedSchedule(pipeline, script, param.seed * 53 + 11);
  EXPECT_TRUE(SameResultSet(oracle, fuzzed.results));
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedules, HsjFuzz,
                         ::testing::ValuesIn(MakeFuzzParams()), FuzzName);

TEST(ScheduleFuzz, LlhjIndexedStoresUnderSchedules) {
  using RStore = BandStore<TR, TS, test::IndexedEq, StreamSide::kR>;
  using SStore = BandStore<TR, TS, test::IndexedEq, StreamSide::kS>;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FuzzParam param{4, seed, seed % 2 == 0};
    auto script = FuzzScript(param);
    auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

    typename LlhjPipeline<TR, TS, test::IndexedEq, RStore, SStore>::Options
        options;
    options.nodes = 4;
    options.channel_capacity = 64;
    LlhjPipeline<TR, TS, test::IndexedEq, RStore, SStore> pipeline(options);
    auto fuzzed = RunFuzzedSchedule(pipeline, script, seed * 71 + 3);
    EXPECT_TRUE(SameResultSet(oracle, fuzzed.results)) << "seed " << seed;
  }
}

TEST(ScheduleFuzz, HeavySkewStillExact) {
  // Very aggressive starvation (skip probability 0.6, up to 5 rounds).
  FuzzParam param{4, 9, false};
  auto script = FuzzScript(param);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;
  options.channel_capacity = 64;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);
  auto fuzzed = RunFuzzedSchedule(pipeline, script, 1234, 0.6, 5);
  EXPECT_TRUE(SameResultSet(oracle, fuzzed.results));
}

}  // namespace
}  // namespace sjoin
