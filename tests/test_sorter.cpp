// Tests for the punctuation-driven sorting operator (paper Sections 6.2 and
// 7.5): ordered output, completeness, buffer accounting, and end-to-end
// operation behind a punctuated LLHJ pipeline.
#include <gtest/gtest.h>

#include <vector>

#include "llhj/llhj_pipeline.hpp"
#include "stream/sorter.hpp"

#include "test_util.hpp"

namespace sjoin {
namespace {

using test::Gated;
using test::KeyEq;
using test::MakeRandomTrace;
using test::ReplaySequential;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

ResultMsg<TR, TS> R(Timestamp ts, Seq r_seq, Seq s_seq) {
  ResultMsg<TR, TS> m;
  m.ts = ts;
  m.r_seq = r_seq;
  m.s_seq = s_seq;
  return m;
}

TEST(Sorter, ReleasesOnlyBelowPunctuation) {
  CollectingHandler<TR, TS> out;
  PunctuationSorter<TR, TS> sorter(&out);
  sorter.OnResult(R(5, 0, 0));
  sorter.OnResult(R(3, 1, 0));
  sorter.OnResult(R(8, 2, 0));
  EXPECT_TRUE(out.results().empty());

  sorter.OnPunctuation(6);
  ASSERT_EQ(out.results().size(), 2u);
  EXPECT_EQ(out.results()[0].ts, 3);
  EXPECT_EQ(out.results()[1].ts, 5);
  EXPECT_EQ(sorter.buffered(), 1u);  // ts 8 stays
}

TEST(Sorter, EqualTimestampStaysUntilStrictlyGreaterPunctuation) {
  CollectingHandler<TR, TS> out;
  PunctuationSorter<TR, TS> sorter(&out);
  sorter.OnResult(R(5, 0, 0));
  sorter.OnPunctuation(5);
  EXPECT_TRUE(out.results().empty());  // ts == tp may still get company
  sorter.OnPunctuation(6);
  EXPECT_EQ(out.results().size(), 1u);
}

TEST(Sorter, TieBreaksBySequence) {
  CollectingHandler<TR, TS> out;
  PunctuationSorter<TR, TS> sorter(&out);
  sorter.OnResult(R(5, 2, 1));
  sorter.OnResult(R(5, 1, 9));
  sorter.OnResult(R(5, 1, 2));
  sorter.OnPunctuation(10);
  ASSERT_EQ(out.results().size(), 3u);
  EXPECT_EQ(out.results()[0].r_seq, 1u);
  EXPECT_EQ(out.results()[0].s_seq, 2u);
  EXPECT_EQ(out.results()[1].s_seq, 9u);
  EXPECT_EQ(out.results()[2].r_seq, 2u);
}

TEST(Sorter, FlushReleasesEverythingSorted) {
  CollectingHandler<TR, TS> out;
  PunctuationSorter<TR, TS> sorter(&out);
  sorter.OnResult(R(9, 0, 0));
  sorter.OnResult(R(2, 1, 0));
  sorter.Flush();
  ASSERT_EQ(out.results().size(), 2u);
  EXPECT_EQ(out.results()[0].ts, 2);
  EXPECT_EQ(out.results()[1].ts, 9);
  EXPECT_EQ(sorter.buffered(), 0u);
}

TEST(Sorter, MaxBufferedTracksHighWater) {
  CollectingHandler<TR, TS> out;
  PunctuationSorter<TR, TS> sorter(&out);
  for (int i = 0; i < 10; ++i) sorter.OnResult(R(i, static_cast<Seq>(i), 0));
  EXPECT_EQ(sorter.max_buffered(), 10u);
  sorter.OnPunctuation(100);
  EXPECT_EQ(sorter.max_buffered(), 10u);  // high-water survives release
  EXPECT_EQ(sorter.buffered(), 0u);
}

TEST(Sorter, ForwardsPunctuationsDownstream) {
  CollectingHandler<TR, TS> out;
  PunctuationSorter<TR, TS> sorter(&out);
  sorter.OnPunctuation(4);
  sorter.OnPunctuation(9);
  EXPECT_EQ(out.punctuations(), (std::vector<Timestamp>{4, 9}));
}

TEST(Sorter, EndToEndProducesOrderedCompleteOutput) {
  TraceConfig config;
  config.events = 320;
  config.key_domain = 4;
  config.max_gap_us = 4;
  auto trace = MakeRandomTrace(23, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(70),
                                  WindowSpec::Time(70));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;
  options.channel_capacity = 64;
  options.punctuate = true;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  CollectingHandler<TR, TS> ordered;
  PunctuationSorter<TR, TS> sorter(&ordered);
  ReplaySequential(pipeline, script, &sorter, Gated(pipeline));
  sorter.Flush();

  // Complete (same multiset as the oracle) ...
  EXPECT_TRUE(SameResultSet(oracle, ordered.results()));
  // ... and physically ordered by result timestamp.
  for (std::size_t i = 1; i < ordered.results().size(); ++i) {
    EXPECT_LE(ordered.results()[i - 1].ts, ordered.results()[i].ts)
        << "output out of order at index " << i;
  }
  // With punctuations the buffer stays far below the total result count
  // (Figure 21's point).
  EXPECT_GT(ordered.results().size(), 0u);
  EXPECT_LT(sorter.max_buffered(), ordered.results().size())
      << "punctuations should bound the sort buffer";
}

}  // namespace
}  // namespace sjoin
