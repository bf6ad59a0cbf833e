// Quickstart: join two small streams with the low-latency handshake join
// through the public JoinSession API.
//
//   $ ./quickstart
//
// Demonstrates: configuring windows, pushing tuples, polling results.
#include <cstdio>

#include "core/join_session.hpp"

using namespace sjoin;

namespace {

// Two toy schemas: page views and ad clicks, joined on user id.
struct PageView {
  int user = 0;
  int page = 0;
};

struct AdClick {
  int user = 0;
  int ad = 0;
};

struct SameUser {
  bool operator()(const PageView& v, const AdClick& c) const {
    return v.user == c.user;
  }
};

}  // namespace

int main() {
  // Collect joined results (and punctuations, if enabled) in memory.
  CollectingHandler<PageView, AdClick> results;

  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;  // the paper's contribution
  config.parallelism = 4;                     // pipeline nodes
  config.window_r = WindowSpec::Time(5'000'000);  // last 5 s of page views
  config.window_s = WindowSpec::Time(5'000'000);  // last 5 s of ad clicks
  config.threaded = false;  // advance on this thread; flip for real threads

  JoinSession<PageView, AdClick, SameUser> join(config);
  join.AddQuery(SameUser{}, &results);

  // Interleaved stream: timestamps in microseconds, non-decreasing.
  join.PushR(PageView{/*user=*/1, /*page=*/10}, 0);
  join.PushR(PageView{2, 20}, 100'000);
  join.PushS(AdClick{1, 7}, 200'000);         // joins with user 1's view
  join.PushR(PageView{3, 30}, 300'000);
  join.PushS(AdClick{2, 9}, 400'000);         // joins with user 2's view
  join.PushS(AdClick{4, 5}, 500'000);         // no matching view
  join.PushR(PageView{1, 11}, 6'000'000);     // user 1 again, but the click
                                              // at t=0.2s has expired by now

  join.FinishInput();

  std::printf("joined %zu (view, click) pairs:\n", results.results().size());
  for (const auto& m : results.results()) {
    std::printf("  user %d: page %d ~ ad %d   (ts %lld us, view#%llu "
                "click#%llu)\n",
                m.r.user, m.r.page, m.s.ad, static_cast<long long>(m.ts),
                static_cast<unsigned long long>(m.r_seq),
                static_cast<unsigned long long>(m.s_seq));
  }
  return 0;
}
