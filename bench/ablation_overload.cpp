// Overload-control ablation (DESIGN.md Section 12): throughput, tail
// latency, and shed-rate curves for every OverloadPolicy at 1x / 2x / 10x
// offered load on the paced LLHJ pipeline.
//
// The workload uses TIME windows, so the offered-load multiplier scales
// both the arrival rate and the live window: probe work per second grows
// quadratically with the multiplier, which guarantees the 10x cell
// saturates the pipeline on any host where the 1x cell is comfortable.
//
// Expected shape:
//   * 1x (sub-saturation): zero sheds and zero anomalies under EVERY
//     policy — admission control must be inert when the budget is met;
//   * 10x with `none`: bounded queues backpressure the paced driver and
//     result latency grows without bound (p99 far past the budget);
//   * 10x with `drop_newest` / `sample`: the controller sheds at ingest
//     and p99 stays near the configured budget;
//   * every cell: in-band loss accounting is exact (sheds == losses
//     reported via kLossPunctuation, per side).
//
// --assert=1 turns the sub-saturation and accounting expectations into
// hard failures (exit 1); --assert_tail=1 additionally enforces the 10x
// tail separation (needs the full duration to saturate — the CI leg).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

struct Cell {
  std::string policy;
  double load = 1.0;
  RunStats stats;
};

int g_failures = 0;

void Check(bool ok, const char* what, const Cell& cell) {
  if (ok) return;
  ++g_failures;
  std::printf("ASSERT FAILED [%s @ %.0fx]: %s\n", cell.policy.c_str(),
              cell.load, what);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double window_s = flags.Double("window", 8.0);
  const double base_rate = flags.Double("base_rate", 2000.0);
  const int nodes = static_cast<int>(flags.Int("nodes", 2));
  const int batch = static_cast<int>(flags.Int("batch", 64));
  const double duration = flags.Double("duration", 6.0);
  const double budget_ms = flags.Double("budget_ms", 100.0);
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const bool do_assert = flags.Bool("assert", false);
  const bool assert_tail = flags.Bool("assert_tail", false);
  // p99 "within budget" allows slack for control lag: admission is a
  // feedback loop with no egress deadline, so admitted tuples can overshoot
  // by the loop's settling time (the latency EWMA trails reality by one
  // end-to-end delay, and the per-message service cost keeps growing as the
  // time windows fill). `sample` additionally keeps 1-in-N over-budget
  // tuples BY DESIGN, so it oscillates around the budget rather than under
  // it. The assertion's point is containment — p99 pinned to the budget's
  // scale — versus the baseline's unbounded growth (>20x budget here).
  const double slack = flags.Double("p99_slack", 2.0);

  PrintHeader("ablation_overload — latency-budget shedding vs backpressure",
              "DESIGN.md Section 12 (overload control)");
  std::printf("windows %.0f s (time), base rate %.0f/s/stream, %d nodes, "
              "batch %d, budget %.0f ms, %.1f s per cell\n",
              window_s, base_rate, nodes, batch, budget_ms, duration);

  const std::vector<std::string> policies = {"none", "drop_newest",
                                             "sample"};
  const std::vector<double> loads = {1.0, 2.0, 10.0};

  JsonEmitter json(flags, "ablation_overload");
  std::vector<Cell> cells;
  std::printf("\n  %-12s %5s  %10s  %9s  %9s  %9s  %7s  %7s\n", "policy",
              "load", "tput/s", "p50(ms)", "p99(ms)", "max(ms)", "shed",
              "lost");
  for (const auto& policy_name : policies) {
    for (double load : loads) {
      Workload workload;
      workload.wr = WindowSpec::Time(static_cast<int64_t>(window_s * 1e6));
      workload.ws = WindowSpec::Time(static_cast<int64_t>(window_s * 1e6));
      workload.rate_per_stream = base_rate * load;
      workload.paced = true;
      workload.seed = seed;

      Cell cell;
      cell.policy = policy_name;
      cell.load = load;
      cell.stats = RunLlhjBench(nodes, workload, batch, duration,
                                /*punctuate=*/true, /*sort_output=*/false,
                                static_cast<int64_t>(budget_ms * 1e3),
                                ParseOverloadPolicy(policy_name));
      const RunStats& s = cell.stats;
      std::printf("  %-12s %4.0fx  %10.0f  %9.3f  %9.3f  %9.3f  %7llu  "
                  "%7llu\n",
                  policy_name.c_str(), load, s.throughput_per_stream(),
                  s.latency_hist.QuantileMs(0.50),
                  s.latency_hist.QuantileMs(0.99), s.latency_ms.max(),
                  static_cast<unsigned long long>(s.shed_r + s.shed_s),
                  static_cast<unsigned long long>(s.lost_reported_r +
                                                  s.lost_reported_s));

      JsonRow row;
      row.Str("policy", policy_name)
          .Num("load_multiplier", load)
          .Num("rate_per_stream", workload.rate_per_stream)
          .Num("window_s", window_s)
          .Int("nodes", nodes)
          .Int("batch", batch)
          .Num("budget_ms", budget_ms);
      json.Emit(OverloadFields(StatsFields(row, s), s));
      cells.push_back(std::move(cell));
    }
  }

  if (do_assert) {
    for (const Cell& cell : cells) {
      const RunStats& s = cell.stats;
      // Exact in-band loss accounting, every cell: sheds at ingest ==
      // losses reported through kLossPunctuation, per side.
      Check(s.shed_r == s.lost_reported_r, "shed_r != lost_reported_r", cell);
      Check(s.shed_s == s.lost_reported_s, "shed_s != lost_reported_s", cell);
      Check(s.anomalies == 0, "pipeline anomalies", cell);
      Check(s.results > 0, "no results collected", cell);
      // Sub-saturation: admission control must be inert under every policy.
      if (cell.load <= 1.0) {
        Check(s.shed_r + s.shed_s == 0, "sheds at sub-saturation load", cell);
      }
    }
  }
  if (assert_tail) {
    for (const Cell& cell : cells) {
      if (cell.load < 10.0) continue;
      const double p99 = cell.stats.latency_hist.QuantileMs(0.99);
      if (cell.policy == "none") {
        Check(p99 > budget_ms,
              "baseline backpressure p99 did not exceed the budget "
              "(10x load failed to saturate this host?)",
              cell);
      } else if (cell.policy == "drop_newest" || cell.policy == "sample") {
        Check(p99 <= budget_ms * slack, "shedding p99 exceeds budget*slack",
              cell);
        Check(cell.stats.shed_r + cell.stats.shed_s > 0,
              "no sheds at 10x overload", cell);
      }
    }
  }
  if (g_failures > 0) {
    std::printf("\n%d assertion(s) failed\n", g_failures);
    return 1;
  }
  if (do_assert || assert_tail) std::printf("\nall assertions passed\n");
  return 0;
}
