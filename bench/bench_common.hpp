// Shared benchmark harness: flag parsing, the paper's band-join workload,
// and a session runner that measures throughput and latency the way the
// paper does (Section 7.1):
//
//  * streams R and S with symmetric rates, join attributes uniform in
//    1..10000 (band join, ~1:250,000 hit rate);
//  * a driver that batches tuples (64 by default) before pushing them into
//    the pipeline — batching delay is part of measured latency. The driver
//    is the JoinSession's own: a batch of B is a span push of B tuples;
//  * throughput experiments feed at maximum rate against backpressure
//    ("max sustained throughput without dropping data");
//  * latency experiments pace arrivals against the wall clock and report
//    per-second average/maximum latency (Figures 5, 19, 20).
//
// All binaries accept --key=value flags; every experiment prints its scaled
// configuration so EXPERIMENTS.md can record paper-vs-measured faithfully.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/schema.hpp"
#include "core/join_session.hpp"
#include "stream/generator.hpp"
#include "stream/handlers.hpp"
#include "stream/latency_model.hpp"
#include "stream/sorter.hpp"
#include "stream/stats.hpp"

namespace sjoin::bench {

/// --key=value command-line flags with typed accessors.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_.emplace_back(arg, "1");
      } else {
        kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
      }
    }
  }

  int64_t Int(const std::string& name, int64_t def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : std::strtoll(v->c_str(), nullptr, 10);
  }

  double Double(const std::string& name, double def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
  }

  std::string Str(const std::string& name, const std::string& def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : *v;
  }

  bool Bool(const std::string& name, bool def) const {
    const std::string* v = Find(name);
    if (v == nullptr) return def;
    return *v != "0" && *v != "false";
  }

 private:
  const std::string* Find(const std::string& name) const {
    for (const auto& [k, v] : kv_) {
      if (k == name) return &v;
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Workload configuration shared by the figure benches.
struct Workload {
  WindowSpec wr = WindowSpec::Count(20'000);
  WindowSpec ws = WindowSpec::Count(20'000);
  double rate_per_stream = 3000.0;  ///< tuples/sec/stream when paced
  int64_t key_domain = kPaperKeyDomain;
  uint64_t seed = 42;
  bool paced = false;

  int64_t period_us() const {
    // Gap between *consecutive* arrivals (R and S alternate).
    const double per_second = 2.0 * rate_per_stream;
    return per_second <= 0 ? 1
                           : static_cast<int64_t>(1e6 / per_second + 0.5);
  }
};

/// Outcome of one timed pipeline run.
struct RunStats {
  double wall_seconds = 0.0;
  uint64_t arrivals_r = 0;
  uint64_t arrivals_s = 0;
  uint64_t results = 0;
  uint64_t punctuations = 0;
  RunningStat latency_ms;          ///< per-result latency
  TimeSeriesStat latency_series;   ///< 1-second buckets
  LatencyHistogram latency_hist;   ///< tail percentiles (p50/p95/p99/p99.9)
  std::size_t max_sorter_buffer = 0;
  uint64_t anomalies = 0;
  // Overload control (DESIGN.md Section 12): ground-truth sheds at ingest
  // vs. losses reported in-band — equal on a drained run (the
  // exact-accounting invariant).
  uint64_t shed_r = 0;
  uint64_t shed_s = 0;
  uint64_t lost_reported_r = 0;
  uint64_t lost_reported_s = 0;
  uint64_t loss_bounds = 0;

  RunStats() : latency_series(1'000'000'000) {}

  double throughput_per_stream() const {
    const double total = static_cast<double>(arrivals_r + arrivals_s) / 2.0;
    return wall_seconds <= 0 ? 0.0 : total / wall_seconds;
  }
};

/// Records each result's latency and forwards every callback to `next`
/// (optional), counting punctuations and loss bounds on the way. A paced
/// run measures from the due time of the later input (the run's start plus
/// the result's event time), so the batching delay stays in the number; a
/// closed-loop run from the push of the later input.
class BenchRecorder : public OutputHandler<RTuple, STuple> {
 public:
  explicit BenchRecorder(OutputHandler<RTuple, STuple>* next)
      : next_(next), series_(1'000'000'000) {}

  /// Starts the per-second series at `start_ns`; `paced` measures results
  /// from their due time at start_ns + ts.
  void Start(int64_t start_ns, bool paced) {
    series_.Anchor(start_ns);
    anchor_ = paced ? start_ns : 0;
  }

  void OnResult(const ResultMsg<RTuple, STuple>& m) override {
    const int64_t now = NowNs();
    const int64_t latency_ns =
        now - (anchor_ != 0 ? anchor_ + m.ts * 1000 : m.ready_wall_ns);
    overall_.Add(NsToMs(latency_ns));
    series_.Add(now, NsToMs(latency_ns));
    histogram_.Add(latency_ns);
    if (next_ != nullptr) next_->OnResult(m);
  }
  void OnPunctuation(Timestamp tp) override {
    ++punctuations_;
    if (next_ != nullptr) next_->OnPunctuation(tp);
  }
  void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
    ++loss_bounds_;
    if (next_ != nullptr) next_->OnLoss(side, first_seq, count);
  }

  const RunningStat& overall() const { return overall_; }
  const TimeSeriesStat& series() const { return series_; }
  const LatencyHistogram& histogram() const { return histogram_; }
  uint64_t punctuations() const { return punctuations_; }
  uint64_t loss_bounds() const { return loss_bounds_; }

 private:
  OutputHandler<RTuple, STuple>* next_;
  int64_t anchor_ = 0;
  RunningStat overall_;
  TimeSeriesStat series_;
  LatencyHistogram histogram_;
  uint64_t punctuations_ = 0;
  uint64_t loss_bounds_ = 0;
};

/// Session configuration of a figure bench: `nodes` pipeline nodes on
/// their own threads, placed by the default (auto) policy, over the
/// workload's windows.
inline JoinConfig BenchConfig(Algorithm algorithm, int nodes,
                              const Workload& workload) {
  JoinConfig config;
  config.algorithm = algorithm;
  config.parallelism = nodes;
  config.window_r = workload.wr;
  config.window_s = workload.ws;
  return config;
}

/// Runs a JoinSession built from `config` with the one query `pred` on the
/// band workload for `duration_s`; the calling thread is the session's
/// driver and collector. Group g is a span push of `batch` R tuples, then
/// one of `batch` S tuples, and the R span precedes the S span in event
/// time too, so the session never clamps a timestamp (batch 1 alternates
/// R and S). Closed loop: both spans, then a Poll. Paced: a span is pushed
/// when its last tuple is due, and the driver spin-polls in between. When
/// `sort_output` is true a PunctuationSorter sits in the query's handler
/// chain (requires punctuate).
template <typename Pred>
RunStats RunPipelineBench(const JoinConfig& config, Pred pred,
                          const Workload& workload, int batch,
                          double duration_s, bool sort_output = false) {
  JoinSession<RTuple, STuple, Pred> session(config);
  PunctuationSorter<RTuple, STuple> sorter(nullptr);
  BenchRecorder recorder(sort_output ? &sorter : nullptr);
  session.AddQuery(pred, &recorder);
  session.Start();
  const int64_t start = NowNs();
  recorder.Start(start, workload.paced);

  const auto b = static_cast<int64_t>(batch);
  const int64_t period = workload.period_us();
  // Event time of tuple i (of `batch`) of group g's span of side `s_side`.
  const auto ts = [&](int64_t g, bool s_side, int64_t i) -> Timestamp {
    return (g * 2 * b + (s_side ? b : 0) + i) * period;
  };
  Rng rng(workload.seed);
  std::vector<RTuple> rs(static_cast<std::size_t>(batch));
  std::vector<STuple> ss(static_cast<std::size_t>(batch));
  std::vector<Timestamp> tss(static_cast<std::size_t>(batch));
  const int64_t deadline = start + static_cast<int64_t>(duration_s * 1e9);
  uint64_t pushed = 0;
  for (int64_t g = 0;; ++g) {
    if (workload.paced ? start + ts(g, false, b - 1) * 1000 > deadline
                       : NowNs() >= deadline) {
      break;
    }
    for (const bool s_side : {false, true}) {
      for (int64_t i = 0; i < b; ++i) {
        const auto k = static_cast<std::size_t>(i);
        tss[k] = ts(g, s_side, i);
        if (s_side) {
          ss[k] = MakeBandS(rng, workload.key_domain);
        } else {
          rs[k] = MakeBandR(rng, workload.key_domain);
        }
      }
      if (workload.paced) {
        const int64_t due = start + tss.back() * 1000;
        while (NowNs() < due) session.Poll();
      }
      if (s_side) {
        session.PushS(std::span<const STuple>(ss), tss);
      } else {
        session.PushR(std::span<const RTuple>(rs), tss);
      }
    }
    pushed += static_cast<uint64_t>(b);
    if (!workload.paced) session.Poll();
  }
  session.FinishInput();
  const int64_t end = NowNs();
  session.Stop();

  RunStats stats;
  stats.wall_seconds = NsToSec(end - start);
  stats.shed_r = session.tuples_shed(StreamSide::kR);
  stats.shed_s = session.tuples_shed(StreamSide::kS);
  stats.arrivals_r = pushed - stats.shed_r;
  stats.arrivals_s = pushed - stats.shed_s;
  stats.results = session.results_collected();
  stats.punctuations = recorder.punctuations();
  stats.latency_ms = recorder.overall();
  stats.latency_series = recorder.series();
  stats.latency_hist = recorder.histogram();
  stats.max_sorter_buffer = sorter.max_buffered();
  stats.anomalies = session.pipeline_anomalies();
  stats.lost_reported_r = session.tuples_lost_reported(StreamSide::kR);
  stats.lost_reported_s = session.tuples_lost_reported(StreamSide::kS);
  stats.loss_bounds = recorder.loss_bounds();
  return stats;
}

/// Convenience: a handshake-join session on the band workload. Channels
/// hold a quarter window (64..1,024 slots); `window_tuples` also sizes the
/// segments of time windows (hsj_window_tuples_hint).
inline RunStats RunHsjBench(int nodes, const Workload& workload,
                            int64_t window_tuples, int batch,
                            double duration_s) {
  JoinConfig config = BenchConfig(Algorithm::kHandshake, nodes, workload);
  config.channel_capacity = static_cast<std::size_t>(
      std::clamp<int64_t>(window_tuples / 4, 64, 1024));
  config.hsj_window_tuples_hint = window_tuples;
  return RunPipelineBench(config, BandPredicate{}, workload, batch,
                          duration_s);
}

/// Convenience: a low-latency handshake-join session on the band workload.
/// A latency budget (microseconds) with a shedding policy turns on the
/// session's overload control; sheds and losses land in the RunStats.
inline RunStats RunLlhjBench(int nodes, const Workload& workload, int batch,
                             double duration_s, bool punctuate = false,
                             bool sort_output = false,
                             int64_t latency_budget_us = 0,
                             OverloadPolicy policy = OverloadPolicy::kNone) {
  JoinConfig config = BenchConfig(Algorithm::kLowLatency, nodes, workload);
  config.punctuate = punctuate || sort_output;
  config.latency_budget_us = latency_budget_us;
  config.overload_policy = policy;
  return RunPipelineBench(config, BandPredicate{}, workload, batch,
                          duration_s, sort_output);
}

/// One flat JSON object, assembled field by field. Values are numbers or
/// strings; keys are emitted in insertion order.
class JsonRow {
 public:
  JsonRow& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return Raw(key, buf);
  }
  JsonRow& Int(const char* key, int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return Raw(key, buf);
  }
  JsonRow& Str(const char* key, const std::string& v) {
    std::string escaped;
    escaped.reserve(v.size() + 2);
    escaped += '"';
    for (char c : v) {
      switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        case '\t': escaped += "\\t"; break;
        default: escaped += c;
      }
    }
    escaped += '"';
    return Raw(key, escaped);
  }

  std::string Render() const { return "{" + body_ + "}"; }

 private:
  JsonRow& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += std::string("\"") + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// Machine-readable results channel shared by every bench binary: each
/// measured configuration is emitted as one JSON line, prefixed "JSON " on
/// stdout (greppable next to the human tables) and appended verbatim to
/// --json_out=PATH when given — the format of the repo's BENCH_*.json
/// trajectory files. --host_tag=NAME and --stamp=WHEN (set by
/// bench/run_trajectory.sh) tag every row, so rows appended across PRs and
/// machines stay distinguishable.
class JsonEmitter {
 public:
  JsonEmitter(const Flags& flags, const std::string& bench)
      : bench_(bench),
        path_(flags.Str("json_out", "")),
        host_(flags.Str("host_tag", "")),
        stamp_(flags.Str("stamp", "")) {}

  void Emit(const JsonRow& row) {
    JsonRow head_row;  // JsonRow::Str escapes quotes/backslashes in the tags
    head_row.Str("bench", bench_);
    if (!host_.empty()) head_row.Str("host", host_);
    if (!stamp_.empty()) head_row.Str("stamp", stamp_);
    const std::string head = head_row.Render();  // "{...}"
    const std::string body = row.Render();
    const std::string line =
        body == "{}" ? head
                     : head.substr(0, head.size() - 1) + "," + body.substr(1);
    std::printf("JSON %s\n", line.c_str());
    if (!path_.empty()) {
      std::FILE* f = std::fopen(path_.c_str(), "a");
      if (f != nullptr) {
        std::fprintf(f, "%s\n", line.c_str());
        std::fclose(f);
      }
    }
  }

 private:
  std::string bench_;
  std::string path_;
  std::string host_;
  std::string stamp_;
};

/// Standard latency/throughput fields of a RunStats, for JSON rows.
inline JsonRow& StatsFields(JsonRow& row, const RunStats& stats) {
  row.Num("wall_s", stats.wall_seconds)
      .Num("tput_per_stream", stats.throughput_per_stream())
      .Num("latency_avg_ms", stats.latency_ms.mean())
      .Num("latency_max_ms", stats.latency_ms.max())
      .Num("latency_stddev_ms", stats.latency_ms.stddev())
      .Num("latency_p50_ms", stats.latency_hist.QuantileMs(0.50))
      .Num("latency_p95_ms", stats.latency_hist.QuantileMs(0.95))
      .Num("latency_p99_ms", stats.latency_hist.QuantileMs(0.99))
      .Num("latency_p999_ms", stats.latency_hist.QuantileMs(0.999))
      .Int("results", static_cast<int64_t>(stats.results))
      .Int("punctuations", static_cast<int64_t>(stats.punctuations))
      .Int("anomalies", static_cast<int64_t>(stats.anomalies));
  return row;
}

/// Overload-control fields of a RunStats (sheds vs in-band loss reports).
inline JsonRow& OverloadFields(JsonRow& row, const RunStats& stats) {
  row.Int("shed_r", static_cast<int64_t>(stats.shed_r))
      .Int("shed_s", static_cast<int64_t>(stats.shed_s))
      .Int("lost_reported_r", static_cast<int64_t>(stats.lost_reported_r))
      .Int("lost_reported_s", static_cast<int64_t>(stats.lost_reported_s))
      .Int("loss_bounds", static_cast<int64_t>(stats.loss_bounds));
  return row;
}

/// Derives the expected live-window size in tuples for a time window.
inline int64_t WindowTuples(const WindowSpec& spec, double rate_per_stream) {
  if (spec.is_count()) return spec.size;
  return static_cast<int64_t>(static_cast<double>(spec.size) / 1e6 *
                              rate_per_stream);
}

/// Prints the per-second latency series in the Figure 5/19/20 format.
inline void PrintLatencySeries(const RunStats& stats) {
  std::printf("  %6s  %12s  %12s  %12s  %10s\n", "sec", "avg(ms)", "max(ms)",
              "stddev(ms)", "results");
  const auto& buckets = stats.latency_series.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto& b = buckets[i];
    if (b.count() == 0) continue;
    std::printf("  %6zu  %12.3f  %12.3f  %12.3f  %10llu\n", i, b.mean(),
                b.max(), b.stddev(),
                static_cast<unsigned long long>(b.count()));
  }
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace sjoin::bench
