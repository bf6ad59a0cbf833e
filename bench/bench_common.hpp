// Shared benchmark harness: flag parsing, the paper's band-join workload,
// and a threaded pipeline runner that measures throughput and latency the
// way the paper does (Section 7.1):
//
//  * streams R and S with symmetric rates, join attributes uniform in
//    1..10000 (band join, ~1:250,000 hit rate);
//  * a driver that batches tuples (64 by default) before pushing them into
//    the pipeline — batching delay is part of measured latency;
//  * throughput experiments feed at maximum rate against backpressure
//    ("max sustained throughput without dropping data");
//  * latency experiments pace arrivals against the wall clock and report
//    per-second average/maximum latency (Figures 5, 19, 20).
//
// All binaries accept --key=value flags; every experiment prints its scaled
// configuration so EXPERIMENTS.md can record paper-vs-measured faithfully.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/schema.hpp"
#include "core/join_session.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "runtime/executor.hpp"
#include "stream/admission.hpp"
#include "stream/collector.hpp"
#include "stream/feeder.hpp"
#include "stream/generator.hpp"
#include "stream/handlers.hpp"
#include "stream/latency_model.hpp"
#include "stream/sorter.hpp"
#include "stream/source.hpp"

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

inline std::unique_ptr<GeneratedSource<RTuple, STuple>> MakeBandSource(
    const Workload& workload) {
  typename GeneratedSource<RTuple, STuple>::Options options;
  options.wr = workload.wr;
  options.ws = workload.ws;
  options.period_us = workload.period_us();
  options.seed = workload.seed;
  const int64_t domain = workload.key_domain;
  return std::make_unique<GeneratedSource<RTuple, STuple>>(
      [domain](Rng& rng) { return MakeBandR(rng, domain); },
      [domain](Rng& rng) { return MakeBandS(rng, domain); }, options);
}

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

/// The default hardware placement of the figure benches: pipeline nodes
/// over neighbouring cores of the detected topology, helpers on leftover
/// cores, channel rings homed on their consumer's NUMA node. On
/// single-socket hosts this degrades to the historical flat sibling-order
/// pinning.
inline PlacementPlan AutoPlacement(int nodes) {
  return PlacementPlan::Build(Topology::Detect(), PlacementPolicy::kAuto,
                              nodes, kHelperCount);
}

/// Runs `pipeline` threaded against a band workload for `duration_s`.
/// The collector runs on the calling thread. When `sort_output` is true a
/// PunctuationSorter is placed behind the collector (requires punctuate).
/// A pipeline built with a placement plan gets its node threads placed by
/// the SAME plan (feeder as the feeder-helper); an unplaced pipeline keeps
/// the flat auto layout.
template <typename Pipeline>
RunStats RunPipelineBench(Pipeline& pipeline, const Workload& workload,
                          int batch_size, double duration_s,
                          bool sort_output = false,
                          AdmissionController* admission = nullptr) {
  auto source = MakeBandSource(workload);
  typename Feeder<RTuple, STuple>::Options feeder_options;
  feeder_options.batch_size = batch_size;
  feeder_options.paced = workload.paced;
  feeder_options.admission = admission;
  if (admission != nullptr) {
    // Whole-pipeline occupancy for the admission projection: without it
    // the controller only notices saturation once backpressure has
    // cascaded back through every internal ring.
    feeder_options.backlog_probe = [&pipeline] {
      return pipeline.ApproxChannelBacklog();
    };
  }
  Feeder<RTuple, STuple> feeder(pipeline.ports(), source.get(),
                                feeder_options);

  CountingHandler<RTuple, STuple> counter;
  PunctuationSorter<RTuple, STuple> sorter(&counter);
  OutputHandler<RTuple, STuple>* tail = &counter;
  if (sort_output) tail = &sorter;
  LatencyRecorder<RTuple, STuple> latency(tail);
  // Close the admission control loop: every observed result latency feeds
  // the controller's EWMA (the projection it sheds against).
  if (admission != nullptr) {
    latency.ObserveInto(admission);
  }
  auto collector = pipeline.MakeCollector(&latency);

  auto executor =
      pipeline.placement().empty()
          ? std::make_unique<ThreadedExecutor>()
          : std::make_unique<ThreadedExecutor>(pipeline.placement());
  ThreadedExecutor& exec = *executor;
  for (auto* node : pipeline.nodes()) exec.Add(node);
  exec.AddHelper(&feeder);
  // The calling thread vacuums the result rings: adopt them before the
  // node threads start producing.
  collector->PrefaultQueues();

  const int64_t start = NowNs();
  latency.Anchor(start);
  exec.Start();

  const int64_t deadline =
      start + static_cast<int64_t>(duration_s * 1e9);
  while (NowNs() < deadline) {
    if (collector->VacuumOnce() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  feeder.RequestStop();
  // Drain to quiescence before stopping the nodes: the feeder first
  // flushes its outbox (including any pending loss punctuations), then the
  // nodes chew through the channel backlog. At heavy overload that backlog
  // is thousands of expensive probes, so a fixed grace period would cut
  // the run with messages — and their loss accounting — still in flight.
  // Quiet = feeder done, channels empty, and a vacuum that found nothing;
  // require a stretch of consecutive quiet rounds so staged sink residues
  // (drained by the next node step) are not mistaken for quiescence.
  const int64_t settle_deadline = NowNs() + 5'000'000'000;
  int quiet = 0;
  while (NowNs() < settle_deadline && quiet < 50) {
    const bool vacuumed = collector->VacuumOnce() > 0;
    if (!vacuumed && feeder.finished() &&
        pipeline.ApproxChannelBacklog() == 0) {
      ++quiet;
    } else {
      quiet = 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t end = NowNs();
  exec.Stop();
  collector->VacuumOnce();

  RunStats stats;
  stats.wall_seconds = NsToSec(end - start);
  stats.arrivals_r = feeder.arrivals_pushed(StreamSide::kR);
  stats.arrivals_s = feeder.arrivals_pushed(StreamSide::kS);
  stats.results = collector->total_collected();
  stats.punctuations = collector->punctuations_emitted();
  stats.latency_ms = latency.overall();
  stats.latency_series = latency.series();
  stats.latency_hist = latency.histogram();
  stats.max_sorter_buffer = sorter.max_buffered();
  stats.anomalies = pipeline.total_anomalies();
  if (admission != nullptr) {
    stats.shed_r = admission->shed_count(StreamSide::kR);
    stats.shed_s = admission->shed_count(StreamSide::kS);
  }
  stats.lost_reported_r = collector->lost(StreamSide::kR);
  stats.lost_reported_s = collector->lost(StreamSide::kS);
  stats.loss_bounds = collector->loss_bounds();
  return stats;
}

/// Convenience: builds and runs an HSJ pipeline on the band workload.
/// Segments self-balance; `window_tuples` bounds the entry channels so the
/// driver cannot run a window ahead of the pipeline (bounded-lag regime).
inline RunStats RunHsjBench(int nodes, const Workload& workload,
                            int64_t window_tuples, int batch,
                            double duration_s) {
  typename HsjPipeline<RTuple, STuple, BandPredicate>::Options options;
  options.nodes = nodes;
  options.channel_capacity = static_cast<std::size_t>(
      std::max<int64_t>(64, std::min<int64_t>(1024, window_tuples / 4)));
  options.placement = AutoPlacement(nodes);
  HsjPipeline<RTuple, STuple, BandPredicate> pipeline(options);
  return RunPipelineBench(pipeline, workload, batch, duration_s);
}

/// Convenience: builds and runs an LLHJ pipeline on the band workload.
/// `admission` (optional) wires latency-budget overload control into the
/// feeder — shed/loss accounting then lands in the returned RunStats.
inline RunStats RunLlhjBench(int nodes, const Workload& workload, int batch,
                             double duration_s, bool punctuate = false,
                             bool sort_output = false,
                             AdmissionController* admission = nullptr) {
  typename LlhjPipeline<RTuple, STuple, BandPredicate>::Options options;
  options.nodes = nodes;
  options.punctuate = punctuate || sort_output;
  options.placement = AutoPlacement(nodes);
  LlhjPipeline<RTuple, STuple, BandPredicate> pipeline(options);
  return RunPipelineBench(pipeline, workload, batch, duration_s, sort_output,
                          admission);
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
