// perfbench — the repository benchmark. Drives the join engine only through
// its public session API (JoinSession / ShardedJoinSession, PushR/PushS/
// Poll/FinishInput, OutputHandler) and checks every pass against an
// independent reference join.
//
//   perfbench --workload band_paced --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (the difference is the tracing overhead), times
// the isolated layer rungs, and prints the per-layer metrics. The last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}; the line before it holds the run context. Exits non-zero when
// any pass disagrees with the reference or counts a pipeline anomaly.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "harness.hpp"
#include "rungs.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  bool corrupt_expected = false;  ///< self-check: the run must then fail
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value();
    } else if (flag == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

/// Which end-to-end metric each per-layer metric should move, and where.
const char* const kLayerMap[][2] = {
    {"gen.lag_ms_p99", "latency_p99_ms@band_paced"},
    {"core.push_us_p50", "latency_p50_ms@band_paced"},
    {"core.push_us_p99", "latency_p50_ms@band_paced"},
    {"core.push_busy_frac", "tput_per_stream@band_saturate"},
    {"core.finish_ms", "tput_per_stream@band_saturate,equi_sharded"},
    {"core.backlog_max", "latency_p99_ms@band_paced"},
    {"core.shard_skew", "tput_per_stream@equi_sharded"},
    {"llhj.residence_ms_p50", "latency_p50_ms@band_paced"},
    {"llhj.residence_ms_p99", "latency_p99_ms@band_paced"},
    {"llhj.scan_ns_per_entry.band", "tput_per_stream@band_saturate"},
    {"llhj.scan_ns_per_entry.equi", "tput_per_stream@equi_sharded"},
    {"llhj.insert_expire_ns", "tput_per_stream@equi_sharded"},
    {"stream.deliver_us_p50",
     "tput_per_stream@equi_sharded,latency_p50_ms@band_paced"},
    {"stream.poll_busy_frac", "tput_per_stream@equi_sharded"},
    {"stream.poll_useful_frac", "tput_per_stream@equi_sharded"},
    {"stream.results_per_poll", "tput_per_stream@equi_sharded"},
    {"runtime.hop_us_p50", "latency_p50_ms@band_paced"},
    {"runtime.hop_us_p99", "latency_p50_ms@band_paced"},
    {"runtime.spsc_burst_ns_per_msg",
     "tput_per_stream@band_saturate,equi_sharded"},
    {"runtime.pinned_cpus", "tput_per_stream@equi_sharded"},
    {"runtime.parallel_speedup", "tput_per_stream@band_saturate"},
    {"latency_p99_ms", "itself: the untraced pass, without a bound"},
};

/// Push groups a run may use: paced runs push exactly `seconds` of offered
/// load; closed loops stop at the deadline or at the max_rate input cap
/// (which also covers their timed warm-up).
int64_t MaxGroups(const WorkloadSpec& spec, double seconds) {
  const double warm_s = static_cast<double>(kWarmNs) / 1e9;
  const double per_stream = spec.paced ? spec.rate * seconds
                                       : spec.max_rate * (seconds + warm_s);
  return (spec.warm_tuples + static_cast<int64_t>(per_stream)) / spec.group +
         1;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  uint64_t samples;
};

/// Tally of the passes of one invocation (operations = input tuples).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Add(const char* label, const PassResult& pass) {
    attempted += pass.tuples;
    if (!pass.correct) Fail(label, pass.tuples, pass.failure);
  }
  /// Marks the tuples of a pass already added as failed.
  void Fail(const char* label, uint64_t tuples, const std::string& why) {
    failed += tuples;
    failures.push_back(std::string(label) + ": " + why);
  }
};

/// A pass during which the hypervisor stole more than this share of the
/// host's CPU time measured its neighbours as much as the engine: a few
/// stolen milliseconds on the caller or an engine thread land in the
/// latency tail. Such a pass is run again, up to kMaxAttempts times.
constexpr double kMaxStealShare = 0.005;
constexpr int kMaxAttempts = 3;

/// No further attempt starts if it could end later than this many times
/// --seconds (plus kAttemptSlackNs) after the program started, so a run on
/// a busy host still ends in bounded time.
constexpr double kAttemptBudget = 2.5;
constexpr int64_t kAttemptSlackNs = 5'000'000'000;

struct SteadyPass {
  PassResult pass;
  double steal_share = 1.0;  ///< host steal share during the reported pass
  int attempts = 0;
};

/// Runs a pass until one has a steal share of at most kMaxStealShare, and
/// reports the attempt with the least steal. Every attempt is checked
/// against the reference. `trace` receives the reported attempt's trace.
SteadyPass RunSteady(const Inputs& in, const PassConfig& config, Trace* trace,
                     int64_t attempt_deadline, const char* label,
                     Tally* tally) {
  SteadyPass best;
  PassResult first;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    Trace attempt_trace;
    const int64_t start = sjoin::NowNs();
    const auto [steal0, total0] = CpuStealJiffies();
    PassResult pass =
        RunPass(in, config, trace != nullptr ? &attempt_trace : nullptr);
    const auto [steal1, total1] = CpuStealJiffies();
    const double steal =
        static_cast<double>(steal1 - steal0) /
        static_cast<double>(std::max<int64_t>(total1 - total0, 1));
    tally->Add(label, pass);
    if (attempt == 1) {
      first.setup_s = pass.setup_s;
      first.mem_peak_mb = pass.mem_peak_mb;
    }
    best.attempts = attempt;
    if (attempt == 1 || steal < best.steal_share) {
      best.pass = std::move(pass);
      best.steal_share = steal;
      if (trace != nullptr) *trace = std::move(attempt_trace);
    }
    const int64_t end = sjoin::NowNs();
    if (steal <= kMaxStealShare ||
        end + (end - start) > attempt_deadline) {
      break;
    }
  }
  // Later attempts start with the heap the earlier ones left behind, which
  // makes their setups up to 4x faster and their memory peaks lower, so
  // both are taken from the first attempt.
  best.pass.setup_s = first.setup_s;
  best.pass.mem_peak_mb = first.mem_peak_mb;
  return best;
}

/// Printed with the end-to-end metrics but reported, from the untraced
/// pass, with the per-layer ones, which carry no bound. One stolen
/// millisecond in a hundred on the caller or an engine thread moves it: on
/// a 4-vCPU VM with a host steal share of 0.3-0.5%, 10 s runs read
/// 0.22-1.3 ms on band_paced and 0.38-1.5 ms on equi_sharded, a spread
/// several times any bound the benchmark may set.
const std::string kUnboundedEndToEnd = "latency_p99_ms";

std::vector<Metric> EndToEnd(const PassResult& pass) {
  const uint64_t samples = pass.latency_ns.size();
  return {
      {"tput_per_stream", pass.tput_per_stream, "tuples/s",
       pass.tuples / 2},
      {"latency_p50_ms", Quantile(pass.latency_ns, 0.50) / 1e6, "ms", samples},
      {"latency_p99_ms", Quantile(pass.latency_ns, 0.99) / 1e6, "ms", samples},
      {"setup_s", Quantile(pass.setup_s, 0.50), "s", pass.setup_s.size()},
      {"mem_peak_mb", pass.mem_peak_mb, "MiB", 1},
  };
}

constexpr int kSpeedupPairs = 3;

/// Runs the band_saturate input through a session threaded and with
/// threaded = false, alternating, kSpeedupPairs times; returns the median
/// throughput ratio of the pairs.
double ParallelSpeedup(uint64_t seed, Tally* tally) {
  const WorkloadSpec& spec = FindWorkload("band_saturate");
  constexpr int64_t kTimedGroups = 750;  // 48,000 tuples per stream
  const int64_t warm_groups = (spec.warm_tuples + spec.group - 1) / spec.group;
  const Inputs in = MakeInputs(spec, seed, warm_groups + kTimedGroups);
  PassConfig threaded;
  threaded.seconds = 1e9;  // run the whole input
  threaded.warm_ns = 0;    // just fill the windows
  PassConfig sequential = threaded;
  sequential.threaded = false;
  std::vector<double> ratios;
  for (int i = 0; i < kSpeedupPairs; ++i) {
    const PassResult t = RunPass(in, threaded, nullptr);
    const PassResult s = RunPass(in, sequential, nullptr);
    tally->Add("parallel_speedup threaded", t);
    tally->Add("parallel_speedup sequential", s);
    ratios.push_back(t.tput_per_stream / s.tput_per_stream);
  }
  return Quantile(ratios, 0.5);
}

std::vector<Metric> PerLayer(const Inputs& in, const PassResult& pass,
                             double untraced_mean_ms, const Trace& trace,
                             uint64_t seed, Tally* tally, JsonObject* context) {
  const WorkloadSpec& spec = *in.spec;
  // Stage split of each sampled result: gen lag -> push -> ready_wall_ns ->
  // Poll start -> OnResult. A stamp out of that order means a stage was
  // measured wrongly (another clock, or a Poll that did not deliver the
  // result), and fails the traced pass. The stage means must add up to the
  // untraced pass's mean latency; the difference is the tracing overhead.
  std::vector<double> residence, deliver;
  double gen = 0, push = 0, res = 0, del = 0;
  uint64_t misordered = 0;
  for (const Stamps& s : trace.stamps) {
    if (!(0 < s.due && s.due <= s.push && s.push <= s.ready &&
          s.ready <= s.call && s.call <= s.result)) {
      ++misordered;
    }
    residence.push_back(static_cast<double>(s.call - s.ready));
    deliver.push_back(static_cast<double>(s.result - s.call));
    gen += static_cast<double>(s.push - s.due);
    push += static_cast<double>(s.ready - s.push);
    res += static_cast<double>(s.call - s.ready);
    del += static_cast<double>(s.result - s.call);
  }
  const double n =
      std::max<double>(1.0, static_cast<double>(trace.stamps.size()));
  const double stage_sum_ms = (gen + push + res + del) / n / 1e6;
  JsonObject stages;
  stages.Number("gen_lag_ms", gen / n / 1e6)
      .Number("push_ms", push / n / 1e6)
      .Number("residence_ms", res / n / 1e6)
      .Number("deliver_ms", del / n / 1e6)
      .Number("stage_sum_ms", stage_sum_ms)
      .Number("untraced_mean_ms", untraced_mean_ms)
      .Number("reconcile_error",
              untraced_mean_ms > 0
                  ? std::fabs(stage_sum_ms - untraced_mean_ms) /
                        untraced_mean_ms
                  : 0.0)
      .Int("misordered", static_cast<int64_t>(misordered))
      .Int("samples", static_cast<int64_t>(trace.stamps.size()));
  context->Raw("stage_means", stages.Encode());
  if (misordered != 0) {
    tally->Fail("traced", pass.tuples,
                std::to_string(misordered) + " results with misordered stamps");
  }

  const double timed_ns = static_cast<double>(pass.timed_ns);
  const double polls = static_cast<double>(std::max<uint64_t>(trace.polls, 1));
  const std::vector<int64_t> hops = HopNs(3000, 1e9 / (2.0 * 3000.0));
  const WorkloadSpec& sat = FindWorkload("band_saturate");
  const WorkloadSpec& equi = FindWorkload("equi_sharded");
  const auto equi_window = static_cast<std::size_t>(equi.window / 2);
  return {
      {"gen.lag_ms_p99", Quantile(trace.lag_ns, 0.99) / 1e6, "ms",
       trace.lag_ns.size()},
      {"core.push_us_p50", Quantile(trace.push_ns, 0.50) / 1e3, "us",
       trace.push_ns.size()},
      {"core.push_us_p99", Quantile(trace.push_ns, 0.99) / 1e3, "us",
       trace.push_ns.size()},
      {"core.push_busy_frac",
       static_cast<double>(trace.push_busy_ns) / timed_ns, "frac",
       trace.push_ns.size()},
      {"core.finish_ms", static_cast<double>(pass.finish_ns) / 1e6, "ms", 1},
      {"core.backlog_max", static_cast<double>(trace.backlog_max), "msgs",
       spec.sharded ? 0 : trace.push_ns.size()},
      {"core.shard_skew", pass.shard_skew, "ratio", 1},
      {"llhj.residence_ms_p50", Quantile(residence, 0.50) / 1e6, "ms",
       residence.size()},
      {"llhj.residence_ms_p99", Quantile(residence, 0.99) / 1e6, "ms",
       residence.size()},
      {"llhj.scan_ns_per_entry.band",
       ScanNsPerEntry(
           sjoin::BandPredicate{sat.band, static_cast<float>(sat.band)},
           sat.key_domain, static_cast<std::size_t>(sat.window), seed),
       "ns", kRungRepeats},
      {"llhj.scan_ns_per_entry.equi",
       ScanNsPerEntry(sjoin::EquiPredicate{}, equi.key_domain, equi_window,
                      seed),
       "ns", kRungRepeats},
      {"llhj.insert_expire_ns",
       InsertExpireNs(equi.key_domain, equi_window, seed), "ns",
       kRungRepeats},
      {"stream.deliver_us_p50", Quantile(deliver, 0.50) / 1e3, "us",
       deliver.size()},
      {"stream.poll_busy_frac",
       static_cast<double>(trace.poll_busy_ns) / timed_ns, "frac",
       trace.polls},
      {"stream.poll_useful_frac",
       static_cast<double>(trace.useful_polls) / polls, "frac", trace.polls},
      {"stream.results_per_poll",
       static_cast<double>(trace.polled_results) / polls, "results",
       trace.polls},
      {"runtime.hop_us_p50", Quantile(hops, 0.50) / 1e3, "us", hops.size()},
      {"runtime.hop_us_p99", Quantile(hops, 0.99) / 1e3, "us", hops.size()},
      {"runtime.spsc_burst_ns_per_msg", SpscBurstNsPerMsg(seed), "ns",
       kRungRepeats},
      {"runtime.pinned_cpus", static_cast<double>(DefaultPinnedCpus(in)),
       "cpus", 1},
      {"runtime.parallel_speedup", ParallelSpeedup(seed, tally), "x",
       2 * kSpeedupPairs},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    JsonObject v;
    v.Number("value", m.value).Str("unit", m.unit);
    out.Raw(m.name, v.Encode());
  }
  return out.Encode();
}

std::string AffinityJson(const std::vector<ThreadAffinity>& threads) {
  const long self = static_cast<long>(getpid());
  JsonObject out;
  std::string engine = "[";
  for (const ThreadAffinity& t : threads) {
    if (t.tid == self) {
      out.Str("caller", t.cpus);
    } else {
      engine += (engine.size() > 1 ? ", " : "") + Quote(t.cpus);
    }
  }
  out.Raw("engine", engine + "]");
  return out.Encode();
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %-9s n=%llu\n", m.name.c_str(), m.value, m.unit,
                static_cast<unsigned long long>(m.samples));
  }
}

int Main(const Args& args) {
  const WorkloadSpec& spec = FindWorkload(args.workload);
  // A traced run splits its time between the untraced and the traced pass,
  // so both modes take about as long.
  PassConfig config;
  config.seconds = args.trace ? args.seconds / 2 : args.seconds;
  config.setup_repeats = 21;
  const int64_t inputs_start = sjoin::NowNs();
  const int64_t attempt_deadline =
      inputs_start + kAttemptSlackNs +
      static_cast<int64_t>(kAttemptBudget * args.seconds * 1e9);
  Inputs in = MakeInputs(spec, args.seed, MaxGroups(spec, config.seconds));
  const double inputs_s =
      static_cast<double>(sjoin::NowNs() - inputs_start) / 1e9;
  if (args.corrupt_expected) {
    for (Totals& t : in.expected) t.hash ^= 1;
  }

  Tally tally;
  JsonObject context;
  context.Str("workload", spec.name)
      .Str("why", spec.why)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("simd", sjoin::ToString(sjoin::ActiveSimdLevel()))
      .Number("inputs_and_reference_s", inputs_s);

  const SteadyPass steady =
      RunSteady(in, config, nullptr, attempt_deadline, "untraced", &tally);
  const PassResult& plain = steady.pass;
  context.Number("cpu_steal_share", steady.steal_share)
      .Int("attempts", steady.attempts)
      .Bool("steady", steady.steal_share <= kMaxStealShare);
  const std::vector<Metric> e2e = EndToEnd(plain);
  PrintTable(args.trace ? "end-to-end (untraced pass)" : "end-to-end", e2e);
  context.Raw("affinity", AffinityJson(plain.affinity))
      .Int("results", static_cast<int64_t>(plain.results))
      .Int("expected_results", static_cast<int64_t>(plain.expected_results))
      .Int("tuples", static_cast<int64_t>(plain.tuples));
  JsonObject samples;
  for (const Metric& m : e2e) {
    samples.Int(m.name, static_cast<int64_t>(m.samples));
  }
  context.Raw("samples", samples.Encode());
  if (spec.paced) {
    // Sustained: throughput within 1% of the offered rate and no backlog
    // growth between the halves of the run.
    const bool sustained =
        plain.tput_per_stream >= 0.99 * spec.rate &&
        plain.backlog_second_half <= 2.0 * plain.backlog_first_half + 16.0;
    context.Number("offered_rate", spec.rate)
        .Number("backlog_mean_first_half", plain.backlog_first_half)
        .Number("backlog_mean_second_half", plain.backlog_second_half)
        .Bool("rate_sustained", sustained);
  }

  std::vector<Metric> reported;
  for (const Metric& m : e2e) {
    if (m.name != kUnboundedEndToEnd) reported.push_back(m);
  }
  if (args.trace) {
    Trace trace;
    const SteadyPass traced_steady =
        RunSteady(in, config, &trace, attempt_deadline, "traced", &tally);
    const PassResult& traced = traced_steady.pass;
    context.Number("traced_cpu_steal_share", traced_steady.steal_share)
        .Int("traced_attempts", traced_steady.attempts);
    const std::vector<Metric> traced_e2e = EndToEnd(traced);
    JsonObject overhead;
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      overhead.Number(e2e[i].name, traced_e2e[i].value - e2e[i].value);
    }
    context.Raw("tracing_overhead", overhead.Encode());
    reported =
        PerLayer(in, traced, Mean(plain.latency_ns) / 1e6, trace, args.seed,
                 &tally, &context);
    for (const Metric& m : e2e) {
      if (m.name == kUnboundedEndToEnd) reported.push_back(m);
    }
    PrintTable("end-to-end (traced pass)", traced_e2e);
    PrintTable("per-layer (traced pass and isolated rungs)", reported);
    JsonObject map;
    for (const auto& entry : kLayerMap) map.Str(entry[0], entry[1]);
    context.Raw("layer_map", map.Encode());
    const std::string path =
        args.trace_dir + "/" + spec.name + ".spans.csv";
    context.Str("spans_file", trace.Write(path) ? path : "(write failed)")
        .Int("spans", static_cast<int64_t>(trace.spans.size()));
  }

  std::string failures = "[";
  for (const std::string& f : tally.failures) {
    failures += (failures.size() > 1 ? ", " : "") + Quote(f);
    std::fprintf(stderr, "FAILED %s\n", f.c_str());
  }
  context.Raw("failures", failures + "]");
  std::printf("%s\n",
              JsonObject().Raw("context", context.Encode()).Encode().c_str());

  JsonObject result;
  result.Bool("correct", tally.failed == 0)
      .Int("attempted", static_cast<int64_t>(tally.attempted))
      .Int("failed", static_cast<int64_t>(tally.failed))
      .Raw("metrics", MetricsJson(reported));
  std::printf("%s\n", result.Encode().c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
