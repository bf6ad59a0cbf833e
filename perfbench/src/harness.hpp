// One timed pass of a workload through the public session API, with an
// optional in-memory trace. The pass builds the session (setup), pushes an
// untimed warm-up that fills the windows, then runs the workload's loop:
//
//  * paced (open loop): one tuple per PushR/PushS at its due time, R and S
//    alternating at the offered rate; the caller polls continuously between
//    due times. Latency counts from the due time.
//  * closed loop: PushR and PushS spans as fast as backpressure allows, one
//    Poll after each pair, until the deadline. Latency counts from the
//    start of the Push call that carried the later input.
//
// FinishInput ends the pass; the delivered result count and multiset hash
// must equal the reference totals for exactly the groups pushed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/clock.hpp"
#include "core/join_session.hpp"
#include "core/sharded_session.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

using sjoin::NowNs;
using BandSession = sjoin::JoinSession<RTuple, STuple, sjoin::BandPredicate>;
using EquiShardedSession =
    sjoin::ShardedJoinSession<RTuple, STuple, sjoin::EquiPredicate>;
using Result = sjoin::ResultMsg<RTuple, STuple>;

// -- Tracing -----------------------------------------------------------------

enum SpanKind : uint8_t {
  kRun, kSetup, kPushR, kPushS, kPoll, kFinish, kOnResult
};

inline const char* SpanName(uint8_t kind) {
  static const char* const kNames[] = {"run",  "setup",  "push_r",   "push_s",
                                       "poll", "finish", "on_result"};
  return kNames[kind];
}

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uint32_t parent = 0;
  uint8_t kind = kRun;
};

/// Wall-clock stamps of one sampled result, in pipeline order: due time of
/// the later input, start of the Push that carried it, its arrival stamp
/// inside the session (ResultMsg::ready_wall_ns), start of the Poll (or
/// FinishInput) that delivered the result, and the OnResult call.
struct Stamps {
  int64_t due = 0;
  int64_t push = 0;
  int64_t ready = 0;
  int64_t call = 0;
  int64_t result = 0;
};

/// Spans and layer counters of one traced pass, kept in memory. Counters
/// cover the timed part only; spans cover the whole pass.
struct Trace {
  /// Empty polls are frequent on the paced loop; one in this many keeps
  /// its span (every poll that delivered a result keeps its span).
  static constexpr uint64_t kEmptyPollKeep = 1024;

  std::vector<Span> spans;
  uint32_t open = 0;  ///< innermost open span (parent of the next one)
  int64_t call_start = 0;
  bool timed = false;

  std::vector<int64_t> push_ns;  ///< Push call durations
  std::vector<int64_t> lag_ns;   ///< generator lag per push
  std::vector<Stamps> stamps;
  int64_t push_busy_ns = 0;
  int64_t poll_busy_ns = 0;
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
  uint64_t polled_results = 0;
  std::size_t backlog_max = 0;

  uint32_t Begin(uint8_t kind, int64_t t) {
    spans.push_back(Span{t, 0, open, kind});
    open = static_cast<uint32_t>(spans.size() - 1);
    return open;
  }
  void End(uint32_t id, int64_t t) {
    spans[id].end = t;
    open = spans[id].parent;
  }
  /// Drops the most recent span (it must have no children).
  void Discard(uint32_t id) {
    open = spans[id].parent;
    spans.pop_back();
  }

  /// Writes spans as CSV (id, parent, name, start_ns, end_ns), times
  /// relative to the first span. The root span (id 0) is its own parent.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans.empty() ? 0 : spans.front().start;
    std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%u,%s,%lld,%lld\n", i, s.parent, SpanName(s.kind),
                   static_cast<long long>(s.start - t0),
                   static_cast<long long>(s.end - t0));
    }
    return std::fclose(f) == 0;
  }
};

// -- Result handler ----------------------------------------------------------

/// The registered OutputHandler. Every result feeds the count and the
/// multiset hash; the deterministic sample (by pair hash) whose later input
/// was pushed in the timed part also records its latency, and when tracing,
/// its stage stamps and an on_result span.
class Recorder : public sjoin::OutputHandler<RTuple, STuple> {
 public:
  Recorder(const Inputs& in, std::size_t sample_capacity, Trace* trace)
      : group_(in.spec->group),
        mask_(in.spec->sample_mask),
        due_r_(static_cast<std::size_t>(in.max_groups)),
        due_s_(static_cast<std::size_t>(in.max_groups)),
        start_r_(trace != nullptr ? due_r_.size() : 0),
        start_s_(trace != nullptr ? due_s_.size() : 0),
        latency_ns_(sample_capacity),
        trace_(trace) {}

  void OnResult(const Result& m) override {
    const uint64_t h = PairHash(m.r_seq, m.s_seq);
    ++count_;
    hash_ += h;
    if ((h & mask_) != 0) return;
    const auto gr = static_cast<int64_t>(m.r_seq) / group_;
    const auto gs = static_cast<int64_t>(m.s_seq) / group_;
    const bool s_later = gs >= gr;  // group g pushes R before S
    const int64_t g = s_later ? gs : gr;
    if (g < first_timed_group_) return;
    const int64_t now = NowNs();
    const auto gi = static_cast<std::size_t>(g);
    const int64_t due = s_later ? due_s_[gi] : due_r_[gi];
    if (samples_ < latency_ns_.size()) {
      latency_ns_[samples_++] = static_cast<float>(now - due);
    }
    if (trace_ == nullptr) return;
    const uint32_t span = trace_->Begin(kOnResult, now);
    trace_->stamps.push_back(Stamps{due, s_later ? start_s_[gi] : start_r_[gi],
                                    m.ready_wall_ns, trace_->call_start, now});
    trace_->End(span, NowNs());
  }

  /// Starts the timed part at push group `first_group`.
  void StartTimed(int64_t first_group) { first_timed_group_ = first_group; }

  /// Records when group g's R (or S) push was due and when it started.
  void Pushed(bool s_side, int64_t g, int64_t due, int64_t start) {
    const auto gi = static_cast<std::size_t>(g);
    (s_side ? due_s_ : due_r_)[gi] = due;
    if (trace_ != nullptr) (s_side ? start_s_ : start_r_)[gi] = start;
  }

  uint64_t count() const { return count_; }
  uint64_t hash() const { return hash_; }
  std::vector<float> latencies() const {
    return std::vector<float>(latency_ns_.begin(),
                              latency_ns_.begin() +
                                  static_cast<std::ptrdiff_t>(samples_));
  }

 private:
  int64_t group_;
  int64_t first_timed_group_ = INT64_MAX;
  uint64_t mask_;
  std::vector<int64_t> due_r_, due_s_;
  std::vector<int64_t> start_r_, start_s_;
  std::vector<float> latency_ns_;  // sized up front: no growth while timed
  std::size_t samples_ = 0;
  uint64_t count_ = 0;
  uint64_t hash_ = 0;
  Trace* trace_;
};

// -- Pass --------------------------------------------------------------------

/// Minimum warm-up of a closed loop, after its windows are full.
inline constexpr int64_t kWarmNs = 1'000'000'000;

struct PassConfig {
  bool threaded = true;
  double seconds = 10.0;  ///< closed loops stop at this deadline
  int64_t warm_ns = kWarmNs;  ///< closed loops: minimum warm-up
  int setup_repeats = 1;  ///< setups timed in total (the pass's own + extra)
};

struct PassResult {
  bool correct = false;
  std::string failure;
  uint64_t tuples = 0;  ///< pushed, both streams
  uint64_t results = 0;
  uint64_t expected_results = 0;
  double tput_per_stream = 0.0;
  std::vector<float> latency_ns;
  std::vector<double> setup_s;
  double mem_peak_mb = 0.0;
  int64_t finish_ns = 0;
  int64_t timed_ns = 0;
  std::vector<ThreadAffinity> affinity;
  double shard_skew = 1.0;
  /// Paced only: mean sampled ingest backlog in each half of the timed
  /// part; growth means the offered rate is not sustainable.
  double backlog_first_half = 0.0;
  double backlog_second_half = 0.0;
};

template <typename Session>
constexpr bool kSharded = std::is_same_v<Session, EquiShardedSession>;

/// Builds, registers and starts a session; returns it with `setup_ns` set.
/// A ShardedJoinSession has no Start(): its setup ends when the first push
/// (group 0's R span) returns.
///
/// The sharded session runs with PlacementPolicy::kNone unless
/// `default_placement` is set. Its default placement pins every shard of a
/// single-node host to the same first CPU, where the shard threads
/// time-slice one core, and throughput and latency swing by 30-70% from run
/// to run. Unpinned, the kernel spreads them over the free cores, the same
/// way on every host.
template <typename Session>
std::unique_ptr<Session> SetUp(const Inputs& in, bool threaded,
                               sjoin::OutputHandler<RTuple, STuple>* handler,
                               int64_t* setup_ns,
                               bool default_placement = false) {
  const WorkloadSpec& spec = *in.spec;
  sjoin::JoinConfig engine;
  engine.algorithm = sjoin::Algorithm::kLowLatency;
  engine.parallelism = kSharded<Session> ? 1 : 2;
  engine.window_r = spec.time_window ? sjoin::WindowSpec::Time(spec.window)
                                     : sjoin::WindowSpec::Count(spec.window);
  engine.window_s = engine.window_r;
  engine.threaded = threaded;
  const int64_t t0 = NowNs();
  std::unique_ptr<Session> session;
  if constexpr (kSharded<Session>) {
    if (!default_placement) engine.placement = sjoin::PlacementPolicy::kNone;
    sjoin::ShardedJoinConfig config;
    config.shard = engine;
    config.shards = 2;
    config.partition = sjoin::PartitionPolicy::kHashKey;
    session = std::make_unique<Session>(config);
    session->AddQuery(sjoin::EquiPredicate{}, handler);
    std::vector<Timestamp> ts(static_cast<std::size_t>(spec.group));
    for (int64_t i = 0; i < spec.group; ++i) ts[i] = in.Ts(false, i);
    session->PushR(std::span<const RTuple>(in.R(0), ts.size()),
                   std::span<const Timestamp>(ts));
  } else {
    session = std::make_unique<Session>(engine);
    session->AddQuery(sjoin::BandPredicate{spec.band,
                                           static_cast<float>(spec.band)},
                      handler);
    session->Start();
  }
  *setup_ns = NowNs() - t0;
  return session;
}

template <typename Session>
class PassRunner {
 public:
  PassRunner(const Inputs& in, const PassConfig& config, Trace* trace)
      : in_(in),
        spec_(*in.spec),
        config_(config),
        trace_(trace),
        ts_(static_cast<std::size_t>(spec_.group)) {}

  PassResult Run() {
    PassResult out;
    const std::size_t sample_capacity =
        static_cast<std::size_t>(in_.expected.back().sampled);
    Recorder recorder(in_, sample_capacity, trace_);
    if (trace_ != nullptr) {
      // Reserved, not touched: no reallocation copies while timed.
      const auto groups = static_cast<std::size_t>(in_.max_groups);
      trace_->spans.reserve(4 * groups + 2 * sample_capacity + (1 << 18));
      trace_->stamps.reserve(sample_capacity);
      trace_->push_ns.reserve(2 * groups);
      trace_->lag_ns.reserve(2 * groups);
    }
    // Memory baseline: inputs, reference and sample buffers exist already.
    const bool hwm_reset = ResetPeakRss();
    const int64_t baseline_kb = StatusKb("VmRSS");

    uint32_t run_span = 0;
    if (trace_ != nullptr) run_span = trace_->Begin(kRun, NowNs());
    int64_t setup_ns = 0;
    uint32_t setup_span = 0;
    if (trace_ != nullptr) setup_span = trace_->Begin(kSetup, NowNs());
    std::unique_ptr<Session> session =
        SetUp<Session>(in_, config_.threaded, &recorder, &setup_ns);
    if (trace_ != nullptr) trace_->End(setup_span, NowNs());
    out.setup_s.push_back(static_cast<double>(setup_ns) / 1e9);
    auto pin = std::make_unique<CallerPin>();
    out.affinity = ReadThreadAffinities();
    session_ = session.get();
    recorder_ = &recorder;

    // Untimed warm-up at max rate: fills both windows; closed loops also
    // keep going for kWarmNs so the first timed second is not a start-up
    // transient.
    const int64_t warm_until = NowNs() + (spec_.paced ? 0 : config_.warm_ns);
    int64_t g = 0;
    for (; g < in_.max_groups &&
           (g < in_.warm_groups || NowNs() < warm_until);
         ++g) {
      if (!(kSharded<Session> && g == 0)) Push(false, g, 0);
      Push(true, g, 0);
      Poll();
    }
    first_timed_group_ = g;
    if constexpr (!kSharded<Session>) {
      while (session->ingest_backlog() > 0) Poll();
    }
    const int64_t settle_until = NowNs() + 20'000'000;
    while (NowNs() < settle_until) Poll();

    if (trace_ != nullptr) trace_->timed = true;
    int64_t first_push = 0;
    const int64_t groups = spec_.paced ? RunPaced(&first_push, &out)
                                       : RunClosed(&first_push);

    const int64_t finish_start = NowNs();
    uint32_t finish_span = 0;
    if (trace_ != nullptr) {
      finish_span = trace_->Begin(kFinish, finish_start);
      trace_->call_start = finish_start;
    }
    session->FinishInput();
    const int64_t end = NowNs();
    if (trace_ != nullptr) {
      trace_->End(finish_span, end);
      trace_->timed = false;
    }
    out.finish_ns = end - finish_start;
    out.timed_ns = end - first_push;
    const int64_t peak_kb =
        hwm_reset ? StatusKb("VmHWM") : StatusKb("VmRSS");
    out.mem_peak_mb = static_cast<double>(peak_kb - baseline_kb) / 1024.0;

    out.tuples = static_cast<uint64_t>(2 * groups * spec_.group);
    const double timed_tuples =
        static_cast<double>((groups - first_timed_group_) * spec_.group);
    out.tput_per_stream =
        timed_tuples / (static_cast<double>(out.timed_ns) / 1e9);
    out.results = recorder.count();
    const Totals& want = in_.expected[static_cast<std::size_t>(groups)];
    out.expected_results = want.count;
    out.latency_ns = recorder.latencies();
    if constexpr (kSharded<Session>) {
      uint64_t lo = UINT64_MAX;
      uint64_t hi = 0;
      for (int k = 0; k < session->shard_count(); ++k) {
        lo = std::min(lo, session->shard_results(k));
        hi = std::max(hi, session->shard_results(k));
      }
      out.shard_skew = static_cast<double>(hi) /
                       static_cast<double>(std::max<uint64_t>(lo, 1));
    }
    const uint64_t anomalies = session->pipeline_anomalies();
    const uint64_t shed = session->tuples_shed(sjoin::StreamSide::kR) +
                          session->tuples_shed(sjoin::StreamSide::kS);
    if (recorder.count() != want.count || recorder.hash() != want.hash) {
      out.failure = "reference mismatch: " + std::to_string(recorder.count()) +
                    " results (hash " + std::to_string(recorder.hash()) +
                    "), reference " + std::to_string(want.count) + " (hash " +
                    std::to_string(want.hash) + ")";
    } else if (anomalies != 0) {
      out.failure = "pipeline_anomalies() = " + std::to_string(anomalies);
    } else if (shed != 0) {
      out.failure = std::to_string(shed) + " tuples shed";
    }
    out.correct = out.failure.empty();
    session_ = nullptr;
    session.reset();
    pin.reset();  // the next setups must see the full affinity mask
    if (trace_ != nullptr) trace_->End(run_span, NowNs());

    // Further setups for a steadier setup_s median (sessions discarded).
    for (int i = 1; i < config_.setup_repeats; ++i) {
      int64_t ns = 0;
      auto extra = SetUp<Session>(in_, config_.threaded, nullptr, &ns);
      out.setup_s.push_back(static_cast<double>(ns) / 1e9);
    }
    return out;
  }

 private:
  /// Pushes group g's R (or S) tuples. `due` is when the push was due
  /// (0: due now — closed loop and warm-up).
  void Push(bool s_side, int64_t g, int64_t due) {
    const Seq base = static_cast<Seq>(g * spec_.group);
    for (int64_t i = 0; i < spec_.group; ++i) {
      ts_[static_cast<std::size_t>(i)] = in_.Ts(s_side, base + i);
    }
    const int64_t start = NowNs();
    uint32_t span = 0;
    if (trace_ != nullptr) {
      span = trace_->Begin(s_side ? kPushS : kPushR, start);
    }
    recorder_->Pushed(s_side, g, due > 0 ? due : start, start);
    const std::span<const Timestamp> ts(ts_);
    if (spec_.group == 1) {  // one tuple per call: the per-tuple API
      if (s_side) {
        session_->PushS(*in_.S(g), ts_[0]);
      } else {
        session_->PushR(*in_.R(g), ts_[0]);
      }
    } else if (s_side) {
      session_->PushS(std::span<const STuple>(in_.S(g), ts_.size()), ts);
    } else {
      session_->PushR(std::span<const RTuple>(in_.R(g), ts_.size()), ts);
    }
    if (trace_ == nullptr) return;
    const int64_t end = NowNs();
    trace_->End(span, end);
    if (!trace_->timed) return;
    trace_->push_ns.push_back(end - start);
    trace_->push_busy_ns += end - start;
    // Generator lag: paced, start minus due time; closed loop, start minus
    // the return of the caller's previous session call.
    trace_->lag_ns.push_back(start - (due > 0 ? due : last_return_));
    last_return_ = end;
    if constexpr (!kSharded<Session>) {
      trace_->backlog_max =
          std::max(trace_->backlog_max, session_->ingest_backlog());
    }
  }

  void Poll() {
    if (trace_ == nullptr) {
      session_->Poll();
      return;
    }
    const int64_t start = NowNs();
    const uint32_t span = trace_->Begin(kPoll, start);
    trace_->call_start = start;
    const uint64_t before = recorder_->count();
    session_->Poll();
    const int64_t end = NowNs();
    const uint64_t delivered = recorder_->count() - before;
    ++poll_calls_;
    if (trace_->timed) {
      ++trace_->polls;
      trace_->poll_busy_ns += end - start;
      trace_->useful_polls += delivered > 0 ? 1 : 0;
      trace_->polled_results += delivered;
      last_return_ = end;
    }
    if (delivered == 0 && poll_calls_ % Trace::kEmptyPollKeep != 0) {
      trace_->Discard(span);
    } else {
      trace_->End(span, end);
    }
  }

  /// Open loop: tuple k of the timed part is due k / (2 * rate) seconds
  /// after the start, R and S alternating.
  int64_t RunPaced(int64_t* first_push, PassResult* out) {
    const double gap_ns = 1e9 / (2.0 * spec_.rate);
    const int64_t t0 = NowNs() + 1'000'000;
    recorder_->StartTimed(first_timed_group_);
    std::vector<std::size_t> backlog;
    int64_t g = first_timed_group_;
    for (; g < in_.max_groups; ++g) {
      const int64_t k = 2 * (g - first_timed_group_);
      for (int side = 0; side < 2; ++side) {
        const int64_t due =
            t0 + static_cast<int64_t>(static_cast<double>(k + side) * gap_ns);
        while (NowNs() < due) Poll();
        Push(side == 1, g, due);
      }
      if constexpr (!kSharded<Session>) {
        if (g % 64 == 0) backlog.push_back(session_->ingest_backlog());
      }
    }
    *first_push = t0;
    const std::size_t half = backlog.size() / 2;
    out->backlog_first_half = Mean(std::vector<std::size_t>(
        backlog.begin(), backlog.begin() + static_cast<std::ptrdiff_t>(half)));
    out->backlog_second_half = Mean(std::vector<std::size_t>(
        backlog.begin() + static_cast<std::ptrdiff_t>(half), backlog.end()));
    return g;
  }

  /// Closed loop: R span, S span, Poll — until the deadline or the inputs
  /// run out.
  int64_t RunClosed(int64_t* first_push) {
    *first_push = NowNs();
    last_return_ = *first_push;
    recorder_->StartTimed(first_timed_group_);
    const int64_t deadline =
        *first_push + static_cast<int64_t>(config_.seconds * 1e9);
    int64_t g = first_timed_group_;
    while (g < in_.max_groups) {
      Push(false, g, 0);
      Push(true, g, 0);
      Poll();
      ++g;
      if (NowNs() >= deadline) break;
    }
    return g;
  }

  const Inputs& in_;
  const WorkloadSpec& spec_;
  PassConfig config_;
  Trace* trace_;
  Session* session_ = nullptr;
  Recorder* recorder_ = nullptr;
  std::vector<Timestamp> ts_;
  int64_t first_timed_group_ = 0;
  int64_t last_return_ = 0;
  uint64_t poll_calls_ = 0;
};

/// runtime.pinned_cpus: distinct CPUs the engine threads of the workload's
/// session, in its default configuration, may run on once started.
inline int DefaultPinnedCpus(const Inputs& in) {
  int64_t setup_ns = 0;
  if (in.spec->sharded) {
    auto session = SetUp<EquiShardedSession>(in, true, nullptr, &setup_ns,
                                             /*default_placement=*/true);
    return EngineCpuCount();
  }
  auto session = SetUp<BandSession>(in, true, nullptr, &setup_ns);
  return EngineCpuCount();
}

/// Runs one pass with the workload's session type.
inline PassResult RunPass(const Inputs& in, const PassConfig& config,
                          Trace* trace) {
  if (in.spec->sharded) {
    return PassRunner<EquiShardedSession>(in, config, trace).Run();
  }
  return PassRunner<BandSession>(in, config, trace).Run();
}

}  // namespace perfbench
