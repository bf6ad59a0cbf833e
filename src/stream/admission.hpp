// Latency-budget overload control (DESIGN.md Section 12). The admission
// controller sits at the ingest boundary (the JoinSession driver) and
// closes the system's first end-to-end control loop:
//
//   sense    — EWMA of observed result latency (fed by the collector side)
//              plus the driver-visible backlog (channel occupancy) times
//              the EWMA of the driver's delivery spacing;
//   decide   — ProjectedAdmissionLatencyNs (stream/latency_model.hpp)
//              against the session's budget, per OverloadPolicy;
//   actuate  — shed the tuple AT INGEST, never mid-window: a shed tuple
//              consumes its sequence number (so the gap is expressible)
//              but never reaches a window store, an expiry tracker, or a
//              channel;
//   account  — every shed run is recorded as an exact (first_seq, count)
//              gap per side, drained by the caller into in-band
//              kLossPunctuation messages.
//
// Threading: ObserveResult is called from the collector/polling thread,
// the decision/accounting methods from the single driver thread. The
// observation state is relaxed atomics (a latency EWMA needs no ordering);
// the gap accounting is driver-thread-only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "stream/latency_model.hpp"
#include "stream/message.hpp"

namespace sjoin {

/// What to do with a tuple that cannot make its latency budget.
enum class OverloadPolicy : uint8_t {
  kNone = 0,     ///< never shed; bounded queues backpressure (the baseline)
  kDropNewest,   ///< shed the incoming tuple
  kSample,       ///< degrade to sampled matching: admit 1-in-N while over
};

constexpr const char* ToString(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kNone:
      return "none";
    case OverloadPolicy::kDropNewest:
      return "drop_newest";
    case OverloadPolicy::kSample:
      return "sample";
  }
  return "?";
}

/// Parses a policy name; throws std::invalid_argument naming the offending
/// value (PR 3 knob discipline: unknown string knobs must self-diagnose).
inline OverloadPolicy ParseOverloadPolicy(const std::string& name) {
  if (name == "none") return OverloadPolicy::kNone;
  if (name == "drop_newest") return OverloadPolicy::kDropNewest;
  if (name == "sample") return OverloadPolicy::kSample;
  throw std::invalid_argument(
      "ParseOverloadPolicy: unknown overload policy \"" + name +
      "\" (expected none|drop_newest|sample)");
}

class AdmissionController {
 public:
  struct Options {
    int64_t budget_ns = 0;  ///< 0 with kNone = admission disabled
    OverloadPolicy policy = OverloadPolicy::kNone;
    /// EWMA smoothing factor for the observed result latency (and the
    /// per-message service estimate derived from result spacing).
    double ewma_alpha = 0.125;
    /// kSample: while over budget, admit one tuple in this many per side.
    uint32_t sample_keep_one_in = 8;
  };

  AdmissionController() = default;
  explicit AdmissionController(const Options& options) : options_(options) {}

  /// Late configuration for owners that construct the controller before the
  /// session config is final (JoinSession). Leaves the force-shed hook and
  /// all accounting state untouched.
  void Configure(const Options& options) { options_ = options; }

  const Options& options() const { return options_; }
  OverloadPolicy policy() const { return options_.policy; }
  bool enabled() const {
    return options_.policy != OverloadPolicy::kNone && options_.budget_ns > 0;
  }

  /// Test hook: when set, it alone decides shedding (by side and sequence
  /// number) — the fuzz tests use it to shed arbitrary ingest prefixes,
  /// suffixes and subsets deterministically. Accounting is unchanged.
  void SetForceShed(std::function<bool(StreamSide, Seq)> fn) {
    force_shed_ = std::move(fn);
  }
  bool has_force_shed() const { return static_cast<bool>(force_shed_); }

  // -- Sensing (collector/polling thread) ------------------------------------

  /// Feeds one observed end-to-end result latency into the EWMA.
  void ObserveResult(int64_t latency_ns, int64_t now_ns) {
    if (latency_ns < 0) latency_ns = 0;
    const double a = options_.ewma_alpha;
    const double prev = ewma_latency_ns_.load(std::memory_order_relaxed);
    const double next = prev <= 0.0
                            ? static_cast<double>(latency_ns)
                            : prev + a * (static_cast<double>(latency_ns) -
                                          prev);
    ewma_latency_ns_.store(next, std::memory_order_relaxed);
    last_observe_ns_.store(now_ns, std::memory_order_relaxed);
  }

  /// Feeds the number of messages actually handed to the channels since
  /// the last call; the per-message service estimate is the elapsed wall
  /// time divided by that count. Delivery spacing — NOT result spacing —
  /// is the right service sensor: a selective join can emit arbitrarily
  /// few results, which would wildly overestimate per-message cost, while
  /// under backpressure the producer can only hand off what the pipeline
  /// actually drains. Below saturation the estimate degrades to the
  /// offered inter-arrival time, which conservatively bounds the true
  /// service time from above with a small backlog — harmless.
  void ObserveDelivered(std::size_t count, int64_t now_ns) {
    if (count == 0) return;
    const int64_t last = last_delivery_ns_.load(std::memory_order_relaxed);
    last_delivery_ns_.store(now_ns, std::memory_order_relaxed);
    if (last == 0 || now_ns <= last) return;
    const double per_msg = static_cast<double>(now_ns - last) /
                           static_cast<double>(count);
    const double a = options_.ewma_alpha;
    const double prev = ewma_service_ns_.load(std::memory_order_relaxed);
    ewma_service_ns_.store(prev <= 0.0 ? per_msg : prev + a * (per_msg - prev),
                           std::memory_order_relaxed);
  }

  int64_t ewma_latency_ns() const {
    return static_cast<int64_t>(
        ewma_latency_ns_.load(std::memory_order_relaxed));
  }
  int64_t ewma_service_ns() const {
    return static_cast<int64_t>(
        ewma_service_ns_.load(std::memory_order_relaxed));
  }

  // -- Decision (driver thread) ----------------------------------------------

  /// True when a tuple that has already waited (now - arrival) and would
  /// join `backlog_msgs` queued messages projects past the budget. The
  /// latency EWMA moves only when a result arrives, and while it reads
  /// over budget every arrival is shed, so no result would ever move it
  /// again: once no result has been seen for longer than one budget, the
  /// latency term is stale and left out, and the backlog term decides.
  bool OverBudget(int64_t now_ns, int64_t arrival_wall_ns,
                  std::size_t backlog_msgs) const {
    if (!enabled()) return false;
    const bool stale =
        now_ns - last_observe_ns_.load(std::memory_order_relaxed) >
        options_.budget_ns;
    const int64_t projected = ProjectedAdmissionLatencyNs(
        now_ns - arrival_wall_ns, stale ? 0 : ewma_latency_ns(),
        static_cast<int64_t>(backlog_msgs), ewma_service_ns());
    return projected > options_.budget_ns;
  }

  /// Full policy decision for ONE incoming tuple: returns true when the
  /// caller must shed it. The force-shed test hook, when set, overrides the
  /// budget logic entirely.
  bool ShouldShed(StreamSide side, Seq seq, int64_t now_ns,
                  int64_t arrival_wall_ns, std::size_t backlog_msgs) {
    if (force_shed_) return force_shed_(side, seq);
    if (!OverBudget(now_ns, arrival_wall_ns, backlog_msgs)) return false;
    if (options_.policy == OverloadPolicy::kSample) {
      // Sampled degradation: keep a deterministic 1-in-N while over budget.
      uint64_t& n = side == StreamSide::kR ? sample_r_ : sample_s_;
      return (n++ % options_.sample_keep_one_in) != 0;
    }
    return true;
  }

  // -- Accounting (driver thread) --------------------------------------------

  /// Records one shed tuple. Adjacent sheds of a side coalesce into one
  /// open gap; the caller drains closed gaps via TakeGap (it must do so at
  /// the latest when the next admitted tuple of that side is delivered, so
  /// the punctuation stays at its in-band position).
  void RecordShed(StreamSide side, Seq seq) {
    auto& gaps = side == StreamSide::kR ? gaps_r_ : gaps_s_;
    if (!gaps.empty() && gaps.back().first_seq + gaps.back().count == seq) {
      ++gaps.back().count;
    } else {
      gaps.push_back(LossBound{side, seq, 1});
    }
    auto& total = side == StreamSide::kR ? shed_r_ : shed_s_;
    total.fetch_add(1, std::memory_order_relaxed);
  }

  /// Pops the oldest recorded gap of `side` into `*out`. Returns false when
  /// no gap is pending.
  bool TakeGap(StreamSide side, LossBound* out) {
    auto& gaps = side == StreamSide::kR ? gaps_r_ : gaps_s_;
    if (gaps.empty()) return false;
    *out = gaps.front();
    gaps.erase(gaps.begin());
    return true;
  }

  bool HasGap(StreamSide side) const {
    return side == StreamSide::kR ? !gaps_r_.empty() : !gaps_s_.empty();
  }

  /// Ground truth for the accounting invariant: total tuples shed per side
  /// (sum of all punctuated (first_seq, count) gaps must equal this).
  uint64_t shed_count(StreamSide side) const {
    return side == StreamSide::kR
               ? shed_r_.load(std::memory_order_relaxed)
               : shed_s_.load(std::memory_order_relaxed);
  }
  uint64_t shed_total() const {
    return shed_count(StreamSide::kR) + shed_count(StreamSide::kS);
  }

 private:
  Options options_;
  std::function<bool(StreamSide, Seq)> force_shed_;

  // Sensing state (relaxed atomics; written by the observer thread).
  std::atomic<double> ewma_latency_ns_{0.0};
  std::atomic<double> ewma_service_ns_{0.0};
  std::atomic<int64_t> last_observe_ns_{0};
  std::atomic<int64_t> last_delivery_ns_{0};

  // Accounting state (driver thread only, except the shed totals which are
  // read cross-thread for introspection).
  std::vector<LossBound> gaps_r_;
  std::vector<LossBound> gaps_s_;
  uint64_t sample_r_ = 0;
  uint64_t sample_s_ = 0;
  std::atomic<uint64_t> shed_r_{0};
  std::atomic<uint64_t> shed_s_{0};
};

}  // namespace sjoin
