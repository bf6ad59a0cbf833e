// Isolated layer rungs of the traced run: single calls into one layer's
// public functions, on inputs shaped like the workloads (same tuple types,
// window sizes and key domains). Each timing is the median of several
// repetitions.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "llhj/store.hpp"
#include "runtime/backoff.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "stream/message.hpp"
#include "stream/query_set.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr int kRungRepeats = 15;

/// Median over kRungRepeats of `body()`'s duration divided by `units`.
template <typename Body>
double MedianNsPer(double units, Body&& body) {
  std::vector<double> samples;
  for (int i = 0; i < kRungRepeats; ++i) {
    const int64_t t0 = sjoin::NowNs();
    body();
    samples.push_back(static_cast<double>(sjoin::NowNs() - t0) / units);
  }
  return Quantile(samples, 0.5);
}

inline sjoin::VectorStore<STuple> FilledStore(int32_t domain,
                                              std::size_t entries,
                                              sjoin::Rng& rng) {
  sjoin::VectorStore<STuple> store;
  for (std::size_t i = 0; i < entries; ++i) {
    sjoin::Stamped<STuple> t;
    t.value = MakeS(rng, domain);
    t.seq = i;
    t.ts = static_cast<sjoin::Timestamp>(i);
    store.Insert(t, /*expedited=*/false);
  }
  return store;
}

/// VectorStore::MatchBatch of a batch of R probes (the node's batch size,
/// msgs_per_step = 8) over a full S window; ns per probe x entry.
template <typename Pred>
double ScanNsPerEntry(Pred pred, int32_t domain, std::size_t window,
                      uint64_t seed) {
  constexpr std::size_t kProbes = 8;
  sjoin::Rng rng(seed);
  const sjoin::VectorStore<STuple> store = FilledStore(domain, window, rng);
  std::array<sjoin::Stamped<RTuple>, kProbes> probes;
  for (auto& p : probes) p.value = MakeR(rng, domain);
  const sjoin::QuerySet<Pred> queries(pred);
  uint64_t matches = 0;
  constexpr int kSweeps = 64;
  const double ns = MedianNsPer(
      static_cast<double>(kSweeps * kProbes * window), [&] {
        for (int i = 0; i < kSweeps; ++i) {
          store.MatchBatch<true>(
              queries, probes.data(), kProbes,
              [&](std::size_t, sjoin::QueryId,
                  const sjoin::StoreEntry<STuple>&) { ++matches; });
        }
      });
  volatile uint64_t sink = matches;
  (void)sink;
  return ns;
}

/// VectorStore Insert of a new tuple plus EraseSeq of the oldest, at a
/// steady window of `window` entries; ns per insert+expire pair.
inline double InsertExpireNs(int32_t domain, std::size_t window,
                             uint64_t seed) {
  sjoin::Rng rng(seed);
  sjoin::VectorStore<STuple> store = FilledStore(domain, window, rng);
  std::vector<STuple> fresh;
  for (int i = 0; i < 4096; ++i) fresh.push_back(MakeS(rng, domain));
  sjoin::Seq next = window;
  constexpr int kOps = 1 << 16;
  return MedianNsPer(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      sjoin::Stamped<STuple> t;
      t.value = fresh[static_cast<std::size_t>(i) & 4095];
      t.seq = next;
      t.ts = static_cast<sjoin::Timestamp>(next);
      store.Insert(t, false);
      store.EraseSeq(next - window);
      ++next;
    }
  });
}

/// Same-thread TryPushBurst / PeekBurst / ConsumeBurst of 64 arrival
/// messages through a channel of the session's default capacity; ns per
/// message.
inline double SpscBurstNsPerMsg(uint64_t seed) {
  constexpr std::size_t kBurst = 64;
  sjoin::Rng rng(seed);
  sjoin::SpscQueue<sjoin::FlowMsg<RTuple>> queue(1024);
  std::vector<sjoin::FlowMsg<RTuple>> burst(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    burst[i].seq = i;
    burst[i].payload = MakeR(rng, 10'000);
  }
  uint64_t sum = 0;
  constexpr int kBursts = 1 << 14;
  const double ns = MedianNsPer(static_cast<double>(kBursts * kBurst), [&] {
    for (int i = 0; i < kBursts; ++i) {
      queue.TryPushBurst(burst.data(), kBurst);
      sjoin::FlowMsg<RTuple>* run = nullptr;
      const std::size_t n = queue.PeekBurst(&run);
      for (std::size_t j = 0; j < n; ++j) sum += run[j].seq;
      queue.ConsumeBurst(n);
    }
  });
  volatile uint64_t sink = sum;
  (void)sink;
  return ns;
}

/// Cross-thread hop: the caller injects a message every `gap_ns`; a first
/// echo Steppable stamps it and forwards it over an SpscQueue to a second
/// one on another executor thread, which stamps its arrival. Returns the
/// per-message hop times in ns.
inline std::vector<int64_t> HopNs(int messages, double gap_ns) {
  struct Msg {
    int64_t sent = 0;
    int64_t received = 0;
  };
  class Echo : public sjoin::Steppable {
   public:
    Echo(sjoin::SpscQueue<Msg>* in, sjoin::SpscQueue<Msg>* out, bool sender)
        : in_(in), out_(out), sender_(sender) {}
    bool Step() override {
      Msg m;
      if (!in_->TryPop(&m)) return false;
      (sender_ ? m.sent : m.received) = sjoin::NowNs();
      while (!out_->TryPush(m)) sjoin::CpuRelax();
      return true;
    }

   private:
    sjoin::SpscQueue<Msg>* in_;
    sjoin::SpscQueue<Msg>* out_;
    bool sender_;
  };

  sjoin::SpscQueue<Msg> inject(64);
  sjoin::SpscQueue<Msg> link(64);
  sjoin::SpscQueue<Msg> back(64);
  Echo first(&inject, &link, /*sender=*/true);
  Echo second(&link, &back, /*sender=*/false);
  sjoin::ThreadedExecutor executor;
  executor.Add(&first);
  executor.Add(&second);
  executor.Start();
  const CallerPin pin;
  std::vector<int64_t> hops;
  hops.reserve(static_cast<std::size_t>(messages));
  auto drain = [&] {
    Msg m;
    while (back.TryPop(&m)) hops.push_back(m.received - m.sent);
  };
  const int64_t t0 = sjoin::NowNs() + 1'000'000;
  for (int i = 0; i < messages; ++i) {
    const int64_t due = t0 + static_cast<int64_t>(i * gap_ns);
    while (sjoin::NowNs() < due) drain();
    while (!inject.TryPush(Msg{})) drain();
  }
  while (hops.size() < static_cast<std::size_t>(messages)) drain();
  executor.Stop();
  return hops;
}

}  // namespace perfbench
