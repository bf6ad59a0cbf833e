// Microbenchmarks of the runtime substrate (google-benchmark): FIFO channel
// operations (the paper cites sub-microsecond core-to-core hops [4]),
// window scans, equi-index probes, and store maintenance.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "common/seq_ring.hpp"
#include "llhj/band_store.hpp"
#include "llhj/store.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "stream/generator.hpp"
#include "stream/message.hpp"

namespace sjoin {
namespace {

void BM_SpscPushPop(benchmark::State& state) {
  SpscQueue<FlowMsg<RTuple>> queue(1024);
  FlowMsg<RTuple> msg;
  FlowMsg<RTuple> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.TryPush(msg));
    benchmark::DoNotOptimize(queue.TryPop(&out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscPushPop);

void BM_SpscCrossThreadHop(benchmark::State& state) {
  // Round-trip ping/pong across two threads approximates 2x the one-hop
  // channel latency cited from Baumann et al. [4].
  SpscQueue<uint64_t> ping(64);
  SpscQueue<uint64_t> pong(64);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    uint64_t v;
    while (!stop.load(std::memory_order_acquire)) {
      if (ping.TryPop(&v)) {
        while (!pong.TryPush(v)) {
        }
      }
    }
  });
  uint64_t v = 0;
  for (auto _ : state) {
    while (!ping.TryPush(v)) {
    }
    uint64_t r;
    while (!pong.TryPop(&r)) {
    }
    benchmark::DoNotOptimize(r);
  }
  stop.store(true, std::memory_order_release);
  echo.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscCrossThreadHop);

// Cross-thread hop into a consumer on a ThreadedExecutor, reporting the
// hop's p50 and p99 in microseconds. `wait_for_park` selects the idle case
// the hop meets:
//  * parked: the consumer has used up its hot window and parked on its
//    doorbell before every push, so each hop pays one futex wake-up (a
//    pipeline idle for longer than kHotIdle);
//  * hot: a push every 100 us, inside the hot window, so the consumer is
//    still pausing or yielding and each hop is a cache-line transfer (paced
//    input, paper Fig. 19).
// Both are bound by the host's scheduler, so rows must carry their host
// (vCPU count, shared or dedicated).
void ConsumerHop(benchmark::State& state, bool wait_for_park) {
  using Clock = std::chrono::steady_clock;
  struct Sink : Steppable {
    SpscQueue<int64_t>* in = nullptr;
    std::atomic<uint64_t> received{0};
    std::vector<int64_t> hops_ns;
    bool Step() override {
      int64_t sent = 0;
      if (!in->TryPop(&sent)) return false;
      hops_ns.push_back(Clock::now().time_since_epoch().count() - sent);
      received.fetch_add(1, std::memory_order_release);
      return true;
    }
  };
  constexpr std::chrono::microseconds kHotGap{100};
  SpscQueue<int64_t> ring(64);
  Sink sink;
  sink.in = &ring;
  sink.hops_ns.reserve(1 << 16);
  ThreadedExecutor exec;
  exec.Add(&sink);
  exec.Start();
  uint64_t sent = 0;
  Clock::time_point last_push = Clock::now();
  for (auto _ : state) {
    if (wait_for_park) {
      // Wait for the consumer to park again after the previous delivery.
      const uint64_t parks = exec.parks();
      while (exec.parks() == parks) std::this_thread::yield();
    } else {
      while (Clock::now() - last_push < kHotGap) std::this_thread::yield();
    }
    last_push = Clock::now();
    ring.TryPush(last_push.time_since_epoch().count());
    ++sent;
    while (sink.received.load(std::memory_order_acquire) != sent) {
      std::this_thread::yield();
    }
  }
  exec.Stop();
  std::vector<int64_t> hops = sink.hops_ns;
  std::sort(hops.begin(), hops.end());
  auto quantile_us = [&](double q) {
    if (hops.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(hops.size() - 1));
    return static_cast<double>(hops[i]) / 1e3;
  };
  state.counters["hop_p50_us"] = quantile_us(0.50);
  state.counters["hop_p99_us"] = quantile_us(0.99);
  state.counters["parks"] = static_cast<double>(exec.parks());
  state.SetItemsProcessed(static_cast<int64_t>(sent));
}

void BM_SpscParkedConsumerHop(benchmark::State& state) {
  ConsumerHop(state, /*wait_for_park=*/true);
}
BENCHMARK(BM_SpscParkedConsumerHop)->Iterations(3000)->UseRealTime();

void BM_SpscHotConsumerHop(benchmark::State& state) {
  ConsumerHop(state, /*wait_for_park=*/false);
}
BENCHMARK(BM_SpscHotConsumerHop)->Iterations(3000)->UseRealTime();

// -- SPSC transfer: single-message vs burst mode. ----------------------------
//
// The pair below is the referee for the burst-transport change: the same
// number of messages moved through the channel one at a time (TryPush +
// Front/PopFront — an acquire/release pair per element, the seed's node hot
// path) versus in bursts (TryPushBurst + PeekBurst/ConsumeBurst — one index
// update per run). Same-thread so the comparison measures the queue-op cost
// itself and is meaningful on single-core CI hosts too. Compare
// items_per_second: burst mode must stay >= 2x single mode.

void BM_SpscTransferSingle(benchmark::State& state) {
  constexpr std::size_t kBatch = 64;
  SpscQueue<FlowMsg<RTuple>> queue(1024);
  FlowMsg<RTuple> msg;
  uint64_t acc = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) queue.TryPush(msg);
    for (std::size_t i = 0; i < kBatch; ++i) {
      acc += queue.Front()->seq;
      queue.PopFront();
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SpscTransferSingle);

void BM_SpscTransferBurst(benchmark::State& state) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  SpscQueue<FlowMsg<RTuple>> queue(1024);
  std::vector<FlowMsg<RTuple>> batch(burst);
  uint64_t acc = 0;
  for (auto _ : state) {
    queue.TryPushBurst(batch.data(), burst);
    FlowMsg<RTuple>* first = nullptr;
    std::size_t n;
    while ((n = queue.PeekBurst(&first)) != 0) {
      for (std::size_t i = 0; i < n; ++i) acc += first[i].seq;
      queue.ConsumeBurst(n);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(burst));
}
BENCHMARK(BM_SpscTransferBurst)->Arg(16)->Arg(64)->Arg(256);

// Cross-thread variants of the same pair. On a multicore host these show
// the cache-line ping-pong amortization too; on a single-core host both
// are timeslice-bound and converge.

void BM_SpscCrossThreadTransferSingle(benchmark::State& state) {
  SpscQueue<FlowMsg<RTuple>> queue(1024);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    FlowMsg<RTuple> msg;
    while (!stop.load(std::memory_order_relaxed)) {
      queue.TryPush(msg);
    }
  });
  FlowMsg<RTuple> out;
  uint64_t items = 0;
  for (auto _ : state) {
    while (!queue.TryPop(&out)) {
    }
    ++items;
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  state.SetItemsProcessed(static_cast<int64_t>(items));
}
BENCHMARK(BM_SpscCrossThreadTransferSingle);

void BM_SpscCrossThreadTransferBurst(benchmark::State& state) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  SpscQueue<FlowMsg<RTuple>> queue(1024);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::vector<FlowMsg<RTuple>> batch(burst);
    while (!stop.load(std::memory_order_relaxed)) {
      std::size_t pushed = 0;
      while (pushed < burst && !stop.load(std::memory_order_relaxed)) {
        pushed += queue.TryPushBurst(batch.data() + pushed, burst - pushed);
      }
    }
  });
  uint64_t items = 0;
  for (auto _ : state) {
    FlowMsg<RTuple>* first = nullptr;
    std::size_t n;
    while ((n = queue.PeekBurst(&first)) == 0) {
    }
    benchmark::DoNotOptimize(first);
    queue.ConsumeBurst(n);
    items += n;
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  state.SetItemsProcessed(static_cast<int64_t>(items));
}
BENCHMARK(BM_SpscCrossThreadTransferBurst)->Arg(64);

void BM_WindowScanBand(benchmark::State& state) {
  const int64_t window = state.range(0);
  Rng rng(1);
  VectorStore<STuple> store;
  for (int64_t i = 0; i < window; ++i) {
    Stamped<STuple> s{MakeBandS(rng), static_cast<Seq>(i), 0, 0};
    store.Insert(s, false);
  }
  BandPredicate pred;
  RTuple r = MakeBandR(rng);
  uint64_t matches = 0;
  for (auto _ : state) {
    store.ForEach(r, [&](const StoreEntry<STuple>& e) {
      matches += pred(r, e.tuple.value) ? 1 : 0;
    });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * window);
}
BENCHMARK(BM_WindowScanBand)->Arg(1024)->Arg(16384)->Arg(131072);

/// The equi-join index: an S window in the radius-0 BandStore, one key
/// bucket per probe.
using EquiBandS = BandStore<RTuple, STuple, EquiPredicate, StreamSide::kS>;

void BM_EquiBandProbe(benchmark::State& state) {
  const int64_t window = state.range(0);
  Rng rng(1);
  const QuerySet<EquiPredicate> queries{EquiPredicate{}};
  EquiBandS store(queries);
  for (int64_t i = 0; i < window; ++i) {
    Stamped<STuple> s{MakeBandS(rng), static_cast<Seq>(i), 0, 0};
    store.Insert(s, false);
  }
  const Stamped<RTuple> r{MakeBandR(rng), 0, 0, 0};
  uint64_t matches = 0;
  for (auto _ : state) {
    store.MatchBatch<true>(
        queries, &r, 1,
        [&](std::size_t, QueryId, const StoreEntry<STuple>&) { ++matches; });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EquiBandProbe)->Arg(16384)->Arg(131072);

void BM_StoreInsertEraseCycle(benchmark::State& state) {
  Rng rng(1);
  VectorStore<STuple> store;
  Seq seq = 0;
  for (int i = 0; i < 1024; ++i) {
    store.Insert(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0}, false);
  }
  Seq oldest = 0;
  for (auto _ : state) {
    store.Insert(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0}, false);
    benchmark::DoNotOptimize(store.EraseSeq(oldest++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreInsertEraseCycle);

void BM_EquiBandInsertEraseCycle(benchmark::State& state) {
  Rng rng(1);
  EquiBandS store(QuerySet<EquiPredicate>{EquiPredicate{}});
  Seq seq = 0;
  for (int i = 0; i < 1024; ++i) {
    store.Insert(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0}, false);
  }
  Seq oldest = 0;
  for (auto _ : state) {
    store.Insert(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0}, false);
    benchmark::DoNotOptimize(store.EraseSeq(oldest++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EquiBandInsertEraseCycle);

// Steady-state LLHJ home-node maintenance: each cycle is one arrival
// (insert expedited), one expedition-end (clear, `lag` entries behind the
// newest — the pipeline-transit lag), and one window expiry (erase oldest).
// The seed ClearExpedited walked the whole cleared prefix (O(window)); the
// ring store walks only the expedited suffix (O(lag)), so this bench should
// be window-size-insensitive.
void BM_VectorStoreExpeditionCycle(benchmark::State& state) {
  const int64_t window = state.range(0);
  constexpr Seq kLag = 16;
  Rng rng(1);
  VectorStore<STuple> store;
  Seq seq = 0;
  for (int64_t i = 0; i < window; ++i) {
    store.Insert(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0}, true);
  }
  Seq clear_seq = 0;
  while (clear_seq + kLag < seq) store.ClearExpedited(clear_seq++);
  Seq oldest = 0;
  for (auto _ : state) {
    store.Insert(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0}, true);
    benchmark::DoNotOptimize(store.ClearExpedited(clear_seq++));
    benchmark::DoNotOptimize(store.EraseSeq(oldest++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VectorStoreExpeditionCycle)->Arg(1024)->Arg(16384)->Arg(131072);

// IWS maintenance: append a forwarded tuple, erase an acked one `lag`
// entries behind (FIFO acknowledgements). The seed used a deque with a
// linear erase scan; SeqRing resolves the seq through a flat index.
void BM_SeqRingAckCycle(benchmark::State& state) {
  const int64_t lag = state.range(0);
  SeqRing<Stamped<STuple>> iws;
  Rng rng(1);
  Seq seq = 0;
  for (int64_t i = 0; i < lag; ++i) {
    iws.PushBack(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0});
  }
  Seq acked = 0;
  for (auto _ : state) {
    iws.PushBack(Stamped<STuple>{MakeBandS(rng), seq++, 0, 0});
    benchmark::DoNotOptimize(iws.Erase(acked++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeqRingAckCycle)->Arg(16)->Arg(256)->Arg(4096);

// Point ops of the flat seq-keyed table vs the std::unordered containers it
// replaced (tombstones, seq indexes).
void BM_FlatSetTombstoneCycle(benchmark::State& state) {
  FlatSet<Seq> set;
  Seq seq = 0;
  for (int i = 0; i < 1024; ++i) set.Insert(seq++);
  Seq oldest = 0;
  for (auto _ : state) {
    set.Insert(seq++);
    benchmark::DoNotOptimize(set.Erase(oldest++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatSetTombstoneCycle);

}  // namespace
}  // namespace sjoin
