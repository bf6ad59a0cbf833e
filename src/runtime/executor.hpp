// Execution of pipeline nodes. Every node implements Steppable: one Step()
// processes a bounded number of pending messages and reports whether any
// progress was made. Two executors share that interface:
//
//  * SequentialExecutor — single-threaded, deterministic. Used by the test
//    oracle comparisons and the schedule fuzzer: correctness of the
//    handshake-join protocols must not depend on thread timing, so tests
//    drive nodes in explicit (including adversarial) orders.
//  * ThreadedExecutor — one thread per steppable, placed via a
//    PlacementPlan (pipeline positions on neighbouring cores — see
//    runtime/placement.hpp). An idle thread stays hot, pausing and
//    yielding, for kHotIdle after its last productive Step(), then parks
//    on its futex doorbell until a push into one of its rings wakes it
//    (runtime/doorbell.hpp). Under steady input no thread parks,
//    so a downstream node takes a forwarded run without a wake; the price
//    is up to one CPU per idle thread for the window's length. On an
//    executor with more threads than placed CPUs an idle thread parks once
//    the Backoff ladder's pause and yield rungs are used up. This is the
//    deployment configuration and what all benchmarks use.
//
// Thread-start protocol (ThreadedExecutor): every thread pins itself, runs
// its steppable's OnThreadStart() hook, and then waits on a start barrier
// until ALL threads have done so; Start() returns only after the barrier
// clears. Consumer-side placement hooks (SpscQueue::PrefaultByConsumer)
// therefore always run before any producer pushes — no data race, and
// every ring page is first written by the thread that reads it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/backoff.hpp"
#include "runtime/doorbell.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"

namespace sjoin {

/// A unit of cooperative execution (pipeline node, collector, ...).
class Steppable {
 public:
  virtual ~Steppable() = default;

  /// Processes a bounded amount of pending work. Returns true iff any
  /// message was consumed or produced (used for quiescence detection).
  virtual bool Step() = 0;

  /// Placement hook, called exactly once on the thread that will run
  /// Step() — after pinning, before any Step() anywhere (ThreadedExecutor's
  /// start barrier). Nodes prefault their consumer-side channel memory
  /// here. Default: nothing.
  virtual void OnThreadStart() {}
};

/// Messages a pipeline node consumes per input channel and Step(): the
/// length of the arrival runs its batch-aware matching probes in one pass.
inline constexpr std::size_t kMsgsPerStep = 8;

/// Deterministic single-threaded executor.
class SequentialExecutor {
 public:
  void Add(Steppable* s) { steppables_.push_back(s); }

  std::size_t size() const { return steppables_.size(); }
  Steppable* at(std::size_t i) const { return steppables_[i]; }

  /// One pass over all steppables in registration order. Returns true iff
  /// any made progress.
  bool StepOnce();

  /// Runs until a full pass makes no progress. Returns the number of passes
  /// executed; aborts (returns max_passes) if the limit is hit, which tests
  /// treat as a livelock failure.
  std::size_t RunUntilQuiescent(std::size_t max_passes = 1 << 22);

 private:
  std::vector<Steppable*> steppables_;
};

/// One placed thread per steppable.
class ThreadedExecutor {
 public:
  /// Places registered steppables by building a plan over `topology` with
  /// `policy` at Start() time: Add() order gives the pipeline positions.
  explicit ThreadedExecutor(Topology topology = Topology::Detect(),
                            PlacementPolicy policy = PlacementPolicy::kAuto)
      : topology_(std::move(topology)), policy_(policy) {}

  /// Uses a prebuilt plan (the JoinSession path).
  explicit ThreadedExecutor(PlacementPlan plan)
      : plan_(std::move(plan)), have_plan_(true) {}

  ~ThreadedExecutor();

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

  /// Registers a pipeline steppable: it takes the next pipeline position of
  /// the plan. An explicit cpu_hint >= 0 overrides the plan; pinning is
  /// always best-effort.
  void Add(Steppable* s, int cpu_hint = -1);

  /// Launches all threads and returns once every one of them has pinned
  /// itself and finished OnThreadStart() (the start barrier) — after
  /// Start() returns, callers may push into consumer-prefaulted channels.
  void Start();

  /// Signals all threads to finish their current Step (waking parked ones)
  /// and joins them.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Times this executor's threads have parked on their doorbells so far
  /// (diagnostics: a thread idle past the hot window parks once per timed
  /// fallback).
  uint64_t parks() const {
    uint64_t n = 0;
    for (const auto& bell : doorbells_) n += bell->parks();
    return n;
  }

  /// Times a push (or Stop()) has woken one of this executor's threads
  /// from its doorbell so far (diagnostics).
  uint64_t wakes() const {
    uint64_t n = 0;
    for (const auto& bell : doorbells_) n += bell->wakes();
    return n;
  }

  /// Times one of this executor's threads found work after a park that
  /// ended without a ring, with no ring since (diagnostics: work that
  /// appeared without a push waited up to kParkTimeout for it).
  uint64_t missed_wakes() const {
    uint64_t n = 0;
    for (const auto& bell : doorbells_) n += bell->missed_wakes();
    return n;
  }

  /// Whether idle threads stay hot for kHotIdle before they park (valid
  /// after Start()): true when every thread has a placed CPU of its own.
  bool hot() const { return hot_; }

  /// The plan threads were placed with (valid after Start()).
  const PlacementPlan& plan() const { return plan_; }

 private:
  struct Entry {
    Steppable* steppable;
    int cpu_hint;
    int position;  ///< pipeline position in the plan
  };

  void ThreadMain(const Entry& entry, Doorbell* bell,
                  std::size_t thread_count);

  Topology topology_{Topology::Synthetic(0)};
  PlacementPolicy policy_ = PlacementPolicy::kAuto;
  PlacementPlan plan_;
  bool have_plan_ = false;
  int positions_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::thread> threads_;
  bool hot_ = true;
  // One per entry, alive until the executor is destroyed: a producer may
  // still hold a doorbell pointer it loaded just before the thread exited.
  std::vector<std::unique_ptr<Doorbell>> doorbells_;
  std::atomic<std::size_t> ready_{0};  ///< start-barrier arrival count
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace sjoin
