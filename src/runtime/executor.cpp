#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>

#include "common/contracts.hpp"
#include "runtime/affinity.hpp"

namespace sjoin {

bool SequentialExecutor::StepOnce() {
  bool progress = false;
  for (Steppable* s : steppables_) progress |= s->Step();
  return progress;
}

std::size_t SequentialExecutor::RunUntilQuiescent(std::size_t max_passes) {
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    if (!StepOnce()) return pass;
  }
  return max_passes;
}

ThreadedExecutor::~ThreadedExecutor() { Stop(); }

void ThreadedExecutor::Add(Steppable* s, int cpu_hint) {
  entries_.push_back(Entry{s, cpu_hint, positions_++});
}

void ThreadedExecutor::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  // Thread ownership changes hands here (checked-contracts builds):
  // whatever thread drove the steppables before — a main thread warming
  // channels, a previous generation's workers — gives way to the threads
  // spawned below, so SPSC/channel roles may rebind once.
  contracts::AdvanceGeneration();
  stop_.store(false, std::memory_order_release);
  ready_.store(0, std::memory_order_release);
  if (!have_plan_) {
    plan_ = PlacementPlan::Build(topology_, policy_, positions_);
    have_plan_ = true;
  }
  const std::size_t count = entries_.size();
  threads_.reserve(count);
  while (doorbells_.size() < count) {
    doorbells_.push_back(std::make_unique<Doorbell>());
  }
  std::vector<Entry> resolved = entries_;
  std::vector<int> cpus;
  for (Entry& entry : resolved) {
    if (entry.cpu_hint < 0) {
      entry.cpu_hint = plan_.CpuForPosition(entry.position);
    }
    if (entry.cpu_hint >= 0) cpus.push_back(entry.cpu_hint);
  }
  // Stay hot only when every thread has a placed CPU of its own: on an
  // oversubscribed executor a spinning thread takes time from one with
  // work, so idle threads there park once the Backoff ladder's pause and
  // yield rungs are used up (DESIGN.md Section 16).
  std::sort(cpus.begin(), cpus.end());
  const auto placed = static_cast<std::size_t>(
      std::unique(cpus.begin(), cpus.end()) - cpus.begin());
  hot_ = count <= placed;
  for (std::size_t i = 0; i < count; ++i) {
    Doorbell* bell = doorbells_[i].get();
    threads_.emplace_back([this, entry = resolved[i], bell, count] {
      ThreadMain(entry, bell, count);
    });
  }
  // Start barrier, caller side: once this clears, every thread has pinned
  // itself and run OnThreadStart (consumer-side channel prefault), so the
  // caller may start producing.
  Backoff backoff;
  while (ready_.load(std::memory_order_acquire) < count) backoff.Pause();
}

void ThreadedExecutor::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  // Parked threads see the flag through the doorbell's RMW pairing.
  for (auto& bell : doorbells_) bell->Ring();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  running_.store(false, std::memory_order_release);
  // All workers are joined: the caller (e.g. a bench draining leftover
  // result rings on the main thread) becomes a legitimate new owner.
  contracts::AdvanceGeneration();
}

void ThreadedExecutor::ThreadMain(const Entry& entry, Doorbell* bell,
                                  std::size_t thread_count) {
  PinThisThread(entry.cpu_hint);
  bell->BindToThisThread();
  entry.steppable->OnThreadStart();
  ready_.fetch_add(1, std::memory_order_acq_rel);
  // Start barrier, thread side: no Step (production!) before every
  // OnThreadStart (consumer-side prefault) has completed.
  Backoff barrier_wait;
  while (ready_.load(std::memory_order_acquire) < thread_count &&
         !stop_.load(std::memory_order_acquire)) {
    barrier_wait.Pause();
  }
  // Hot window: an idle thread pauses and yields until kHotIdle has passed
  // since its last productive Step(); the clock is read only while idle.
  // Without a CPU of its own it spins through the ladder's rungs once.
  using Clock = std::chrono::steady_clock;
  Backoff backoff;
  Clock::time_point park_at{};
  while (!stop_.load(std::memory_order_acquire)) {
    if (entry.steppable->Step()) {
      backoff.Reset();
      continue;
    }
    if (hot_) {
      const Clock::time_point now = Clock::now();  // NOLINT(hot-path-clock)
      if (backoff.attempts() == 0) park_at = now + kHotIdle;  // just idle
      if (now < park_at) {
        backoff.Spin();
        continue;
      }
    } else if (backoff.attempts() < Backoff::kYieldLimit) {
      backoff.Spin();
      continue;
    }
    // Park: arm the doorbell, then look once more — a push that raced the
    // arming is seen here or rings the doorbell (runtime/doorbell.hpp). A
    // rung wait goes back round the loop; a wait that timed out unrung
    // stays armed and looks once more, and work found there with no ring
    // since is a missed wake. A look that finds no work parks again.
    bell->Arm();
    bool unrung = false;  // the last Wait returned without a ring
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) {
        bell->Disarm();
        break;
      }
      if (entry.steppable->Step()) {
        if (bell->Disarm() && unrung) bell->CountMissedWake();
        backoff.Reset();
        break;
      }
      unrung = bell->Wait();
      if (!unrung) break;
    }
  }
  bell->Release();
}

}  // namespace sjoin
