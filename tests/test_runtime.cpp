// Tests for topology (sysfs parsing, synthetic shapes, env override),
// placement planning, channel memory placement, affinity, backoff, and the
// two executors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <utility>

#include "runtime/affinity.hpp"
#include "runtime/backoff.hpp"
#include "runtime/doorbell.hpp"
#include "runtime/executor.hpp"
#include "runtime/mempolicy.hpp"
#include "runtime/placement.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/topology.hpp"

namespace sjoin {
namespace {

// -- Fake-sysfs fixtures ------------------------------------------------------

/// Builds a sysfs-shaped tree under a fresh temp dir for Topology::FromSysfs.
class SysfsFixture {
 public:
  explicit SysfsFixture(const std::string& name)
      : root_(std::filesystem::path(::testing::TempDir()) /
              ("sjoin_sysfs_" + name)) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "devices/system/cpu");
    std::filesystem::create_directories(root_ / "devices/system/node");
  }

  ~SysfsFixture() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void WriteFile(const std::string& rel, const std::string& content) {
    const std::filesystem::path path = root_ / rel;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << content << "\n";
  }

  void AddCpu(int cpu, int package, int core) {
    const std::string dir =
        "devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    WriteFile(dir + "physical_package_id", std::to_string(package));
    WriteFile(dir + "core_id", std::to_string(core));
  }

  std::string root() const { return root_.string(); }

 private:
  std::filesystem::path root_;
};

/// 1 package, 2 NUMA nodes x 2 cores x 2 SMT siblings, Linux-style sibling
/// numbering (cpu k and cpu k+4 share a core).
void PopulateTwoNodeSmt(SysfsFixture* fix, const std::string& online) {
  fix->WriteFile("devices/system/cpu/possible", "0-7");
  fix->WriteFile("devices/system/cpu/online", online);
  for (int cpu = 0; cpu < 8; ++cpu) fix->AddCpu(cpu, 0, cpu % 4);
  fix->WriteFile("devices/system/node/node0/cpulist", "0-1,4-5");
  fix->WriteFile("devices/system/node/node1/cpulist", "2-3,6-7");
}

TEST(TopologySysfs, ParsesPackagesNodesSmt) {
  SysfsFixture fix("parse");
  PopulateTwoNodeSmt(&fix, "0-7");
  Topology topo = Topology::FromSysfs(fix.root());

  EXPECT_EQ(topo.cpu_count(), 8);
  EXPECT_EQ(topo.package_count(), 1);
  EXPECT_EQ(topo.node_count(), 2);
  EXPECT_EQ(topo.max_smt(), 2);
  EXPECT_EQ(topo.NodeOfCpu(0), 0);
  EXPECT_EQ(topo.NodeOfCpu(2), 1);
  EXPECT_EQ(topo.NodeOfCpu(6), 1);
  EXPECT_EQ(topo.SmtOfCpu(0), 0);
  EXPECT_EQ(topo.SmtOfCpu(4), 1);  // second sibling of core 0
  // Placement order: one position per physical core first (same-node cores
  // adjacent), SMT siblings only afterwards.
  const std::vector<int> expected = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(topo.cpus(), expected);
  EXPECT_EQ(topo.CpusOnNode(1), (std::vector<int>{2, 3, 6, 7}));
}

TEST(TopologySysfs, SkipsOfflineCpuHoles) {
  SysfsFixture fix("offline");
  PopulateTwoNodeSmt(&fix, "0-2,4-7");  // cpu3 offline
  Topology topo = Topology::FromSysfs(fix.root());

  EXPECT_EQ(topo.cpu_count(), 7);
  EXPECT_EQ(topo.NodeOfCpu(3), -1);  // offline cpu is not in the model
  for (int cpu : topo.cpus()) EXPECT_NE(cpu, 3);
  // cpu7 lost its sibling's co-runner? No: cpu3 and cpu7 share core 3 —
  // with cpu3 offline, cpu7 becomes that core's first (only) sibling.
  EXPECT_EQ(topo.SmtOfCpu(7), 0);
}

TEST(TopologySysfs, MissingTopologyFilesDegradeToFlat) {
  SysfsFixture fix("flat");
  fix.WriteFile("devices/system/cpu/online", "0-3");
  Topology topo = Topology::FromSysfs(fix.root());
  EXPECT_EQ(topo.cpu_count(), 4);
  EXPECT_EQ(topo.node_count(), 1);
  EXPECT_EQ(topo.package_count(), 1);
  EXPECT_EQ(topo.max_smt(), 1);
}

// -- Synthetic shapes and the SJOIN_TOPOLOGY override -------------------------

TEST(Topology, SyntheticShapeEnumerates) {
  Topology::SyntheticShape shape;
  shape.packages = 2;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 2;
  shape.smt_per_core = 2;
  Topology topo = Topology::Synthetic(shape);

  EXPECT_EQ(topo.cpu_count(), 16);
  EXPECT_EQ(topo.package_count(), 2);
  EXPECT_EQ(topo.node_count(), 4);
  EXPECT_EQ(topo.max_smt(), 2);
  // First pass covers every core once (smt 0), second pass the siblings.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(topo.SmtOfCpu(topo.cpus()[static_cast<std::size_t>(i)]), 0)
        << "position " << i;
  }
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(topo.SmtOfCpu(topo.cpus()[static_cast<std::size_t>(i)]), 1)
        << "position " << i;
  }
}

TEST(Topology, ParseShapeSpecForms) {
  Topology::SyntheticShape shape;
  ASSERT_TRUE(Topology::ParseShapeSpec("16", &shape));
  EXPECT_EQ(shape.cores_per_node, 16);
  ASSERT_TRUE(Topology::ParseShapeSpec("2x8", &shape));
  EXPECT_EQ(shape.nodes_per_package, 2);
  EXPECT_EQ(shape.cores_per_node, 8);
  ASSERT_TRUE(Topology::ParseShapeSpec("2x8x2", &shape));
  EXPECT_EQ(shape.smt_per_core, 2);
  ASSERT_TRUE(Topology::ParseShapeSpec("2x2x4x2", &shape));
  EXPECT_EQ(shape.packages, 2);
  EXPECT_EQ(shape.nodes_per_package, 2);
  EXPECT_EQ(shape.cores_per_node, 4);
  EXPECT_EQ(shape.smt_per_core, 2);

  // The product is bounded too — each dimension may pass the per-part cap
  // while the shape as a whole would OOM at Synthetic().
  for (const char* bad : {"", "0x2", "-1", "axb", "2x", "x2", "1x2x3x4x5",
                          "1048576x1048576", "1024x1024x1024"}) {
    Topology::SyntheticShape untouched;
    EXPECT_FALSE(Topology::ParseShapeSpec(bad, &untouched)) << bad;
  }
}

/// Saves/restores SJOIN_TOPOLOGY so these tests compose with a CI leg that
/// sets the knob globally.
class ScopedTopologyEnv {
 public:
  explicit ScopedTopologyEnv(const char* value) {
    const char* old = std::getenv("SJOIN_TOPOLOGY");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("SJOIN_TOPOLOGY", value, 1);
    } else {
      ::unsetenv("SJOIN_TOPOLOGY");
    }
  }
  ~ScopedTopologyEnv() {
    if (had_) {
      ::setenv("SJOIN_TOPOLOGY", saved_.c_str(), 1);
    } else {
      ::unsetenv("SJOIN_TOPOLOGY");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(Topology, EnvOverrideForcesSyntheticShape) {
  ScopedTopologyEnv env("2x2x2");
  Topology topo = Topology::Detect();
  EXPECT_EQ(topo.cpu_count(), 8);
  EXPECT_EQ(topo.node_count(), 2);
  EXPECT_EQ(topo.max_smt(), 2);
}

TEST(Topology, EnvOverrideUnrecognizedFallsBackToDetection) {
  ScopedTopologyEnv env("garbage-shape");
  Topology topo = Topology::Detect();  // warns on stderr, then detects
  EXPECT_GE(topo.cpu_count(), 1);
  // The host cannot be guaranteed multi-node, but the parse must not have
  // produced a "garbage" shape of any kind — detection output matches an
  // override-free Detect.
  ScopedTopologyEnv clear(nullptr);
  Topology plain = Topology::Detect();
  EXPECT_EQ(topo.cpus(), plain.cpus());
}

TEST(Topology, DetectIsSubsetOfAffinity) {
  ScopedTopologyEnv clear(nullptr);
  Topology topo = Topology::Detect();
  ASSERT_GE(topo.cpu_count(), 1);
  EXPECT_LE(topo.cpu_count(), AvailableCpuCount());
}

// -- PlacementPlan ------------------------------------------------------------

Topology TwoNodeTopo() {
  Topology::SyntheticShape shape;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 4;
  return Topology::Synthetic(shape);  // 8 cpus: node0 = 0-3, node1 = 4-7
}

TEST(PlacementPlan, CompactCoLocatesNeighboursBeforeRemoteNodes) {
  Topology topo = TwoNodeTopo();
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kCompact, 6, 2);

  // No two planned threads share a CPU.
  std::set<int> cpus;
  for (int pos = 0; pos < plan.positions(); ++pos) {
    const int cpu = plan.CpuForPosition(pos);
    ASSERT_GE(cpu, 0);
    EXPECT_TRUE(cpus.insert(cpu).second) << "duplicate cpu " << cpu;
  }
  for (int h = 0; h < plan.helpers(); ++h) {
    const int cpu = plan.CpuForHelper(h);
    if (cpu >= 0) {
      EXPECT_TRUE(cpus.insert(cpu).second);
    }
  }

  // Node sequence along the pipeline is contiguous: a node is never
  // revisited once left (neighbours co-located before a remote node).
  std::vector<int> node_seq;
  for (int pos = 0; pos < plan.positions(); ++pos) {
    node_seq.push_back(plan.NodeForPosition(pos));
  }
  EXPECT_EQ(node_seq, (std::vector<int>{0, 0, 0, 0, 1, 1}));

  // Helpers take leftover cores near their pipeline end; never -1 while
  // CPUs remain.
  EXPECT_GE(plan.CpuForHelper(kFeederHelper), 0);
  EXPECT_GE(plan.CpuForHelper(kCollectorHelper), 0);
  // The collector-adjacent node (last position's) is node 1.
  EXPECT_EQ(plan.NodeForHelper(kCollectorHelper), 1);
}

TEST(PlacementPlan, HelperSpillReturnsUnpinned) {
  Topology topo = Topology::Synthetic(4);
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kCompact, 4, 2);
  // All four CPUs go to pipeline positions; helpers must spill to -1 and
  // never onto a pipeline CPU.
  EXPECT_EQ(plan.CpuForHelper(kFeederHelper), -1);
  EXPECT_EQ(plan.CpuForHelper(kCollectorHelper), -1);
  EXPECT_EQ(plan.NodeForHelper(kCollectorHelper), -1);
}

TEST(PlacementPlan, PositionsBeyondSupplyAreUnpinned) {
  Topology topo = Topology::Synthetic(2);
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kAuto, 5, 1);
  EXPECT_GE(plan.CpuForPosition(0), 0);
  EXPECT_GE(plan.CpuForPosition(1), 0);
  for (int pos = 2; pos < 5; ++pos) {
    EXPECT_EQ(plan.CpuForPosition(pos), -1);
    EXPECT_EQ(plan.NodeForPosition(pos), -1);
  }
  EXPECT_EQ(plan.CpuForHelper(0), -1);
}

TEST(PlacementPlan, ScatterRoundRobinsNodes) {
  Topology topo = TwoNodeTopo();
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kScatter, 4, 0);
  EXPECT_EQ(plan.NodeForPosition(0), 0);
  EXPECT_EQ(plan.NodeForPosition(1), 1);
  EXPECT_EQ(plan.NodeForPosition(2), 0);
  EXPECT_EQ(plan.NodeForPosition(3), 1);
  std::set<int> cpus;
  for (int pos = 0; pos < 4; ++pos) {
    EXPECT_TRUE(cpus.insert(plan.CpuForPosition(pos)).second);
  }
}

TEST(PlacementPlan, NonePlacesNothing) {
  Topology topo = TwoNodeTopo();
  PlacementPlan plan = PlacementPlan::Build(topo, PlacementPolicy::kNone, 4, 2);
  for (int pos = 0; pos < 4; ++pos) {
    EXPECT_EQ(plan.CpuForPosition(pos), -1);
    EXPECT_EQ(plan.NodeForPosition(pos), -1);
  }
  EXPECT_EQ(plan.CpuForHelper(0), -1);
}

TEST(PlacementPlan, ParsePolicyNamesOffendingValue) {
  EXPECT_EQ(ParsePlacementPolicy("auto"), PlacementPolicy::kAuto);
  EXPECT_EQ(ParsePlacementPolicy("compact"), PlacementPolicy::kCompact);
  EXPECT_EQ(ParsePlacementPolicy("scatter"), PlacementPolicy::kScatter);
  EXPECT_EQ(ParsePlacementPolicy("none"), PlacementPolicy::kNone);
  try {
    ParsePlacementPolicy("fastest");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fastest"), std::string::npos)
        << "error must name the offending value: " << e.what();
  }
}

// -- Channel memory placement -------------------------------------------------

struct PodSlot {
  int a = 0;
  int b = 0;
};

TEST(ChannelPlacement, HookRunsAndRecordsHomeNode) {
  SpscQueue<PodSlot> queue(64, /*home_node=*/0);
  EXPECT_EQ(queue.home_node(), 0);
  queue.PrefaultByConsumer();
  EXPECT_NE(queue.placement(), ChannelPlacement::kUnplaced);
  // The ring must still behave: fill, drain, wrap.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(queue.TryPush(PodSlot{i, round}));
    }
    PodSlot out;
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(queue.TryPop(&out));
      EXPECT_EQ(out.a, i);
      EXPECT_EQ(out.b, round);
    }
  }
}

TEST(ChannelPlacement, NonexistentNodeFallsDownTheLadder) {
  // Node 1023 exists on no test host: mbind fails at construction, so the
  // consumer-side hook must take a fallback rung (deferred first-touch for
  // implicit-lifetime slots), never kBound.
  SpscQueue<PodSlot> queue(16, /*home_node=*/1023);
  queue.PrefaultByConsumer();
  EXPECT_NE(queue.placement(), ChannelPlacement::kUnplaced);
  EXPECT_NE(queue.placement(), ChannelPlacement::kBound);
  PodSlot out;
  ASSERT_TRUE(queue.TryPush(PodSlot{7, 9}));
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.a, 7);
}

TEST(ChannelPlacement, UnplacedQueueStaysUnplacedUntilHook) {
  SpscQueue<PodSlot> queue(16);
  EXPECT_EQ(queue.home_node(), -1);
  EXPECT_EQ(queue.placement(), ChannelPlacement::kUnplaced);
  queue.PrefaultByConsumer();
  EXPECT_EQ(queue.placement(), ChannelPlacement::kPrefaulted);
}

TEST(Topology, DetectFindsAtLeastOneCpu) {
  Topology topo = Topology::Detect();
  EXPECT_GE(topo.cpu_count(), 1);
}

TEST(Topology, SyntheticEnumerates) {
  Topology topo = Topology::Synthetic(4);
  EXPECT_EQ(topo.cpu_count(), 4);
  EXPECT_EQ(topo.cpus().size(), 4u);
}

TEST(Topology, DistinctPlacementWithinMask) {
  Topology topo = Topology::Synthetic(4);
  EXPECT_EQ(topo.CpuForNode(0, 4), 0);
  EXPECT_EQ(topo.CpuForNode(1, 4), 1);
  EXPECT_EQ(topo.CpuForNode(2, 4), 2);
  EXPECT_EQ(topo.CpuForNode(3, 4), 3);
}

TEST(Topology, NegativeNodeIsInvalid) {
  Topology topo = Topology::Synthetic(2);
  EXPECT_EQ(topo.CpuForNode(-1, 4), -1);
}

// Co-located shards split a node (JoinSession, N > 1): slices are whole
// cores with their SMT siblings while there are enough cores, cover the
// node exactly once, and degrade to shared single CPUs beyond the supply.
TEST(Topology, OnNodeSlicesSplitWholeCores) {
  Topology::SyntheticShape shape;
  shape.cores_per_node = 4;
  shape.smt_per_core = 2;
  const Topology topo = Topology::Synthetic(shape);
  for (int slices : {2, 3, 4}) {
    std::set<int> covered;
    for (int slice = 0; slice < slices; ++slice) {
      const Topology part = topo.OnNode(0, slice, slices);
      ASSERT_GT(part.cpu_count(), 0) << slice << "/" << slices;
      std::set<int> cores;
      for (const TopoCpu& c : part.entries()) {
        EXPECT_TRUE(covered.insert(c.cpu).second)
            << "cpu " << c.cpu << " in two slices of " << slices;
        cores.insert(c.core);
      }
      // Every core of the slice brings both of its siblings.
      EXPECT_EQ(part.cpu_count(), 2 * static_cast<int>(cores.size()));
    }
    EXPECT_EQ(static_cast<int>(covered.size()), topo.cpu_count());
  }
  // Five slices of four cores: the eight CPUs are split one by one...
  std::set<int> split;
  for (int slice = 0; slice < 5; ++slice) {
    const Topology part = topo.OnNode(0, slice, 5);
    ASSERT_GT(part.cpu_count(), 0);
    for (int cpu : part.cpus()) EXPECT_TRUE(split.insert(cpu).second);
  }
  EXPECT_EQ(static_cast<int>(split.size()), topo.cpu_count());
  // ...and beyond the CPU supply slices share CPUs rather than go empty.
  const Topology flat = Topology::Synthetic(2);
  EXPECT_EQ(flat.OnNode(0, 2, 3).cpus(), flat.OnNode(0, 0, 3).cpus());
  EXPECT_EQ(topo.OnNode(0).cpu_count(), topo.cpu_count());
  EXPECT_EQ(topo.OnNode(1, 0, 2).cpu_count(), 0);
}

// Regression: on an affinity mask smaller than total_nodes + 2 the old
// round-robin wrapped the helper threads (feeder and collector are
// registered after the pipeline nodes) onto the SAME cpus as pipeline
// nodes. Two hard-pinned threads on one cpu serialize the hot path — the
// scheduler cannot separate them. Oversubscribed threads must run unpinned
// (-1) instead of colliding with a pinned pipeline node.
TEST(Topology, SmallMaskDoesNotPinHelpersOntoPipelineNodes) {
  const int pipeline_nodes = 2;
  const int total = pipeline_nodes + 2;  // + feeder + collector
  Topology topo = Topology::Synthetic(pipeline_nodes);

  std::vector<int> node_cpus;
  for (int n = 0; n < pipeline_nodes; ++n) {
    node_cpus.push_back(topo.CpuForNode(n, total));
  }
  for (int helper = pipeline_nodes; helper < total; ++helper) {
    const int cpu = topo.CpuForNode(helper, total);
    for (int node_cpu : node_cpus) {
      EXPECT_TRUE(cpu == -1 || cpu != node_cpu)
          << "helper thread " << helper << " pinned onto pipeline cpu "
          << node_cpu;
    }
  }
  // Pipeline nodes keep one distinct cpu each.
  EXPECT_EQ(node_cpus[0], 0);
  EXPECT_EQ(node_cpus[1], 1);
}

TEST(Affinity, AvailableCpuCountPositive) {
  EXPECT_GE(AvailableCpuCount(), 1);
}

TEST(Affinity, PinToFirstCpuSucceedsOnLinux) {
#if defined(__linux__)
  Topology topo = Topology::Detect();
  EXPECT_TRUE(PinThisThread(topo.cpus().front()));
#else
  GTEST_SKIP();
#endif
}

TEST(Affinity, PinToInvalidCpuFails) { EXPECT_FALSE(PinThisThread(-1)); }

// -- Slab allocation and the huge-page ladder ---------------------------------

/// Saves/restores one env knob (same shape as ScopedTopologyEnv) so the
/// slab tests compose with CI legs that set the huge-page knobs globally.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(Slab, BackingNamesAreStable) {
  EXPECT_STREQ(ToString(SlabBacking::kNone), "none");
  EXPECT_STREQ(ToString(SlabBacking::kPages), "pages");
  EXPECT_STREQ(ToString(SlabBacking::kTransparentHuge), "thp");
  EXPECT_STREQ(ToString(SlabBacking::kHugeTlb), "hugetlb");
}

TEST(Slab, SmallAllocationUsesPlainPagesAndIsWritable) {
  ScopedEnv on("SJOIN_HUGE_PAGES", "1");
  ScopedEnv thresh("SJOIN_HUGE_PAGE_MIN_BYTES", nullptr);
  Slab slab = AllocateSlab(4096);
  ASSERT_NE(slab.addr, nullptr);
  EXPECT_EQ(slab.backing, SlabBacking::kPages);  // below the 2 MB threshold
  EXPECT_GE(slab.bytes, 4096u);
  auto* p = static_cast<unsigned char*>(slab.addr);
  for (std::size_t i = 0; i < 4096; ++i) p[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(p[4095], static_cast<unsigned char>(4095));
  FreeSlab(&slab);
  EXPECT_EQ(slab.addr, nullptr);
  EXPECT_EQ(slab.backing, SlabBacking::kNone);
}

TEST(Slab, ZeroBytesYieldsEmptySlab) {
  Slab slab = AllocateSlab(0);
  EXPECT_EQ(slab.addr, nullptr);
  EXPECT_EQ(slab.bytes, 0u);
  EXPECT_EQ(slab.backing, SlabBacking::kNone);
  FreeSlab(&slab);  // no-op, must be safe
}

TEST(Slab, KnobDisablesHugeRungsEvenForBigRequests) {
  ScopedEnv off("SJOIN_HUGE_PAGES", "0");
  Slab slab = AllocateSlab(4 * kHugePageSize);
  ASSERT_NE(slab.addr, nullptr);
  EXPECT_EQ(slab.backing, SlabBacking::kPages);
  FreeSlab(&slab);
}

// With the threshold lowered, a modest allocation climbs the ladder. Which
// rung it lands on depends on host policy (hugetlb pool may be empty, THP
// may be disabled), so the assertion is: a valid rung, usable memory, and
// honest reporting (never kNone for a live slab).
TEST(Slab, LoweredThresholdClimbsLadderGracefully) {
  ScopedEnv on("SJOIN_HUGE_PAGES", "1");
  ScopedEnv thresh("SJOIN_HUGE_PAGE_MIN_BYTES", "65536");
  EXPECT_EQ(HugePageThresholdBytes(), 65536u);
  Slab slab = AllocateSlab(256 * 1024);
  ASSERT_NE(slab.addr, nullptr);
  EXPECT_NE(slab.backing, SlabBacking::kNone);
  auto* p = static_cast<unsigned char*>(slab.addr);
  p[0] = 1;
  p[256 * 1024 - 1] = 2;
  EXPECT_EQ(p[0] + p[256 * 1024 - 1], 3);
  FreeSlab(&slab);
}

TEST(Slab, SlabArrayResetMoveAndIndexing) {
  SlabArray<int64_t> arr;
  EXPECT_TRUE(arr.empty());
  arr.Reset(1000);
  EXPECT_EQ(arr.count(), 1000u);
  ASSERT_NE(arr.data(), nullptr);
  for (std::size_t i = 0; i < 1000; ++i) arr[i] = static_cast<int64_t>(i * 3);
  EXPECT_EQ(arr[999], 2997);
  SlabArray<int64_t> moved = std::move(arr);
  EXPECT_TRUE(arr.empty());  // NOLINT(bugprone-use-after-move): pinned reset
  EXPECT_EQ(moved.count(), 1000u);
  EXPECT_EQ(moved[999], 2997);
  moved.Reset(0);
  EXPECT_TRUE(moved.empty());
}

TEST(Backoff, EscalatesAndResets) {
  Backoff b;
  EXPECT_EQ(b.attempts(), 0);
  for (int i = 0; i < 20; ++i) b.Pause();
  EXPECT_EQ(b.attempts(), 20);
  b.Reset();
  EXPECT_EQ(b.attempts(), 0);
}

class CountingSteppable : public Steppable {
 public:
  explicit CountingSteppable(int budget) : budget_(budget) {}
  bool Step() override {
    if (budget_ <= 0) return false;
    --budget_;
    ++steps_;
    return true;
  }
  int steps() const { return steps_; }

 private:
  int budget_;
  int steps_ = 0;
};

TEST(SequentialExecutor, RunsUntilQuiescent) {
  CountingSteppable a(5), b(3);
  SequentialExecutor exec;
  exec.Add(&a);
  exec.Add(&b);
  const std::size_t passes = exec.RunUntilQuiescent();
  EXPECT_EQ(a.steps(), 5);
  EXPECT_EQ(b.steps(), 3);
  EXPECT_EQ(passes, 5u);  // passes 0..4 progress; pass 5 is silent
}

TEST(SequentialExecutor, StepOnceReportsProgress) {
  CountingSteppable a(1);
  SequentialExecutor exec;
  exec.Add(&a);
  EXPECT_TRUE(exec.StepOnce());
  EXPECT_FALSE(exec.StepOnce());
}

TEST(SequentialExecutor, HonorsPassLimit) {
  class Endless : public Steppable {
   public:
    bool Step() override { return true; }
  } endless;
  SequentialExecutor exec;
  exec.Add(&endless);
  EXPECT_EQ(exec.RunUntilQuiescent(100), 100u);
}

class AtomicCounterSteppable : public Steppable {
 public:
  bool Step() override {
    count.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::atomic<uint64_t> count{0};
};

TEST(ThreadedExecutor, StartsAndStops) {
  AtomicCounterSteppable a, b;
  ThreadedExecutor exec(Topology::Detect());
  exec.Add(&a);
  exec.Add(&b);
  exec.Start();
  EXPECT_TRUE(exec.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exec.Stop();
  EXPECT_FALSE(exec.running());
  EXPECT_GT(a.count.load(), 0u);
  EXPECT_GT(b.count.load(), 0u);
}

TEST(ThreadedExecutor, StopIsIdempotent) {
  AtomicCounterSteppable a;
  ThreadedExecutor exec;
  exec.Add(&a);
  exec.Start();
  exec.Stop();
  exec.Stop();  // no crash
  EXPECT_FALSE(exec.running());
}

TEST(ThreadedExecutor, OnThreadStartCompletesBeforeAnyStep) {
  // The start barrier orders every OnThreadStart (consumer-side channel
  // prefault) before any Step (production) — across ALL threads, not just
  // within each thread.
  struct Barriered : Steppable {
    std::atomic<int>* started = nullptr;
    std::atomic<int>* violations = nullptr;
    int expected = 0;
    void OnThreadStart() override {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      started->fetch_add(1, std::memory_order_acq_rel);
    }
    bool Step() override {
      if (started->load(std::memory_order_acquire) < expected) {
        violations->fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
  };
  std::atomic<int> started{0};
  std::atomic<int> violations{0};
  Barriered a, b, c;
  for (Barriered* s : {&a, &b, &c}) {
    s->started = &started;
    s->violations = &violations;
    s->expected = 3;
  }
  ThreadedExecutor exec(Topology::Synthetic(2));
  exec.Add(&a);
  exec.Add(&b);
  exec.AddHelper(&c);
  exec.Start();
  EXPECT_EQ(started.load(), 3);  // Start() returns only after the barrier
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  exec.Stop();
  EXPECT_EQ(violations.load(), 0);
}

TEST(ThreadedExecutor, IdleSteppableBacksOffWithoutSpinningHot) {
  // A steppable that never has work must not prevent Stop().
  class Idle : public Steppable {
   public:
    bool Step() override { return false; }
  } idle;
  ThreadedExecutor exec;
  exec.Add(&idle);
  exec.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  exec.Stop();
  SUCCEED();
}

// -- Doorbells: wake-on-push for parked executor threads ----------------------

/// Drains a ring on an executor thread, recording when each item arrived.
class StampedSink : public Steppable {
 public:
  explicit StampedSink(SpscQueue<int64_t>* in) : in_(in) {}
  bool Step() override {
    int64_t sent_ns = 0;
    if (!in_->TryPop(&sent_ns)) return false;
    last_hop_ns.store(SteadyNs() - sent_ns, std::memory_order_relaxed);
    received.fetch_add(1, std::memory_order_release);
    return true;
  }
  static int64_t SteadyNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::atomic<uint64_t> received{0};
  std::atomic<int64_t> last_hop_ns{0};

 private:
  SpscQueue<int64_t>* in_;
};

template <typename Pred>
bool WaitFor(Pred done, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Doorbell, ParkedConsumerSeesSinglePush) {
  SpscQueue<int64_t> ring(64);
  StampedSink sink(&ring);
  ThreadedExecutor exec(Topology::Synthetic(1));
  exec.Add(&sink);
  exec.Start();
  // Long enough for the spin and yield rungs to run out: the consumer is
  // parked on its doorbell (or between timed waits) when the push lands.
  ASSERT_TRUE(WaitFor([&] { return exec.parks() > 0; },
                      std::chrono::seconds(10)));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(ring.TryPush(StampedSink::SteadyNs()));
  ASSERT_TRUE(WaitFor([&] { return sink.received.load() == 1; },
                      std::chrono::seconds(10)));
  // Generous: a wake takes microseconds, the timed fallback 50 us plus
  // timer slack; the bound only has to rule out a lost wake-up on a loaded
  // or sanitized host.
  EXPECT_LT(sink.last_hop_ns.load(), 250'000'000);
  exec.Stop();
}

// The timed fallback alone would also deliver every push, so this checks
// the mechanism itself: a push into the ring of a parked consumer rings
// its doorbell. A push can land in the microsecond between two timed
// waits and be seen without a wake, so most pushes, not all, must wake.
TEST(Doorbell, PushesIntoParkedRingWakeTheConsumer) {
  constexpr uint64_t kPushes = 200;
  SpscQueue<int64_t> ring(64);
  StampedSink sink(&ring);
  ThreadedExecutor exec(Topology::Synthetic(1));
  exec.Add(&sink);
  exec.Start();
  for (uint64_t i = 0; i < kPushes; ++i) {
    // Wait for a park that starts after the previous item was taken.
    const uint64_t parked = exec.parks();
    ASSERT_TRUE(WaitFor([&] { return exec.parks() > parked; },
                        std::chrono::seconds(10)));
    ASSERT_TRUE(ring.TryPush(StampedSink::SteadyNs()));
    ASSERT_TRUE(WaitFor([&] { return sink.received.load() == i + 1; },
                        std::chrono::seconds(10)));
  }
  const uint64_t wakes = exec.wakes();
  exec.Stop();
  EXPECT_GE(wakes, kPushes / 2) << "pushes did not ring the doorbell";
  EXPECT_LE(wakes, kPushes);
}

/// Forwards every item of `in` to `out` (the echo half of a ping-pong).
class Echo : public Steppable {
 public:
  Echo(SpscQueue<uint64_t>* in, SpscQueue<uint64_t>* out)
      : in_(in), out_(out) {}
  bool Step() override {
    uint64_t v = 0;
    if (!in_->TryPop(&v)) return false;
    while (!out_->TryPush(v)) {
    }
    return true;
  }

 private:
  SpscQueue<uint64_t>* in_;
  SpscQueue<uint64_t>* out_;
};

/// Checks the items of `in` arrive as 0, 1, 2, ...
class OrderedSink : public Steppable {
 public:
  explicit OrderedSink(SpscQueue<uint64_t>* in) : in_(in) {}
  bool Step() override {
    uint64_t v = 0;
    if (!in_->TryPop(&v)) return false;
    const uint64_t n = received.load(std::memory_order_relaxed);
    if (v != n) out_of_order.fetch_add(1, std::memory_order_relaxed);
    received.store(n + 1, std::memory_order_release);
    return true;
  }
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> out_of_order{0};

 private:
  SpscQueue<uint64_t>* in_;
};

// Two parked hops per message (caller -> echo thread -> sink thread), with
// random idle gaps so pushes land at every point of the park protocol:
// spinning, yielding, arming, parked, timing out.
TEST(Doorbell, PingPongWithRandomGapsDeliversInOrder) {
  constexpr uint64_t kMessages = 10'000;
  SpscQueue<uint64_t> ping(16);
  SpscQueue<uint64_t> pong(16);
  Echo echo(&ping, &pong);
  OrderedSink sink(&pong);
  ThreadedExecutor exec(Topology::Synthetic(2));
  exec.Add(&echo);
  exec.Add(&sink);
  exec.Start();
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> gap_us(0, 200);
  for (uint64_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(ping.TryPush(i));
    ASSERT_TRUE(WaitFor([&] { return sink.received.load() == i + 1; },
                        std::chrono::seconds(10)))
        << "message " << i << " not delivered (lost wake-up?)";
    const int gap = gap_us(rng);
    if (gap > 0) std::this_thread::sleep_for(std::chrono::microseconds(gap));
  }
  // The gaps let both threads park: some pushes must have woken them.
  EXPECT_GT(exec.wakes(), 0u);
  exec.Stop();
  EXPECT_EQ(sink.received.load(), kMessages);
  EXPECT_EQ(sink.out_of_order.load(), 0u);
}

// A ring keeps no pointer to a doorbell whose thread has exited: pushes
// after Stop() and after the executor is destroyed must not touch the
// executor's memory (ASan leg).
TEST(Doorbell, PushAfterStopAndAfterExecutorDestroyedIsSafe) {
  SpscQueue<int64_t> ring(64);
  StampedSink sink(&ring);
  {
    auto exec = std::make_unique<ThreadedExecutor>(Topology::Synthetic(1));
    exec->Add(&sink);
    exec->Start();
    // The consumer registers its doorbell on finding the ring empty.
    ASSERT_TRUE(ring.TryPush(StampedSink::SteadyNs()));
    ASSERT_TRUE(WaitFor([&] { return sink.received.load() == 1; },
                        std::chrono::seconds(10)));
    ASSERT_TRUE(WaitFor([&] { return exec->parks() > 0; },
                        std::chrono::seconds(10)));
    exec->Stop();
    EXPECT_TRUE(ring.TryPush(1));  // consumer gone: nobody to wake
    exec->Start();                 // a second generation re-registers
    ASSERT_TRUE(WaitFor([&] { return sink.received.load() == 2; },
                        std::chrono::seconds(10)));
  }
  EXPECT_TRUE(ring.TryPush(2));  // executor destroyed
  EXPECT_EQ(ring.SizeApprox(), 1u);
}

}  // namespace
}  // namespace sjoin
