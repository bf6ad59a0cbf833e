// Machine-topology model. The paper lays its pipeline over the
// HyperTransport ring of an 8-region Magny Cours so that every channel is a
// short point-to-point link. To reproduce that placement discipline on
// arbitrary hosts the model is three-level: packages (sockets) contain NUMA
// nodes contain cores contain SMT siblings. PlacementPlan (see
// runtime/placement.hpp) lays pipeline positions and helper threads over
// this model; the raw Topology only answers "what does the hardware look
// like".
//
// Detection contract (Topology::Detect):
//  * The CPU set is the intersection of this process's affinity mask
//    (sched_getaffinity with a dynamically sized mask — NOT truncated at
//    CPU_SETSIZE, hosts beyond 1024 logical CPUs are fully enumerated) and
//    the kernel's online CPU list, so offline-CPU holes are respected.
//  * Per-CPU package/core ids come from
//    /sys/devices/system/cpu/cpu*/topology, NUMA membership from
//    /sys/devices/system/node/node*/cpulist. A CPU whose sysfs entries are
//    missing degrades to package 0 / its own core / node 0 (flat model).
//  * The SJOIN_TOPOLOGY environment knob overrides detection with a
//    synthetic shape — "16" (flat), "2x8" (nodes x cores), "2x8x2"
//    (nodes x cores x smt), "2x2x4x2" (packages x nodes x cores x smt).
//    Unrecognized values warn on stderr and fall back to real detection
//    (same discipline as the SJOIN_SIMD_LEVEL knob): a CI leg that believes
//    it forced a multi-node shape must actually run one.
//  * On non-Linux hosts (or when sysfs is unreadable) detection falls back
//    to hardware_concurrency as a flat single-node topology.
//
// Enumeration order: cpus() lists the CPUs in *placement order* — first
// SMT sibling of every core first, cores of the same NUMA node adjacent,
// nodes of the same package adjacent, then the second SMT siblings in the
// same core order, and so on. Neighbouring indices are therefore
// neighbouring hardware, which is exactly what pipeline placement wants.
// On flat topologies this is ascending CPU id — the pre-topology behaviour.
#pragma once

#include <string>
#include <vector>

namespace sjoin {

/// One logical CPU with its position in the three-level hardware model.
struct TopoCpu {
  int cpu = 0;      ///< logical CPU id (what PinThisThread takes)
  int package = 0;  ///< physical package (socket) id
  int node = 0;     ///< NUMA node id (mbind/move_pages target)
  int core = 0;     ///< core id, unique within its package
  int smt = 0;      ///< sibling index on its core (0 = first sibling)
};

/// Snapshot of the CPUs this process may run on, with their hardware
/// coordinates.
class Topology {
 public:
  /// Multi-level synthetic shape for tests and the SJOIN_TOPOLOGY override.
  struct SyntheticShape {
    int packages = 1;
    int nodes_per_package = 1;
    int cores_per_node = 1;
    int smt_per_core = 1;
  };

  /// Detects the host topology (see the detection contract above).
  static Topology Detect();

  /// Parses a sysfs tree rooted at `sysfs_root` (normally "/sys"; tests
  /// point it at a fixture directory). No affinity filtering, no env
  /// override — exactly what the tree describes. CPUs come from
  /// <root>/devices/system/cpu/online (falling back to `possible`).
  static Topology FromSysfs(const std::string& sysfs_root);

  /// A flat topology with exactly `n` fake CPUs on one node (for tests).
  static Topology Synthetic(int n);

  /// A synthetic multi-package/node/SMT topology. CPU ids are assigned
  /// sequentially in (package, node, core, smt) nesting order, so SMT
  /// siblings get adjacent ids — like many real hosts.
  static Topology Synthetic(const SyntheticShape& shape);

  /// Parses a SJOIN_TOPOLOGY-style shape spec ("16", "2x8", "2x8x2",
  /// "2x2x4x2"). Returns false (leaving *shape untouched) when the spec is
  /// not a well-formed positive shape.
  static bool ParseShapeSpec(const std::string& spec, SyntheticShape* shape);

  int cpu_count() const { return static_cast<int>(cpus_.size()); }

  /// Logical CPU ids in placement order (see header comment).
  const std::vector<int>& cpus() const { return cpu_ids_; }

  /// Full per-CPU records, same order as cpus().
  const std::vector<TopoCpu>& entries() const { return cpus_; }

  /// Distinct NUMA nodes / packages covered by this topology.
  int node_count() const { return node_count_; }
  int package_count() const { return package_count_; }
  /// Maximum SMT siblings per core observed (1 = no SMT).
  int max_smt() const { return max_smt_; }

  /// Hardware coordinates of a logical CPU; -1 when the CPU is not part of
  /// this topology.
  int NodeOfCpu(int cpu) const;
  int PackageOfCpu(int cpu) const;
  int CoreOfCpu(int cpu) const;
  int SmtOfCpu(int cpu) const;

  /// CPUs of one NUMA node, in placement order.
  std::vector<int> CpusOnNode(int node) const;

  /// The sub-topology covering only the CPUs of one NUMA node (possibly
  /// empty when the node is not part of this topology). Sharded sessions
  /// build per-shard placement plans from these subsets so every shard's
  /// pipeline, channels and helper threads stay on its own node.
  ///
  /// With `slices` > 1 the node is split among that many co-located users
  /// and slice `slice` is returned: whole cores (SMT siblings together) in
  /// contiguous placement-order runs while there are at least `slices`
  /// cores, single CPUs while there are at least `slices` CPUs, and CPU
  /// `slice` mod count (shared) beyond that.
  Topology OnNode(int node, int slice = 0, int slices = 1) const;

  /// CPU for pipeline node `node` of a pipeline with `total_nodes` nodes
  /// (helper threads such as feeder and collector are registered after the
  /// nodes and share the same enumeration). The first cpu_count() threads
  /// get one distinct CPU each in placement order (neighbour adjacency);
  /// any thread beyond the set returns -1 (leave unpinned). Wrapping
  /// instead would hard-pin a helper onto a pipeline node's CPU and
  /// serialize the hot path. PlacementPlan supersedes this for new code;
  /// it is kept as the flat-order fallback.
  int CpuForNode(int node, int total_nodes) const;

 private:
  explicit Topology(std::vector<TopoCpu> cpus);

  std::vector<TopoCpu> cpus_;   // placement order
  std::vector<int> cpu_ids_;    // cpus_[i].cpu, cached for cpus()
  int node_count_ = 0;
  int package_count_ = 0;
  int max_smt_ = 1;
};

}  // namespace sjoin
