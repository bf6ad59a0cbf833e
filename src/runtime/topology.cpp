#include "runtime/topology.hpp"

#include "common/env.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sjoin {

namespace {

/// Reads a whole small file; returns false when it cannot be opened.
bool ReadFileString(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Reads a file holding one integer (the sysfs topology id format).
bool ReadFileInt(const std::string& path, int* out) {
  std::string text;
  if (!ReadFileString(path, &text)) return false;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str()) return false;
  *out = static_cast<int>(v);
  return true;
}

/// Parses a kernel cpulist ("0-3,8,10-11") into CPU ids. Malformed chunks
/// are skipped; returns the ids parsed so far.
std::vector<int> ParseCpuList(const std::string& text) {
  std::vector<int> cpus;
  const char* p = text.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long first = std::strtol(p, &end, 10);
    if (end == p) break;
    long last = first;
    p = end;
    if (*p == '-') {
      ++p;
      last = std::strtol(p, &end, 10);
      if (end == p) break;
      p = end;
    }
    for (long cpu = first; cpu <= last && cpu >= 0; ++cpu) {
      cpus.push_back(static_cast<int>(cpu));
    }
    if (*p == ',') ++p;
  }
  return cpus;
}

/// Placement order: first SMT sibling of every core first (smt-major), then
/// packages, NUMA nodes and cores keep hardware-adjacent entries adjacent.
/// Ties broken by CPU id for determinism.
bool PlacementLess(const TopoCpu& a, const TopoCpu& b) {
  if (a.smt != b.smt) return a.smt < b.smt;
  if (a.package != b.package) return a.package < b.package;
  if (a.node != b.node) return a.node < b.node;
  if (a.core != b.core) return a.core < b.core;
  return a.cpu < b.cpu;
}

/// Shared sysfs walk. `root` is the sysfs mount (or a test fixture);
/// `filter` restricts to those CPU ids when non-null (the affinity mask).
std::vector<TopoCpu> CpusFromSysfs(const std::string& root,
                                   const std::vector<int>* filter) {
  const std::string cpu_dir = root + "/devices/system/cpu";
  std::string list_text;
  if (!ReadFileString(cpu_dir + "/online", &list_text) &&
      !ReadFileString(cpu_dir + "/possible", &list_text)) {
    return {};
  }
  std::vector<int> online = ParseCpuList(list_text);
  if (filter != nullptr) {
    std::vector<int> kept;
    for (int cpu : online) {
      if (std::find(filter->begin(), filter->end(), cpu) != filter->end()) {
        kept.push_back(cpu);
      }
    }
    online = std::move(kept);
  }
  if (online.empty()) return {};

  // NUMA membership from the node cpulists.
  std::vector<std::pair<int, std::vector<int>>> nodes;
  for (int node = 0; node < 4096; ++node) {
    std::string cpulist;
    if (!ReadFileString(root + "/devices/system/node/node" +
                            std::to_string(node) + "/cpulist",
                        &cpulist)) {
      // Node ids are not guaranteed dense, but a long run of absent ids
      // means we are past the last one.
      if (node > 64 && nodes.empty()) break;
      if (!nodes.empty() && node > nodes.back().first + 64) break;
      continue;
    }
    nodes.emplace_back(node, ParseCpuList(cpulist));
  }

  std::vector<TopoCpu> cpus;
  cpus.reserve(online.size());
  for (int cpu : online) {
    TopoCpu info;
    info.cpu = cpu;
    const std::string topo =
        cpu_dir + "/cpu" + std::to_string(cpu) + "/topology";
    if (!ReadFileInt(topo + "/physical_package_id", &info.package)) {
      info.package = 0;
    }
    if (!ReadFileInt(topo + "/core_id", &info.core)) info.core = cpu;
    info.node = 0;
    for (const auto& [node, members] : nodes) {
      if (std::find(members.begin(), members.end(), cpu) != members.end()) {
        info.node = node;
        break;
      }
    }
    cpus.push_back(info);
  }

  // SMT sibling index: position among the CPUs sharing (package, core),
  // in CPU-id order. Derived instead of parsed so fixture dirs only need
  // package/core ids.
  std::sort(cpus.begin(), cpus.end(), [](const TopoCpu& a, const TopoCpu& b) {
    if (a.package != b.package) return a.package < b.package;
    if (a.core != b.core) return a.core < b.core;
    return a.cpu < b.cpu;
  });
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    cpus[i].smt = (i > 0 && cpus[i].package == cpus[i - 1].package &&
                   cpus[i].core == cpus[i - 1].core)
                      ? cpus[i - 1].smt + 1
                      : 0;
  }
  return cpus;
}

std::vector<TopoCpu> FlatCpus(const std::vector<int>& ids) {
  std::vector<TopoCpu> cpus;
  cpus.reserve(ids.size());
  for (int id : ids) {
    TopoCpu info;
    info.cpu = id;
    info.core = id;
    cpus.push_back(info);
  }
  return cpus;
}

/// This process's affinity mask with a dynamically sized cpu_set_t: the
/// fixed CPU_SETSIZE (1024) silently truncates on larger hosts, so the mask
/// is grown until the kernel accepts it.
std::vector<int> AffinityCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  // Start from the highest possible CPU when sysfs is readable; grow on
  // EINVAL regardless (the kernel's internal mask can be larger still).
  int max_cpus = CPU_SETSIZE;
  std::string possible;
  if (ReadFileString("/sys/devices/system/cpu/possible", &possible)) {
    const std::vector<int> ids = ParseCpuList(possible);
    if (!ids.empty()) {
      max_cpus = std::max(max_cpus,
                          *std::max_element(ids.begin(), ids.end()) + 1);
    }
  }
  for (int attempt = 0; attempt < 8; ++attempt, max_cpus *= 2) {
    cpu_set_t* set = CPU_ALLOC(static_cast<std::size_t>(max_cpus));
    if (set == nullptr) break;
    const std::size_t size = CPU_ALLOC_SIZE(static_cast<std::size_t>(max_cpus));
    CPU_ZERO_S(size, set);
    if (sched_getaffinity(0, size, set) == 0) {
      for (int cpu = 0; cpu < max_cpus; ++cpu) {
        if (CPU_ISSET_S(static_cast<std::size_t>(cpu), size, set)) {
          cpus.push_back(cpu);
        }
      }
      CPU_FREE(set);
      break;
    }
    CPU_FREE(set);
  }
#endif
  return cpus;
}

}  // namespace

Topology::Topology(std::vector<TopoCpu> cpus) : cpus_(std::move(cpus)) {
  std::sort(cpus_.begin(), cpus_.end(), PlacementLess);
  cpu_ids_.reserve(cpus_.size());
  std::vector<int> nodes, packages;
  for (const TopoCpu& c : cpus_) {
    cpu_ids_.push_back(c.cpu);
    nodes.push_back(c.node);
    packages.push_back(c.package);
    max_smt_ = std::max(max_smt_, c.smt + 1);
  }
  std::sort(nodes.begin(), nodes.end());
  node_count_ = static_cast<int>(
      std::unique(nodes.begin(), nodes.end()) - nodes.begin());
  std::sort(packages.begin(), packages.end());
  package_count_ = static_cast<int>(
      std::unique(packages.begin(), packages.end()) - packages.begin());
}

bool Topology::ParseShapeSpec(const std::string& spec, SyntheticShape* shape) {
  std::vector<int> parts;
  const char* p = spec.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p || v <= 0 || v > 1 << 20) return false;
    parts.push_back(static_cast<int>(v));
    p = end;
    if (*p == '\0') break;
    if (*p != 'x' && *p != 'X') return false;
    ++p;
    if (*p == '\0') return false;  // trailing separator
  }
  // Bound the total CPU count, not just each dimension: an accepted spec
  // must be materializable, or the caller's warn-and-fall-back contract
  // turns into an OOM at Synthetic().
  long long total = 1;
  for (int part : parts) {
    total *= part;
    if (total > 1 << 20) return false;
  }
  SyntheticShape out;
  switch (parts.size()) {
    case 1:  // flat CPU count
      out.cores_per_node = parts[0];
      break;
    case 2:  // nodes x cores
      out.nodes_per_package = parts[0];
      out.cores_per_node = parts[1];
      break;
    case 3:  // nodes x cores x smt
      out.nodes_per_package = parts[0];
      out.cores_per_node = parts[1];
      out.smt_per_core = parts[2];
      break;
    case 4:  // packages x nodes x cores x smt
      out.packages = parts[0];
      out.nodes_per_package = parts[1];
      out.cores_per_node = parts[2];
      out.smt_per_core = parts[3];
      break;
    default:
      return false;
  }
  *shape = out;
  return true;
}

Topology Topology::Detect() {
  // Env override first (synthetic shapes for CI legs on single-socket
  // runners). Unrecognized values warn and fall through to real detection —
  // a leg that believes it forced a shape must not silently run flat.
  const char* spec = env::Raw("SJOIN_TOPOLOGY");  // NOLINT(env-knob)
  if (spec != nullptr && spec[0] != '\0') {
    const std::string v(spec);
    SyntheticShape shape;
    if (v != "detect" && ParseShapeSpec(v, &shape)) return Synthetic(shape);
    if (v != "detect") {
      env::WarnUnrecognized("SJOIN_TOPOLOGY", spec,
                            "want e.g. \"16\", \"2x8\", \"2x8x2\", "
                            "\"2x2x4x2\", or \"detect\"",
                            "using detected topology");
    }
  }

  const std::vector<int> affinity = AffinityCpus();
#if defined(__linux__)
  if (!affinity.empty()) {
    std::vector<TopoCpu> cpus = CpusFromSysfs("/sys", &affinity);
    if (!cpus.empty()) return Topology(std::move(cpus));
    return Topology(FlatCpus(affinity));  // sysfs unreadable: flat model
  }
#endif
  unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) hc = 1;
  std::vector<int> ids;
  for (unsigned cpu = 0; cpu < hc; ++cpu) ids.push_back(static_cast<int>(cpu));
  return Topology(FlatCpus(ids));
}

Topology Topology::FromSysfs(const std::string& sysfs_root) {
  return Topology(CpusFromSysfs(sysfs_root, nullptr));
}

Topology Topology::Synthetic(int n) {
  std::vector<int> ids;
  for (int cpu = 0; cpu < n; ++cpu) ids.push_back(cpu);
  return Topology(FlatCpus(ids));
}

Topology Topology::Synthetic(const SyntheticShape& shape) {
  std::vector<TopoCpu> cpus;
  int cpu = 0;
  for (int p = 0; p < shape.packages; ++p) {
    for (int d = 0; d < shape.nodes_per_package; ++d) {
      for (int c = 0; c < shape.cores_per_node; ++c) {
        for (int t = 0; t < shape.smt_per_core; ++t) {
          TopoCpu info;
          info.cpu = cpu++;
          info.package = p;
          info.node = p * shape.nodes_per_package + d;
          info.core = d * shape.cores_per_node + c;  // unique within package
          info.smt = t;
          cpus.push_back(info);
        }
      }
    }
  }
  return Topology(std::move(cpus));
}

int Topology::NodeOfCpu(int cpu) const {
  for (const TopoCpu& c : cpus_) {
    if (c.cpu == cpu) return c.node;
  }
  return -1;
}

int Topology::PackageOfCpu(int cpu) const {
  for (const TopoCpu& c : cpus_) {
    if (c.cpu == cpu) return c.package;
  }
  return -1;
}

int Topology::CoreOfCpu(int cpu) const {
  for (const TopoCpu& c : cpus_) {
    if (c.cpu == cpu) return c.core;
  }
  return -1;
}

int Topology::SmtOfCpu(int cpu) const {
  for (const TopoCpu& c : cpus_) {
    if (c.cpu == cpu) return c.smt;
  }
  return -1;
}

std::vector<int> Topology::CpusOnNode(int node) const {
  std::vector<int> out;
  for (const TopoCpu& c : cpus_) {
    if (c.node == node) out.push_back(c.cpu);
  }
  return out;
}

Topology Topology::OnNode(int node, int slice, int slices) const {
  std::vector<TopoCpu> subset;
  for (const TopoCpu& c : cpus_) {
    if (c.node == node) subset.push_back(c);
  }
  if (slices <= 1 || subset.empty()) return Topology(std::move(subset));
  slice = ((slice % slices) + slices) % slices;
  // Cores in placement order (first siblings come first, so a core's
  // position is set by its first sibling).
  std::vector<std::pair<int, int>> cores;
  for (const TopoCpu& c : subset) {
    const std::pair<int, int> id{c.package, c.core};
    if (std::find(cores.begin(), cores.end(), id) == cores.end()) {
      cores.push_back(id);
    }
  }
  const std::size_t k = static_cast<std::size_t>(slices);
  const std::size_t s = static_cast<std::size_t>(slice);
  std::vector<TopoCpu> mine;
  if (cores.size() >= k) {
    for (const TopoCpu& c : subset) {
      const std::size_t core = static_cast<std::size_t>(
          std::find(cores.begin(), cores.end(),
                    std::pair<int, int>{c.package, c.core}) -
          cores.begin());
      if (core * k / cores.size() == s) mine.push_back(c);
    }
  } else if (subset.size() >= k) {
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (i * k / subset.size() == s) mine.push_back(subset[i]);
    }
  } else {
    mine.push_back(subset[s % subset.size()]);
  }
  return Topology(std::move(mine));
}

int Topology::CpuForNode(int node, int total_nodes) const {
  if (cpus_.empty() || node < 0) return -1;
  (void)total_nodes;
  // No wrap-around: with a mask smaller than the thread count a round-robin
  // would pin helper threads (feeder, collector — registered after the
  // pipeline nodes) onto the SAME cpus as pipeline nodes. Two threads
  // hard-pinned to one cpu cannot be separated by the scheduler, so the
  // helper would serialize the hot path. Threads beyond the set run
  // unpinned (-1) instead.
  if (static_cast<std::size_t>(node) >= cpus_.size()) return -1;
  return cpus_[static_cast<std::size_t>(node)].cpu;
}

}  // namespace sjoin
