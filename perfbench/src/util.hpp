// Small helpers of the benchmark harness: order statistics, the
// order-independent result hash, /proc readers (resident memory, per-thread
// CPU affinity) and a minimal JSON writer. Nothing here touches the engine.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sched.h>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

namespace perfbench {

/// Mixes one (r_seq, s_seq) pair into 64 well-spread bits. Summing these
/// over all results gives an order-independent multiset hash; the low bits
/// also pick the deterministic 1-in-N latency/trace sample.
inline uint64_t PairHash(uint64_t r_seq, uint64_t s_seq) {
  uint64_t z = r_seq * 0x9e3779b97f4a7c15ULL + s_seq * 0xc2b2ae3d27d4eb4fULL +
               0x165667b19e3779f9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Quantile q of `v` (nearest rank on a sorted copy); 0 when empty.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k =
      std::min(v.size() - 1,
               static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const T& x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

// -- /proc readers -----------------------------------------------------------

/// Value (kB) of a "Key:   N kB" line of /proc/self/status, or -1.
inline int64_t StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoll(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return -1;
}

/// Host-wide CPU jiffies from /proc/stat: {steal, total}. Steal is time a
/// virtual CPU was runnable but the hypervisor ran something else; a run
/// with a large steal share measured the neighbours, not the engine.
inline std::pair<int64_t, int64_t> CpuStealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0;
  int64_t steal = 0;
  int64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS. Returns
/// false where the kernel does not allow it; callers then read VmRSS.
inline bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// One thread of this process and the CPUs it may run on.
struct ThreadAffinity {
  long tid = 0;
  std::string cpus;  ///< Cpus_allowed_list, e.g. "0-3"
};

inline std::vector<ThreadAffinity> ReadThreadAffinities() {
  std::vector<ThreadAffinity> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ThreadAffinity t;
    t.tid = std::strtol(entry->d_name, nullptr, 10);
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("Cpus_allowed_list:", 0) == 0) {
        t.cpus = line.substr(line.find_first_not_of(" \t", 18));
      }
    }
    out.push_back(t);
  }
  closedir(dir);
  std::sort(out.begin(), out.end(),
            [](const ThreadAffinity& a, const ThreadAffinity& b) {
              return a.tid < b.tid;
            });
  return out;
}

/// Expands a CPU list such as "0-2,5" into its members.
inline std::set<int> ParseCpuList(const std::string& list) {
  std::set<int> cpus;
  std::stringstream ss(list);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (part.empty()) continue;
    const std::size_t dash = part.find('-');
    const int lo = std::stoi(part.substr(0, dash));
    const int hi =
        dash == std::string::npos ? lo : std::stoi(part.substr(dash + 1));
    for (int c = lo; c <= hi; ++c) cpus.insert(c);
  }
  return cpus;
}

/// Distinct CPUs the threads other than the caller may run on.
inline int EngineCpuCount() {
  std::set<int> cpus;
  const long self = static_cast<long>(getpid());
  for (const ThreadAffinity& t : ReadThreadAffinities()) {
    if (t.tid == self) continue;
    const std::set<int> mine = ParseCpuList(t.cpus);
    cpus.insert(mine.begin(), mine.end());
  }
  return static_cast<int>(cpus.size());
}

/// Pins the calling thread, for its lifetime, to the highest CPU it may use
/// that no other thread of the process is restricted to, so the driving
/// thread does not share a core with pinned engine threads. Construct it
/// only after the engine has started: sessions size their placement from
/// the creating thread's affinity. Restores the previous mask on exit.
class CallerPin {
 public:
  CallerPin() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::set<int> taken;
    const long self = static_cast<long>(getpid());
    for (const ThreadAffinity& t : ReadThreadAffinities()) {
      const std::set<int> cpus = ParseCpuList(t.cpus);
      if (t.tid != self && cpus.size() == 1) taken.insert(*cpus.begin());
    }
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &saved_) || taken.count(cpu) != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      break;
    }
  }
  ~CallerPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CallerPin(const CallerPin&) = delete;
  CallerPin& operator=(const CallerPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// -- JSON --------------------------------------------------------------------

/// Shortest round-trip decimal form of `v` (all of its digits, no padding).
inline std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Builds one flat-or-nested JSON object; values are inserted pre-encoded.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Number(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Encode() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
