// CPU and host readings the benchmark takes from outside the program: process and thread CPU
// clocks, per-task CPU from /proc/self/task, and host steal time from /proc/stat.

#ifndef PERFBENCH_SRC_PROC_H_
#define PERFBENCH_SRC_PROC_H_

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
inline int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
inline int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
inline int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

inline std::set<int> ListTasks() {
  std::set<int> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return out;
  }
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      out.insert(std::atoi(e->d_name));
    }
  }
  closedir(dir);
  return out;
}

// CPU time of one task of this process in ns (schedstat's run time; falls back to the
// clock-tick utime+stime of /proc/.../stat). -1 once the task has exited.
inline int64_t TaskCpuNs(int tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat", tid);
  if (FILE* f = std::fopen(path, "r")) {
    unsigned long long run_ns = 0;
    const int n = std::fscanf(f, "%llu", &run_ns);
    std::fclose(f);
    if (n == 1) {
      return static_cast<int64_t>(run_ns);
    }
  }
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/stat", tid);
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return -1;
  }
  char buf[1024];
  const size_t len = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[len] = '\0';
  // Fields after the parenthesised command name; utime and stime are fields 14 and 15.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) {
    return -1;
  }
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu", &utime,
                  &stime) != 2) {
    return -1;
  }
  return static_cast<int64_t>((utime + stime) * (1000000000ull / sysconf(_SC_CLK_TCK)));
}

// The CPUs this process may use, split between the program under test and the benchmark's
// load generator: the generator gets the last CPU, the server the rest. Kept apart, the
// generator's threads never share a CPU with the server threads they exchange messages with;
// sharing one, a device and the ingress IO thread serialise their work, and how often the
// scheduler happens to co-locate them would decide a run's latency.
struct CpuSplit {
  cpu_set_t server{};
  cpu_set_t generator{};
  bool split = false;  // false on a single-CPU host: everything shares
};

inline CpuSplit SplitCpus() {
  CpuSplit out;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return out;
  }
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      last = c;
    }
  }
  out.server = allowed;
  CPU_CLR(last, &out.server);
  CPU_ZERO(&out.generator);
  CPU_SET(last, &out.generator);
  out.split = true;
  return out;
}

// Restricts the calling thread (and threads it creates later) to `cpus`.
inline void PinCallingThread(const cpu_set_t& cpus) {
  (void)sched_setaffinity(0, sizeof(cpus), &cpus);
}

// Host-wide jiffies from the first line of /proc/stat: all states, and steal.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
inline HostCpu ReadHostCpu() {
  HostCpu out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return out;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) {
      out.total += x;
    }
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}
inline double StealPct(const HostCpu& a, const HostCpu& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(b.steal - a.steal) /
                                static_cast<double>(total);
}

// Per-thread CPU grouped by the public call that created each thread. Threads are tagged by
// diffing /proc/self/task around the call; a sampler refreshes every tagged thread's CPU so a
// thread that exits mid-run (a dispatcher replaced by seal-in-place) keeps its last reading.
class ThreadGroups {
 public:
  // Tags every task that is not in `before` with `group`.
  void TagNew(const std::set<int>& before, const std::string& group) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int tid : ListTasks()) {
      if (before.count(tid) == 0 && group_of_.count(tid) == 0) {
        group_of_[tid] = group;
      }
    }
  }

  void Sample() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [tid, group] : group_of_) {
      const int64_t ns = TaskCpuNs(tid);
      if (ns >= 0) {
        last_ns_[tid] = ns;
      }
    }
  }

  // Starts the measured interval: CPU a thread used before it does not count.
  void MarkStart() {
    Sample();
    std::lock_guard<std::mutex> lock(mu_);
    base_ns_ = last_ns_;
  }

  // CPU per group since MarkStart, in ns.
  std::map<std::string, int64_t> Totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, int64_t> out;
    for (const auto& [tid, ns] : last_ns_) {
      const auto base = base_ns_.find(tid);
      out[group_of_.at(tid)] += ns - (base == base_ns_.end() ? 0 : base->second);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<int, std::string> group_of_;
  std::map<int, int64_t> last_ns_;
  std::map<int, int64_t> base_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROC_H_
