#pragma once

// The calling thread's CPU affinity, for tests whose behaviour depends on
// how many CPUs a thread may run on (gpusim::Device::run_blocks sizes its
// thread team from it).

#include <sched.h>

#include <stdexcept>
#include <vector>

namespace hrf::testing_affinity {

/// The CPUs the calling thread may run on, lowest first.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_getaffinity");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Narrows the calling thread to its first `n` allowed CPUs while alive;
/// the destructor restores the mask it found.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(std::size_t n) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity");
    }
    const std::vector<int> cpus = allowed_cpus();
    if (n > cpus.size()) throw std::runtime_error("fewer CPUs allowed than requested");
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    for (std::size_t i = 0; i < n; ++i) CPU_SET(cpus[i], &narrow);
    if (sched_setaffinity(0, sizeof narrow, &narrow) != 0) {
      throw std::runtime_error("sched_setaffinity");
    }
  }
  ~ScopedAffinity() { sched_setaffinity(0, sizeof saved_, &saved_); }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_;
};

}  // namespace hrf::testing_affinity
