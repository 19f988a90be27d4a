// Host context recorded with every result, and process memory.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <sched.h>

#include <string>
#include <vector>

namespace perfbench {

/// One JSON object: nproc, CPU model, compiler, build type, the
/// filesystem type of `wal_dir` and the 1/5/15-minute load averages.
std::string HostContextJson(const std::string& wal_dir);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Moves the calling thread over the CPUs it may run on, one at a time.
/// On a shared host each vCPU sits on a physical core with its own
/// neighbours, and the same rounds ran ~1.5x slower on one vCPU than on
/// another at the same moment. A thread the scheduler leaves on one vCPU
/// measures that vCPU's neighbours; visiting each in turn lets the run's
/// fastest slices come from the least contended one. The destructor
/// restores the thread's original CPU set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU of its original set, in turn; does
  /// nothing when that set holds one CPU or cannot be read.
  void Next();

 private:
  cpu_set_t original_;
  bool restore_ = false;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
