#include "host.h"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string HostContextJson(const std::string& wal_dir) {
  double load[3] = {0.0, 0.0, 0.0};
  std::ifstream("/proc/loadavg") >> load[0] >> load[1] >> load[2];
  std::ostringstream os;
  os << "{\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"cpu_model\":\"" << Escape(CpuModel()) << "\""
     << ",\"compiler\":\"" << Escape(PERFBENCH_COMPILER) << "\""
     << ",\"build_type\":\"" << Escape(PERFBENCH_BUILD_TYPE) << "\""
     << ",\"wal_fs\":\"" << Escape(FsType(wal_dir)) << "\""
     << ",\"loadavg\":[" << load[0] << "," << load[1] << "," << load[2]
     << "]}";
  return os.str();
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  restore_ = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (restore_) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

}  // namespace perfbench
