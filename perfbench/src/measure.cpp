// Resource accounting and small numeric helpers.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string cpu_governor() {
  std::ifstream gov("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string name;
  if (gov && std::getline(gov, name) && !name.empty()) return name;
  return "unknown";
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall = std::chrono::duration<double>(Clock::now().time_since_epoch())
               .count();
  u.cpu = timeval_seconds(ru.ru_utime) + timeval_seconds(ru.ru_stime);
  u.minflt = static_cast<double>(ru.ru_minflt);
  return u;
}

Cost cost_between(const Usage& before, const Usage& after) {
  Cost c;
  c.wall_s = after.wall - before.wall;
  c.cpu_s = after.cpu - before.cpu;
  c.minflt = after.minflt - before.minflt;
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string host_header() {
  std::ostringstream os;
  os << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
     << " governor=" << cpu_governor() << " build=" << PERFBENCH_BUILD_TYPE;
  return os.str();
}

}  // namespace perfbench
