#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/stats.h"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kib = std::strtod(line.c_str() + 6, nullptr);
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> values) { return pct(std::move(values), 50); }

double pct(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  return lp::percentile(std::move(values), q);
}

void Result::param(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  params[key] = buf;
}

namespace {
constexpr std::size_t kProbeSlots = std::size_t(1) << 17;  // 4 MiB
constexpr int kProbeEvents = 4096;
constexpr int kProbeOps = 64000;
}  // namespace

HostProbe::HostProbe() : slots_(kProbeSlots) {
  sample();  // warm the table and the allocator; not kept
  times_.clear();
}

void HostProbe::sample() {
  const double t0 = wall_sec();
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  auto next = [&s] {  // splitmix64
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<std::uint32_t, double> sums;
  for (std::uint32_t i = 0; i < kProbeEvents; ++i)
    queue.push({next() % 100000, i});
  for (int i = 0; i < kProbeOps; ++i) {
    const Event e = queue.top();
    queue.pop();
    const std::uint64_t r = next();
    Slot& slot = slots_[r & (kProbeSlots - 1)];
    slot.a += e.first;
    slot.x = slot.x * 0.5 + double(e.second);
    if (slot.a & 1)
      slot.b ^= r;
    else
      slot.y += slot.x;
    sums[std::uint32_t(r >> 40) & 16383] += slot.x;
    queue.push({e.first + (r >> 48) % 5000 + 1, e.second});
  }
  sink_ += queue.top().first + sums.size();
  times_.push_back(wall_sec() - t0);
}

double HostProbe::median_sec() const { return median(times_); }

double HostProbe::scale() const {
  const double m = median_sec();
  return m > 0.0 ? kRefSec / m : 1.0;
}

int server_threads() {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(2, nproc);
}

}  // namespace perfbench
