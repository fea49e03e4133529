#include "obs/prof.h"

#include <cstring>
#include <mutex>
#include <utility>

#include "util/budget.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace pebblejoin {
namespace {

// ForceUnavailableForTest state. A mutex (not an atomic string) because the
// force seam is test-only and groups open rarely; Read() never touches it.
std::mutex g_force_mu;
std::string g_force_reason;

std::string ForcedReason() {
  std::lock_guard<std::mutex> lock(g_force_mu);
  return g_force_reason;
}

#if defined(__linux__)

struct EventSpec {
  uint64_t config;
  const char* name;
};

// Order matches PerfCounts field order; Read() relies on it.
constexpr EventSpec kEvents[] = {
    {PERF_COUNT_HW_CPU_CYCLES, "cycles"},
    {PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
    {PERF_COUNT_HW_CACHE_REFERENCES, "cache-references"},
    {PERF_COUNT_HW_CACHE_MISSES, "cache-misses"},
    {PERF_COUNT_HW_BRANCH_MISSES, "branch-misses"},
};
static_assert(sizeof(kEvents) / sizeof(kEvents[0]) == 5,
              "event table must match PerfCounts");

long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

std::string ErrnoName(int err) {
  switch (err) {
    case EACCES:
      return "EACCES";
    case EPERM:
      return "EPERM";
    case ENOSYS:
      return "ENOSYS";
    case ENOENT:
      return "ENOENT";
    case ENODEV:
      return "ENODEV";
    case EOPNOTSUPP:
      return "EOPNOTSUPP";
    default:
      return "errno " + std::to_string(err);
  }
}

std::string OpenFailureReason(int err, const char* event) {
  std::string reason = ErrnoName(err) + ": perf_event_open(" + event + ") ";
  switch (err) {
    case EACCES:
    case EPERM:
      reason += "denied (perf_event_paranoid or missing CAP_PERFMON?)";
      break;
    case ENOSYS:
      reason += "not supported by this kernel";
      break;
    case ENOENT:
    case ENODEV:
    case EOPNOTSUPP:
      reason += "event not supported by this PMU";
      break;
    default:
      reason += std::strerror(err);
      break;
  }
  return reason;
}

#endif  // defined(__linux__)

}  // namespace

PerfCounterGroup::PerfCounterGroup() {
  const std::string forced = ForcedReason();
  if (!forced.empty()) {
    reason_ = forced;
    return;
  }
#if defined(__linux__)
  for (int i = 0; i < kNumEvents; ++i) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = kEvents[i].config;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    // enabled/running times make the multiplexed-counter scaling in Read()
    // possible: with 5 events on a small PMU the kernel time-shares slots.
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    const long fd = PerfEventOpen(&attr, /*pid=*/0, /*cpu=*/-1,
                                  /*group_fd=*/-1, /*flags=*/0);
    if (fd < 0) {
      reason_ = OpenFailureReason(errno, kEvents[i].name);
      for (int j = 0; j < i; ++j) {
        close(fds_[j]);
        fds_[j] = -1;
      }
      return;
    }
    fds_[i] = static_cast<int>(fd);
  }
  for (int fd : fds_) {
    ioctl(fd, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
  }
  available_ = true;
#else
  reason_ = "unsupported: perf_event_open requires Linux";
#endif
}

PerfCounterGroup::PerfCounterGroup(std::function<PerfCounts()> reader)
    : available_(true), fake_reader_(std::move(reader)) {}

PerfCounterGroup::~PerfCounterGroup() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
#endif
}

PerfCounts PerfCounterGroup::Read() const {
  if (fake_reader_) return fake_reader_();
  PerfCounts out;
  if (!available_) return out;
#if defined(__linux__)
  int64_t* fields[kNumEvents] = {&out.cycles, &out.instructions,
                                 &out.cache_references, &out.cache_misses,
                                 &out.branch_misses};
  for (int i = 0; i < kNumEvents; ++i) {
    struct {
      uint64_t value;
      uint64_t time_enabled;
      uint64_t time_running;
    } sample;
    const ssize_t n = read(fds_[i], &sample, sizeof(sample));
    if (n != static_cast<ssize_t>(sizeof(sample))) continue;  // leaves 0
    *fields[i] =
        ScaleValue(sample.value, sample.time_enabled, sample.time_running);
  }
#endif
  return out;
}

PerfCounterGroup* PerfCounterGroup::ThisThread() {
  thread_local PerfCounterGroup group;
  return &group;
}

PerfCounterGroup* BudgetContext::perf_group() const {
  return perf_enabled_ && stats_ != nullptr ? PerfCounterGroup::ThisThread()
                                            : nullptr;
}

void PerfCounterGroup::ForceUnavailableForTest(const std::string& reason) {
  std::lock_guard<std::mutex> lock(g_force_mu);
  g_force_reason = reason;
}

int64_t PerfCounterGroup::ScaleValue(uint64_t raw, uint64_t enabled,
                                     uint64_t running) {
  if (running == 0) return 0;  // never scheduled: no basis for an estimate
  if (running >= enabled) return static_cast<int64_t>(raw);
  const long double scaled = static_cast<long double>(raw) *
                             static_cast<long double>(enabled) /
                             static_cast<long double>(running);
  return static_cast<int64_t>(scaled);
}

}  // namespace pebblejoin
