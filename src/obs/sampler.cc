#include "obs/sampler.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "util/file_io.h"

#if defined(__linux__) && __has_include(<execinfo.h>)
#define PEBBLEJOIN_SAMPLER_SUPPORTED 1
#include <cxxabi.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#else
#define PEBBLEJOIN_SAMPLER_SUPPORTED 0
#endif

namespace pebblejoin {

namespace {

// Frames containing the format's two separators would corrupt the folded
// document; '_' keeps the line parseable by every flamegraph tool.
std::string SanitizeFrame(const std::string& frame) {
  if (frame.empty()) return "?";
  std::string out = frame;
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

void StackAggregator::AddSample(const std::vector<std::string>& frames) {
  AddSamples(frames, 1);
}

void StackAggregator::AddSamples(const std::vector<std::string>& frames,
                                 int64_t count) {
  if (count <= 0) return;
  std::string key;
  if (frames.empty()) {
    key = "?";
  } else {
    for (size_t i = 0; i < frames.size(); ++i) {
      if (i > 0) key += ';';
      key += SanitizeFrame(frames[i]);
    }
  }
  counts_[key] += count;
  total_ += count;
}

std::string StackAggregator::Folded() const {
  // std::map iteration is already lexicographic: identical sample sets
  // fold to identical bytes regardless of arrival order.
  std::string out;
  for (const auto& entry : counts_) {
    out += entry.first;
    out += ' ';
    out += std::to_string(entry.second);
    out += '\n';
  }
  return out;
}

#if PEBBLEJOIN_SAMPLER_SUPPORTED

namespace {

// Everything the SIGPROF handler touches. Preallocated by Start() on the
// calling thread; the handler only bumps the atomic cursor and writes raw
// addresses — async-signal-safe by construction (backtrace() itself is
// primed before the timer arms, so its one-time dynamic-linker lookup
// happens outside signal context).
struct SamplerSlab {
  std::vector<void*> addrs;  // max_samples * max_depth address slots
  std::vector<int> depths;   // frames captured per sample
  int max_samples = 0;
  int max_depth = 0;
  std::atomic<int> cursor{0};
  std::atomic<int64_t> dropped{0};
};

std::atomic<SamplerSlab*> g_slab{nullptr};
SamplingProfiler* g_active = nullptr;  // Start/Stop thread only
struct sigaction g_prev_action;

void SigprofHandler(int) {
  SamplerSlab* slab = g_slab.load(std::memory_order_acquire);
  if (slab == nullptr) return;
  const int slot = slab->cursor.fetch_add(1, std::memory_order_relaxed);
  if (slot >= slab->max_samples) {
    slab->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  void** frames = slab->addrs.data() +
                  static_cast<size_t>(slot) * slab->max_depth;
  slab->depths[slot] = backtrace(frames, slab->max_depth);
}

// One backtrace_symbols() line → a humane frame name: the demangled
// function when the symbol table offers one, otherwise "module+0xoff" so
// stripped or static frames still distinguish themselves.
std::string FrameName(const char* symbol) {
  // Shapes: "binary(Function+0x1a) [0x...]", "binary(+0x1a) [0x...]",
  // "binary [0x...]".
  const char* open = std::strchr(symbol, '(');
  if (open != nullptr && open[1] != '\0' && open[1] != ')' &&
      open[1] != '+') {
    const char* end = std::strpbrk(open + 1, "+)");
    if (end != nullptr) {
      std::string mangled(open + 1, end);
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
      if (status == 0 && demangled != nullptr) {
        std::string name(demangled);
        std::free(demangled);
        return name;
      }
      if (demangled != nullptr) std::free(demangled);
      return mangled;  // already a plain C name
    }
  }
  // No function name: "basename(module)+offset" keeps frames comparable
  // across runs of the same binary. In-place erase/resize instead of
  // self-assignment from substr — GCC 12's -Wrestrict false-positives on
  // the latter.
  std::string module(symbol);
  const size_t bracket = module.find(" [");
  if (bracket != std::string::npos) module.resize(bracket);
  std::string offset;
  const size_t paren = module.find('(');
  if (paren != std::string::npos) {
    const size_t close = module.find(')', paren);
    if (close != std::string::npos) {
      offset.assign(module, paren + 1, close - paren - 1);
    }
    module.resize(paren);
  }
  const size_t slash = module.rfind('/');
  if (slash != std::string::npos) module.erase(0, slash + 1);
  if (module.empty()) return offset.empty() ? "?" : offset;
  module += offset;
  return module;
}

}  // namespace

SamplingProfiler::~SamplingProfiler() { Stop(); }

bool SamplingProfiler::Supported() { return true; }

bool SamplingProfiler::Start() {
  if (active_) return true;
  if (g_active != nullptr) {
    reason_ = "another SamplingProfiler is already active (SIGPROF is "
              "process-global)";
    return false;
  }
  auto* slab = new SamplerSlab();
  slab->max_samples = kMaxSamples;
  slab->max_depth = kMaxDepth;
  slab->addrs.assign(
      static_cast<size_t>(slab->max_samples) * slab->max_depth, nullptr);
  slab->depths.assign(slab->max_samples, 0);

  // Prime backtrace: its first call may dlopen libgcc to find the unwinder,
  // which must never happen inside the signal handler.
  void* prime[2];
  backtrace(prime, 2);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SigprofHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &action, &g_prev_action) != 0) {
    reason_ = std::string("sigaction(SIGPROF) failed: ") +
              std::strerror(errno);
    delete slab;
    return false;
  }
  g_slab.store(slab, std::memory_order_release);

  itimerval timer;
  timer.it_interval.tv_sec = kIntervalMs / 1000;
  timer.it_interval.tv_usec = (kIntervalMs % 1000) * 1000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    reason_ = std::string("setitimer(ITIMER_PROF) failed: ") +
              std::strerror(errno);
    g_slab.store(nullptr, std::memory_order_release);
    sigaction(SIGPROF, &g_prev_action, nullptr);
    delete slab;
    return false;
  }

  g_active = this;
  active_ = true;
  reason_.clear();
  return true;
}

void SamplingProfiler::Stop() {
  if (!active_) return;

  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  SamplerSlab* slab = g_slab.exchange(nullptr, std::memory_order_acq_rel);
  sigaction(SIGPROF, &g_prev_action, nullptr);
  g_active = nullptr;
  active_ = false;
  if (slab == nullptr) return;

  const int taken =
      std::min(slab->cursor.load(std::memory_order_relaxed),
               slab->max_samples);
  sample_count_ += taken;
  dropped_samples_ += slab->dropped.load(std::memory_order_relaxed);

  // Symbolize each distinct address once — backtrace_symbols allocates per
  // call, and hot stacks repeat the same few hundred addresses thousands
  // of times.
  std::unordered_map<void*, std::string> names;
  {
    std::vector<void*> unique;
    for (int s = 0; s < taken; ++s) {
      void** frames =
          slab->addrs.data() + static_cast<size_t>(s) * slab->max_depth;
      for (int f = 0; f < slab->depths[s]; ++f) {
        if (names.emplace(frames[f], std::string()).second) {
          unique.push_back(frames[f]);
        }
      }
    }
    // No samples, nothing to name: backtrace_symbols must not see the
    // empty vector's null data().
    if (!unique.empty()) {
      char** symbols = backtrace_symbols(unique.data(),
                                         static_cast<int>(unique.size()));
      for (size_t i = 0; i < unique.size(); ++i) {
        names[unique[i]] =
            symbols != nullptr ? FrameName(symbols[i]) : "?";
      }
      if (symbols != nullptr) std::free(symbols);
    }
  }

  // Handler-context frames (SigprofHandler + the kernel's signal
  // trampoline) lead every capture; dropping the top two leaves the frame
  // that was actually executing when the timer fired.
  constexpr int kHandlerFrames = 2;
  std::vector<std::string> stack;
  for (int s = 0; s < taken; ++s) {
    void** frames =
        slab->addrs.data() + static_cast<size_t>(s) * slab->max_depth;
    const int depth = slab->depths[s];
    const int skip = depth > kHandlerFrames ? kHandlerFrames : 0;
    stack.clear();
    for (int f = depth - 1; f >= skip; --f) {  // reverse: root first
      stack.push_back(names[frames[f]]);
    }
    aggregator_.AddSample(stack);
  }
  delete slab;
}

#else  // !PEBBLEJOIN_SAMPLER_SUPPORTED

SamplingProfiler::~SamplingProfiler() = default;

bool SamplingProfiler::Supported() { return false; }

bool SamplingProfiler::Start() {
  reason_ = "sampling profiler requires Linux with <execinfo.h>";
  return false;
}

void SamplingProfiler::Stop() {}

#endif  // PEBBLEJOIN_SAMPLER_SUPPORTED

bool SamplingProfiler::WriteFolded(const std::string& path,
                                   std::string* error) const {
  const FileStatus status = WriteStringToFile(
      path, Folded() + "# samples " + std::to_string(sample_count_) +
                " dropped " + std::to_string(dropped_samples_) + "\n");
  if (!status.ok() && error != nullptr) *error = status.Message(path);
  return status.ok();
}

}  // namespace pebblejoin
