// Wall-time attribution for the benchmark's traced run. A SIGPROF stack
// sampler records raw return addresses; afterwards a symbolizer reads the
// executable's own ELF symbol table and charges each sample to the layer
// (src/ module) of its innermost layer frame. Nothing under src/ is
// instrumented.
//
// Why the full symbol table and not dladdr(): dladdr only sees exported
// symbols, while most simulator work runs in event-callback lambdas and
// anonymous-namespace helpers, which have local symbols. Local symbols
// also carry the source file they were compiled from (STT_FILE), so an
// anonymous-namespace helper is charged to its file's module.

#ifndef HIWAY_BENCH_E2E_PROFILER_H_
#define HIWAY_BENCH_E2E_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace hiway {
namespace e2e {

/// Layer names in report order. "other" collects hiway code outside the
/// named modules and samples with no hiway frame at all.
const std::vector<std::string>& Layers();

/// Layer of one symbol: `demangled` is its name, `file` the source file
/// basename of a local symbol ("" for global symbols). Returns "" for a
/// frame charged to its caller: the C++ standard library, libc, and the
/// src/common helpers (StrFormat, FlatHashMap, Status/Result, Json, ...).
std::string LayerOf(std::string_view demangled, std::string_view file);

/// Resolves code addresses of this executable to names and layers.
class Symbolizer {
 public:
  /// Loads the symbol table of the running executable.
  static Result<std::unique_ptr<Symbolizer>> ForThisProcess();

  /// Demangled name of the function containing `pc`; "" when `pc` lies
  /// outside every function of the executable (shared libraries).
  std::string Name(uintptr_t pc) const;

  /// LayerOf() the function containing `pc`; "" when unresolved.
  std::string Layer(uintptr_t pc) const;

 private:
  struct Symbol {
    uintptr_t start = 0;
    uintptr_t end = 0;
    uint32_t name = 0;  // offset into strtab_
    uint32_t file = 0;  // offset of the STT_FILE name; 0 = global symbol
  };

  Symbolizer() = default;
  const Symbol* Find(uintptr_t pc) const;

  std::string strtab_;
  std::vector<Symbol> symbols_;  // sorted by start
  mutable std::map<uintptr_t, std::string> layer_cache_;
};

/// SIGPROF sampler: every millisecond of wall time it stores the current
/// call stack into a buffer preallocated by the constructor. At most one
/// sampler may be running per process.
class StackSampler {
 public:
  explicit StackSampler(size_t max_samples);
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Arms the timer. Fails when the SIGPROF handler or the timer cannot
  /// be installed, so that a traced run never reports an empty profile.
  Status Start();
  void Stop();

  /// Samples per layer, each charged to its innermost frame with a
  /// non-empty Symbolizer::Layer(); samples without one go to "other".
  std::map<std::string, int64_t> Attribute(const Symbolizer& symbols) const;

 private:
  std::vector<void*> frames_;
  std::vector<int> depths_;
  timer_t timer_{};
  bool running_ = false;
};

}  // namespace e2e
}  // namespace hiway

#endif  // HIWAY_BENCH_E2E_PROFILER_H_
