#include "bench/e2e/profiler.h"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

namespace hiway {
namespace e2e {
namespace {

/// Source files of each layer, for local symbols (lambdas, helpers in
/// anonymous namespaces, and template instantiations a file made for
/// itself). "" marks the src/common and src/tools helpers, which are
/// charged to their caller.
const std::map<std::string_view, std::string_view>& FileLayers() {
  static const auto* table = new std::map<std::string_view, std::string_view>{
      {"engine.cc", "sim.engine"},
      {"flow.cc", "sim.flow"},
      {"cluster.cc", "sim.cluster"},
      {"load_injector.cc", "sim.cluster"},
      {"fault_injector.cc", "sim.cluster"},
      {"yarn.cc", "yarn"},
      {"rm_scheduler.cc", "yarn"},
      {"hiway_am.cc", "core.am"},
      {"task_executor.cc", "core.am"},
      {"client.cc", "core.am"},
      {"scheduler.cc", "core.scheduler"},
      {"runtime_estimator.cc", "core.scheduler"},
      {"provenance.cc", "core.provenance"},
      {"provdb.cc", "core.provenance"},
      {"dfs.cc", "hdfs"},
      {"cuneiform.cc", "lang"},
      {"cuneiform_parser.cc", "lang"},
      {"cwl_source.cc", "lang"},
      {"dax_builder.cc", "lang"},
      {"dax_source.cc", "lang"},
      {"galaxy_source.cc", "lang"},
      {"trace_source.cc", "lang"},
      {"workflow_validate.cc", "lang"},
      {"result_cache.cc", "cache"},
      {"staging_cache.cc", "cache"},
      {"intermediate_gc.cc", "gc"},
      {"footprint.cc", "gc"},
      {"workflow_service.cc", "service"},
      {"json.cc", ""},
      {"logging.cc", ""},
      {"status.cc", ""},
      {"strings.cc", ""},
      {"xml.cc", ""},
      {"standard_tools.cc", ""},
      {"tool_registry.cc", ""},
  };
  return *table;
}

/// Public classes, namespaces and free functions of each layer, for
/// global symbols (names below hiway::).
constexpr std::pair<std::string_view, std::string_view> kNameLayers[] = {
    {"SimEngine", "sim.engine"},
    {"FlowNetwork", "sim.flow"},
    {"Cluster", "sim.cluster"},
    {"ClusterSpec", "sim.cluster"},
    {"LoadInjector", "sim.cluster"},
    {"FaultInjector", "sim.cluster"},
    {"ResourceManager", "yarn"},
    {"RmScheduler", "yarn"},
    {"RmTenancyView", "yarn"},
    {"MakeRmScheduler", "yarn"},
    {"HiWayAm", "core.am"},
    {"HiWayClient", "core.am"},
    {"TaskExecutor", "core.am"},
    {"StorageAdapter", "core.am"},
    {"DfsStorageAdapter", "core.am"},
    {"SharedVolumeStorageAdapter", "core.am"},
    {"WorkflowScheduler", "core.scheduler"},
    {"FcfsScheduler", "core.scheduler"},
    {"DataAwareScheduler", "core.scheduler"},
    {"RoundRobinScheduler", "core.scheduler"},
    {"HeftScheduler", "core.scheduler"},
    {"OnlineMctScheduler", "core.scheduler"},
    {"MakeScheduler", "core.scheduler"},
    {"RuntimeEstimator", "core.scheduler"},
    {"ProvenanceManager", "core.provenance"},
    {"ProvenanceShard", "core.provenance"},
    {"ProvenanceView", "core.provenance"},
    {"ProvenanceStore", "core.provenance"},
    {"InMemoryProvenanceStore", "core.provenance"},
    {"ProvenanceEvent", "core.provenance"},
    {"SerializeTrace", "core.provenance"},
    {"ParseTrace", "core.provenance"},
    {"ProvDb", "core.provenance"},
    {"ProvDbDirectory", "core.provenance"},
    {"ProvDbProvenanceStore", "core.provenance"},
    {"OpenShardedProvenance", "core.provenance"},
    {"Dfs", "hdfs"},
    {"cuneiform", "lang"},
    {"CuneiformSource", "lang"},
    {"CuneiformValue", "lang"},
    {"CwlSource", "lang"},
    {"DaxSource", "lang"},
    {"DaxBuilder", "lang"},
    {"DaxJobBuilder", "lang"},
    {"GalaxySource", "lang"},
    {"StaticWorkflowSource", "lang"},
    {"TraceSource", "lang"},
    {"WorkflowSource", "lang"},
    {"ValidateWorkflowTasks", "lang"},
    {"ResultCache", "cache"},
    {"CachedOutput", "cache"},
    {"StagingCache", "cache"},
    {"IntermediateGc", "gc"},
    {"EstimateFootprint", "gc"},
    {"WorkflowService", "service"},
};

/// src/common and src/tools names, and value types that every layer
/// copies around: charged to the caller.
constexpr std::string_view kHelpers[] = {
    "Status",       "Result",        "StrFormat",     "StrSplit",
    "StrJoin",      "StrTrim",       "StartsWith",    "EndsWith",
    "ParseInt64",   "ParseDouble",   "Fnv1a64",       "HumanBytes",
    "HumanDuration", "FlatHashMap",  "Json",          "JsonEscape",
    "ParseXml",     "XmlElement",    "Rng",           "LogMessage",
    "NullStream",   "internal",      "RetryPolicy",   "ToolRegistry",
    "ToolProfile",  "RegisterStandardTools", "TaskSpec",   "TaskResult",
    "OutputSpec",   "Container",     "ContainerRequest", "WorkflowReport",
};

/// True when `name` is `hiway::<id>` or something nested in it.
bool Names(std::string_view name, std::string_view id) {
  constexpr std::string_view kNs = "hiway::";
  if (name.substr(0, kNs.size()) != kNs) return false;
  name.remove_prefix(kNs.size());
  if (name.substr(0, id.size()) != id) return false;
  if (name.size() == id.size()) return true;
  char next = name[id.size()];
  return next == ':' || next == '<' || next == '(' || next == '[';
}

std::string Demangle(const char* mangled) {
  int status = 0;
  char* out = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status != 0 || out == nullptr) return mangled;
  std::string name(out);
  std::free(out);
  return name;
}

// ---- Signal-handler state (one running sampler per process) ----------

constexpr int kMaxDepth = 32;
/// backtrace() called from the handler reports the handler itself and the
/// kernel's signal trampoline before the interrupted frame.
constexpr int kHandlerFrames = 2;

void** g_frames = nullptr;
int* g_depths = nullptr;
size_t g_capacity = 0;
std::atomic<size_t> g_count{0};

void OnSigprof(int) {
  int saved_errno = errno;
  size_t n = g_count.load(std::memory_order_relaxed);
  if (n < g_capacity) {
    g_depths[n] = backtrace(g_frames + n * kMaxDepth, kMaxDepth);
    g_count.store(n + 1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

int FindMainProgram(dl_phdr_info* info, size_t, void* data) {
  *static_cast<uintptr_t*>(data) = info->dlpi_addr;
  return 1;  // the first entry is the executable itself
}

}  // namespace

const std::vector<std::string>& Layers() {
  static const auto* layers = new std::vector<std::string>{
      "sim.engine",      "sim.flow", "sim.cluster", "yarn",
      "core.am",         "core.scheduler", "core.provenance", "hdfs",
      "lang",            "cache",    "gc",          "service",
      "other"};
  return *layers;
}

std::string LayerOf(std::string_view demangled, std::string_view file) {
  for (std::string_view thunk :
       {"non-virtual thunk to ", "virtual thunk to ",
        "covariant return thunk to "}) {
    if (demangled.substr(0, thunk.size()) == thunk) {
      demangled.remove_prefix(thunk.size());
    }
  }
  if (!file.empty()) {
    auto it = FileLayers().find(file);
    if (it != FileLayers().end()) return std::string(it->second);
    // Hiway sources outside the named layers (obs, elastic, infra, this
    // benchmark); C runtime objects are charged to their caller.
    size_t dot = file.rfind('.');
    return dot != std::string_view::npos && file.substr(dot) == ".cc"
               ? "other"
               : "";
  }
  constexpr std::string_view kHandler = "std::_Function_handler<";
  if (demangled.substr(0, kHandler.size()) == kHandler) {
    size_t comma = demangled.find(", ");
    if (comma != std::string_view::npos) {
      return LayerOf(demangled.substr(comma + 2), "");
    }
  }
  if (demangled.substr(0, 7) != "hiway::") return "";
  for (const auto& [id, layer] : kNameLayers) {
    if (Names(demangled, id)) return std::string(layer);
  }
  for (std::string_view id : kHelpers) {
    if (Names(demangled, id)) return "";
  }
  return "other";
}

Result<std::unique_ptr<Symbolizer>> Symbolizer::ForThisProcess() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  Elf64_Ehdr eh;
  if (image.size() < sizeof(eh)) {
    return Status::IoError("cannot read /proc/self/exe");
  }
  std::memcpy(&eh, image.data(), sizeof(eh));
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shentsize != sizeof(Elf64_Shdr) ||
      eh.e_shoff > image.size() ||
      eh.e_shnum > (image.size() - eh.e_shoff) / sizeof(Elf64_Shdr)) {
    return Status::InvalidArgument("executable is not a readable ELF64 file");
  }
  auto section = [&](size_t i) {
    Elf64_Shdr sh;
    std::memcpy(&sh, image.data() + eh.e_shoff + i * sizeof(sh), sizeof(sh));
    return sh;
  };
  auto in_image = [&](const Elf64_Shdr& sh) {
    return sh.sh_offset <= image.size() &&
           sh.sh_size <= image.size() - sh.sh_offset;
  };
  for (size_t i = 0; i < eh.e_shnum; ++i) {
    Elf64_Shdr symtab = section(i);
    if (symtab.sh_type != SHT_SYMTAB) continue;
    if (symtab.sh_link >= eh.e_shnum) break;
    Elf64_Shdr strtab = section(symtab.sh_link);
    if (!in_image(symtab) || !in_image(strtab) || strtab.sh_size == 0) break;
    uintptr_t base = 0;
    dl_iterate_phdr(FindMainProgram, &base);
    std::unique_ptr<Symbolizer> out(new Symbolizer());
    out->strtab_ = image.substr(strtab.sh_offset, strtab.sh_size);
    out->strtab_.back() = '\0';
    uint32_t file = 0;
    for (size_t off = 0; off + sizeof(Elf64_Sym) <= symtab.sh_size;
         off += sizeof(Elf64_Sym)) {
      Elf64_Sym sym;
      std::memcpy(&sym, image.data() + symtab.sh_offset + off, sizeof(sym));
      if (sym.st_name >= out->strtab_.size()) continue;
      int type = ELF64_ST_TYPE(sym.st_info);
      if (type == STT_FILE) {
        file = sym.st_name;
        continue;
      }
      if (type != STT_FUNC || sym.st_size == 0 ||
          sym.st_shndx == SHN_UNDEF) {
        continue;
      }
      bool local = ELF64_ST_BIND(sym.st_info) == STB_LOCAL;
      out->symbols_.push_back({base + sym.st_value,
                               base + sym.st_value + sym.st_size,
                               sym.st_name, local ? file : 0});
    }
    std::sort(out->symbols_.begin(), out->symbols_.end(),
              [](const Symbol& a, const Symbol& b) {
                return a.start < b.start;
              });
    return out;
  }
  return Status::NotFound(
      "executable has no symbol table (stripped?); layer attribution "
      "needs one");
}

const Symbolizer::Symbol* Symbolizer::Find(uintptr_t pc) const {
  auto it = std::upper_bound(
      symbols_.begin(), symbols_.end(), pc,
      [](uintptr_t p, const Symbol& s) { return p < s.start; });
  if (it == symbols_.begin()) return nullptr;
  --it;
  return pc < it->end ? &*it : nullptr;
}

std::string Symbolizer::Name(uintptr_t pc) const {
  const Symbol* sym = Find(pc);
  return sym == nullptr ? "" : Demangle(strtab_.c_str() + sym->name);
}

std::string Symbolizer::Layer(uintptr_t pc) const {
  const Symbol* sym = Find(pc);
  if (sym == nullptr) return "";
  auto cached = layer_cache_.find(sym->start);
  if (cached != layer_cache_.end()) return cached->second;
  std::string_view file = sym->file == 0 ? "" : strtab_.c_str() + sym->file;
  std::string layer =
      LayerOf(Demangle(strtab_.c_str() + sym->name), file);
  layer_cache_.emplace(sym->start, layer);
  return layer;
}

StackSampler::StackSampler(size_t max_samples)
    : frames_(max_samples * kMaxDepth), depths_(max_samples) {}

StackSampler::~StackSampler() { Stop(); }

Status StackSampler::Start() {
  if (running_) return Status::OK();
  auto failed = [](const char* call) {
    return Status::RuntimeError(std::string("stack sampler: ") + call + ": " +
                                std::strerror(errno));
  };
  // The first backtrace() loads the unwinder, which is not safe inside a
  // signal handler; pay that cost here.
  void* warmup[kMaxDepth];
  backtrace(warmup, kMaxDepth);
  g_frames = frames_.data();
  g_depths = depths_.data();
  g_capacity = depths_.size();
  g_count.store(0);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return failed("sigaction");
  // A CLOCK_MONOTONIC timer rather than ITIMER_PROF: CPU-time timers only
  // fire on the scheduler tick (250 Hz on common kernels), while the
  // replay is single-threaded and CPU-bound, so wall time is what it uses.
  sigevent event;
  std::memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &event, &timer_) != 0) {
    return failed("timer_create");
  }
  itimerspec period{{0, 1000000}, {0, 1000000}};
  if (timer_settime(timer_, 0, &period, nullptr) != 0) {
    Status st = failed("timer_settime");
    timer_delete(timer_);
    return st;
  }
  running_ = true;
  return Status::OK();
}

void StackSampler::Stop() {
  if (!running_) return;
  timer_delete(timer_);
  // A signal already in flight must not run the default action (exit).
  signal(SIGPROF, SIG_IGN);
  running_ = false;
}

std::map<std::string, int64_t> StackSampler::Attribute(
    const Symbolizer& symbols) const {
  std::map<std::string, int64_t> counts;
  for (const std::string& layer : Layers()) counts[layer] = 0;
  size_t samples = std::min(g_count.load(), depths_.size());
  for (size_t i = 0; i < samples; ++i) {
    std::string layer;
    for (int k = kHandlerFrames; k < depths_[i] && layer.empty(); ++k) {
      auto pc = reinterpret_cast<uintptr_t>(frames_[i * kMaxDepth + k]);
      // Outer frames hold return addresses, which may point one past the
      // end of the calling function.
      layer = symbols.Layer(k == kHandlerFrames ? pc : pc - 1);
    }
    ++counts[layer.empty() ? "other" : layer];
  }
  return counts;
}

}  // namespace e2e
}  // namespace hiway
