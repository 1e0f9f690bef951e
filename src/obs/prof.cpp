#include "dvfs/obs/prof.h"

#include <dlfcn.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <cxxabi.h>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <ucontext.h>

#include "dvfs/common.h"
#include "dvfs/obs/clock.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/obs/spsc_ring.h"

// Older glibc keeps the SIGEV_THREAD_ID member behind an internal name.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace dvfs::obs::prof {

namespace detail {
thread_local std::uint8_t tls_stage = 0;
thread_local std::uint16_t tls_shard = kNoShard;
}  // namespace detail

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kNone: return "none";
    case Stage::kIdle: return "idle";
    case Stage::kDrain: return "drain";
    case Stage::kPlacement: return "placement";
    case Stage::kExec: return "exec";
    case Stage::kSteal: return "steal";
    case Stage::kHttp: return "http";
  }
  return "?";
}

// ------------------------------------------------------ thread pool

namespace {

constexpr std::size_t kMaxThreads = 64;
constexpr std::size_t kRingSlots = 512;

/// One profiled thread's slot: identity, timer, stack bounds, and the
/// sample ring the signal handler (always on this thread) produces into
/// and the collector consumes. The pool is process-static so a
/// ThreadGuard can safely outlive any CpuProfiler.
struct ThreadState {
  enum : int { kFree = 0, kActive = 1, kReleased = 2 };
  std::atomic<int> state{kFree};
  pid_t tid = 0;
  clockid_t cpu_clock{};
  timer_t timer{};
  bool has_timer = false;
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  /// Made at the slot's first claim and never freed, so a late SIGPROF
  /// during process exit still finds it.
  SpscRing<Sample>* ring = nullptr;
  std::uint64_t dropped_consumed = 0;  ///< collector-owned watermark
};

ThreadState g_pool[kMaxThreads];

/// Guards slot claim/release, timer arm/disarm, and the active-profiler
/// handoff. Never taken by the signal handler.
std::mutex g_mu;
std::atomic<bool> g_sampling{false};
int g_hz = 100;  // under g_mu

thread_local ThreadState* t_slot = nullptr;

/// Frame-pointer walk from the interrupted context. Every dereference is
/// bounds-checked against the thread's stack, so a frame-pointer-less
/// callee degrades to a short stack, never a fault. Leaf first.
std::uint8_t walk_stack(const void* ucv, const ThreadState& st,
                        std::uint64_t* out) noexcept {
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucv);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(ucv);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)ucv;
#endif
  std::size_t n = 0;
  if (pc != 0) out[n++] = pc;
  while (n < Sample::kMaxFrames) {
    if (fp < st.stack_lo || fp + 2 * sizeof(std::uintptr_t) > st.stack_hi ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret = frame[1];
    const std::uintptr_t next = frame[0];
    if (ret == 0) break;
    out[n++] = ret;
    if (next <= fp) break;  // frames must move toward the stack base
    fp = next;
  }
  return static_cast<std::uint8_t>(n);
}

extern "C" void dvfs_sigprof_handler(int, siginfo_t*, void* ucv) {
  ThreadState* st = t_slot;
  if (st == nullptr || !g_sampling.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  Sample s;
  s.t_s = ns_to_s(now_ns());
  s.tid = static_cast<std::uint32_t>(st->tid);
  s.shard = detail::tls_shard;
  s.stage = detail::tls_stage;
  s.num_frames = walk_stack(ucv, *st, s.frames);
  st->ring->try_push(s);
  errno = saved_errno;
}

void install_handler_once() {
  static const bool installed = [] {
    struct sigaction sa{};
    sa.sa_sigaction = dvfs_sigprof_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    ::sigemptyset(&sa.sa_mask);
    return ::sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  DVFS_REQUIRE(installed, "cannot install SIGPROF handler");
}

/// Creates + arms the slot's per-thread timer. The CPU clock id was
/// captured at registration, so this works from any thread (start()
/// arms threads that registered before the profiler existed). Best
/// effort: a kernel without per-thread timers just yields no samples.
bool arm_timer(ThreadState& st, int hz) {
  if (st.has_timer) return true;
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = st.tid;
  if (::timer_create(st.cpu_clock, &sev, &st.timer) != 0) return false;
  const long period_ns = 1000000000L / std::max(1, hz);
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (::timer_settime(st.timer, 0, &spec, nullptr) != 0) {
    ::timer_delete(st.timer);
    return false;
  }
  st.has_timer = true;
  return true;
}

void disarm_timer(ThreadState& st) {
  if (!st.has_timer) return;
  ::timer_delete(st.timer);
  st.has_timer = false;
}

void reset_slot(ThreadState& st) {
  if (st.ring == nullptr) st.ring = new SpscRing<Sample>(kRingSlots);
  st.ring->reset();
  st.dropped_consumed = 0;
  st.has_timer = false;
}

}  // namespace

// ---------------------------------------------------- registration

ThreadGuard profile_current_thread() {
  if (t_slot != nullptr) return ThreadGuard{};  // already registered
  std::lock_guard<std::mutex> lock(g_mu);
  ThreadState* claimed = nullptr;
  // Prefer never-used slots; fall back to released ones (whose leftover
  // samples the collector has had every chance to drain).
  for (const int takeable : {ThreadState::kFree, ThreadState::kReleased}) {
    for (auto& st : g_pool) {
      if (st.state.load(std::memory_order_relaxed) == takeable) {
        claimed = &st;
        break;
      }
    }
    if (claimed != nullptr) break;
  }
  if (claimed == nullptr) return ThreadGuard{};  // pool exhausted
  reset_slot(*claimed);
  claimed->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  if (::pthread_getcpuclockid(::pthread_self(), &claimed->cpu_clock) != 0) {
    return ThreadGuard{};
  }
  pthread_attr_t attr;
  if (::pthread_getattr_np(::pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    if (::pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      claimed->stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
      claimed->stack_hi = claimed->stack_lo + stack_size;
    }
    ::pthread_attr_destroy(&attr);
  }
  claimed->state.store(ThreadState::kActive, std::memory_order_relaxed);
  t_slot = claimed;  // publish TLS before the first timer tick can land
  if (g_sampling.load(std::memory_order_relaxed)) {
    arm_timer(*claimed, g_hz);
  }
  return ThreadGuard{claimed};
}

ThreadGuard& ThreadGuard::operator=(ThreadGuard&& other) noexcept {
  if (this != &other) {
    release();
    slot_ = other.slot_;
    other.slot_ = nullptr;
  }
  return *this;
}

void ThreadGuard::release() noexcept {
  if (slot_ == nullptr) return;
  auto* st = static_cast<ThreadState*>(slot_);
  // TLS first: any SIGPROF after this store (same thread) sees null and
  // bails, so the slot can be handed back safely.
  t_slot = nullptr;
  std::lock_guard<std::mutex> lock(g_mu);
  disarm_timer(*st);
  st->state.store(ThreadState::kReleased, std::memory_order_relaxed);
  slot_ = nullptr;
}

bool inject_sample(const Sample& s) {
  ThreadState* st = t_slot;
  DVFS_REQUIRE(st != nullptr,
               "inject_sample needs a thread registered via "
               "profile_current_thread()");
  return st->ring->try_push(s);
}

// ------------------------------------------------------- CpuProfiler

struct CpuProfiler::Impl {
  explicit Impl(const Options& o)
      : registry(o.registry != nullptr ? o.registry : &Registry::global()),
        samples_counter(registry->counter("obs.prof.samples")),
        dropped_counter(registry->counter("obs.prof.dropped")) {}

  Registry* registry;
  Counter& samples_counter;
  Counter& dropped_counter;

  std::atomic<bool> running{false};
  std::thread collector;

  /// Serializes collection passes: the collector thread, collect_now(),
  /// and the final pass in stop() are each "the consumer".
  std::mutex collect_mu;

  mutable std::mutex window_mu;
  std::deque<StackSample> window;
  std::uint64_t collected = 0;
  std::uint64_t dropped = 0;
  std::uint64_t evicted = 0;
};

CpuProfiler::CpuProfiler() : CpuProfiler(Options{}) {}

CpuProfiler::CpuProfiler(Options options)
    : impl_(std::make_unique<Impl>(options)), options_(options) {
  DVFS_REQUIRE(options_.hz >= 1 && options_.hz <= 10000,
               "profiler rate must be in [1, 10000] Hz");
  DVFS_REQUIRE(options_.window_capacity >= 1,
               "profiler window needs at least one slot");
}

CpuProfiler::~CpuProfiler() { stop(); }

bool CpuProfiler::running() const noexcept {
  return impl_->running.load(std::memory_order_relaxed);
}

namespace {
/// The one running profiler's Impl (under g_mu); the handler never needs
/// it — only the start()/stop() exclusivity check does, so an opaque
/// identity is all that is required.
const void* g_active = nullptr;
}  // namespace

void CpuProfiler::start() {
  DVFS_REQUIRE(!impl_->running.load(std::memory_order_relaxed),
               "profiler already running");
  {
    std::lock_guard<std::mutex> lock(g_mu);
    DVFS_REQUIRE(g_active == nullptr,
                 "another CPU profiler is already running");
    install_handler_once();
    g_active = impl_.get();
    g_hz = options_.hz;
    g_sampling.store(true, std::memory_order_release);
    for (auto& st : g_pool) {
      if (st.state.load(std::memory_order_relaxed) == ThreadState::kActive) {
        arm_timer(st, options_.hz);
      }
    }
  }
  {
    // A fresh run gets a fresh window and fresh exact counters.
    std::lock_guard<std::mutex> lock(impl_->window_mu);
    impl_->window.clear();
    impl_->collected = 0;
    impl_->dropped = 0;
    impl_->evicted = 0;
  }
  impl_->running.store(true, std::memory_order_relaxed);
  impl_->collector = std::thread([this] {
    while (impl_->running.load(std::memory_order_relaxed)) {
      collect_now();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

void CpuProfiler::stop() {
  if (!impl_->running.exchange(false, std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_sampling.store(false, std::memory_order_release);
    for (auto& st : g_pool) {
      if (st.state.load(std::memory_order_relaxed) == ThreadState::kActive) {
        disarm_timer(st);
      }
    }
    g_active = nullptr;
  }
  if (impl_->collector.joinable()) impl_->collector.join();
  collect_now();  // samples that landed before the timers died
}

void CpuProfiler::collect_now() {
  std::lock_guard<std::mutex> collect_lock(impl_->collect_mu);
  std::vector<Sample> raw;
  std::uint64_t drop_delta = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (auto& st : g_pool) {
      const int state = st.state.load(std::memory_order_relaxed);
      if (state == ThreadState::kFree) continue;
      st.ring->drain(raw);
      const std::uint64_t d = st.ring->dropped();
      drop_delta += d - st.dropped_consumed;
      st.dropped_consumed = d;
      if (state == ThreadState::kReleased) {
        // Fully drained; the slot can serve the next thread.
        st.state.store(ThreadState::kFree, std::memory_order_relaxed);
      }
    }
  }
  if (raw.empty() && drop_delta == 0) return;

  std::vector<dfr::Event> events;
  std::lock_guard<std::mutex> lock(impl_->window_mu);
  for (const Sample& s : raw) {
    StackSample decoded;
    decoded.t_s = s.t_s;
    decoded.tid = s.tid;
    decoded.shard = s.shard;
    decoded.stage = s.stage < kNumStages ? static_cast<Stage>(s.stage)
                                         : Stage::kNone;
    const std::size_t n =
        std::min<std::size_t>(s.num_frames, Sample::kMaxFrames);
    decoded.frames.assign(s.frames, s.frames + n);
    if (options_.channel != nullptr) {
      events.clear();
      append_sample_events(decoded, events);
      for (const dfr::Event& e : events) options_.channel->record(e);
    }
    impl_->window.push_back(std::move(decoded));
    ++impl_->collected;
  }
  impl_->samples_counter.add(raw.size());
  impl_->dropped += drop_delta;
  impl_->dropped_counter.add(drop_delta);
  while (impl_->window.size() > options_.window_capacity) {
    impl_->window.pop_front();
    ++impl_->evicted;
  }
}

std::vector<StackSample> CpuProfiler::samples_since(double since_s) const {
  std::lock_guard<std::mutex> lock(impl_->window_mu);
  std::vector<StackSample> out;
  for (const StackSample& s : impl_->window) {
    if (s.t_s >= since_s) out.push_back(s);
  }
  return out;
}

std::uint64_t CpuProfiler::collected() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->window_mu);
  return impl_->collected;
}
std::uint64_t CpuProfiler::dropped() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->window_mu);
  return impl_->dropped;
}
std::uint64_t CpuProfiler::evicted() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->window_mu);
  return impl_->evicted;
}

// ---------------------------------------------------------- encoding

void append_sample_events(const StackSample& s,
                          std::vector<dfr::Event>& events) {
  const std::uint16_t core =
      s.shard == kNoShard ? std::uint16_t{0xffff} : s.shard;
  const auto frame_event = [&](std::size_t idx, std::uint64_t addr) {
    dfr::Event e;
    e.type = static_cast<std::uint8_t>(dfr::EventType::kProfSample);
    e.core = core;
    e.rate_idx = static_cast<std::uint16_t>(idx);
    e.aux = static_cast<std::uint16_t>(s.stage);
    e.time_s = s.t_s;
    e.task = s.tid;
    e.u0 = addr;
    return e;
  };
  if (s.frames.empty()) {
    // A sample with no walkable frames still counts as a sample: one
    // marker event with a null address.
    events.push_back(frame_event(0, 0));
    return;
  }
  for (std::size_t i = 0; i < s.frames.size(); ++i) {
    events.push_back(frame_event(i, s.frames[i]));
  }
}

std::vector<StackSample> samples_from_events(
    const std::vector<dfr::Event>& events) {
  std::vector<StackSample> out;
  std::uint16_t expect_idx = 0;
  bool open = false;
  for (const dfr::Event& e : events) {
    if (e.type != static_cast<std::uint8_t>(dfr::EventType::kProfSample)) {
      continue;
    }
    if (e.rate_idx == 0) {
      StackSample s;
      s.t_s = e.time_s;
      s.tid = static_cast<std::uint32_t>(e.task);
      s.shard = e.core == 0xffff ? kNoShard : e.core;
      s.stage = e.aux < kNumStages ? static_cast<Stage>(e.aux) : Stage::kNone;
      if (e.u0 != 0) s.frames.push_back(e.u0);
      out.push_back(std::move(s));
      expect_idx = 1;
      open = true;
    } else if (open && e.rate_idx == expect_idx && !out.empty()) {
      out.back().frames.push_back(e.u0);
      ++expect_idx;
    } else {
      // A recorder-ring drop tore this run; skip the orphan frames.
      open = false;
    }
  }
  return out;
}

std::vector<std::uint64_t> unique_addresses(
    const std::vector<StackSample>& samples) {
  std::vector<std::uint64_t> addrs;
  for (const StackSample& s : samples) {
    addrs.insert(addrs.end(), s.frames.begin(), s.frames.end());
  }
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  return addrs;
}

// ------------------------------------------------------ symbolization

namespace {

std::string demangled(const char* name) {
  int status = 0;
  char* d = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status == 0 && d != nullptr) {
    std::string out(d);
    std::free(d);  // NOLINT: __cxa_demangle contract
    return out;
  }
  std::free(d);  // NOLINT
  return name;
}

std::string basename_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string hex_addr(std::uint64_t addr) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(addr));
  return buf;
}

}  // namespace

DladdrSymbolizer::DladdrSymbolizer() {
  for (const MappingInfo& m : read_proc_self_maps()) {
    regions_.push_back({m.start, m.limit, m.file});
  }
}

std::string DladdrSymbolizer::symbolize(std::uint64_t addr) const {
  Dl_info info{};
  if (::dladdr(reinterpret_cast<void*>(addr), &info) != 0 &&
      info.dli_sname != nullptr) {
    return demangled(info.dli_sname);
  }
  // No dynamic symbol covers the address: name it module+offset from the
  // maps snapshot so pprof/flamegraphs still group by binary.
  const char* file = nullptr;
  std::uint64_t base = 0;
  if (info.dli_fname != nullptr) {
    file = info.dli_fname;
    base = reinterpret_cast<std::uint64_t>(info.dli_fbase);
  } else {
    for (const Region& r : regions_) {
      if (addr >= r.start && addr < r.limit) {
        file = r.file.c_str();
        base = r.start;
        break;
      }
    }
  }
  if (file == nullptr || *file == '\0') return "";
  return basename_of(file) + "+" + hex_addr(addr - base);
}

TableSymbolizer::TableSymbolizer(
    std::vector<std::pair<std::uint64_t, std::string>> table)
    : table_(std::move(table)) {
  std::sort(table_.begin(), table_.end());
}

std::string TableSymbolizer::symbolize(std::uint64_t addr) const {
  const auto it = std::lower_bound(
      table_.begin(), table_.end(), addr,
      [](const auto& entry, std::uint64_t a) { return entry.first < a; });
  if (it != table_.end() && it->first == addr) return it->second;
  return "";
}

std::vector<std::pair<std::uint64_t, std::string>> symbol_table(
    const std::vector<StackSample>& samples, const Symbolizer& sym) {
  std::vector<std::pair<std::uint64_t, std::string>> table;
  for (const std::uint64_t addr : unique_addresses(samples)) {
    table.emplace_back(addr, sym.symbolize(addr));
  }
  return table;
}

std::vector<MappingInfo> read_proc_self_maps() {
  std::vector<MappingInfo> out;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    // ADDR-ADDR perms OFFSET dev inode [path]
    std::istringstream is(line);
    std::string range, perms, offset_hex, dev, inode, path;
    is >> range >> perms >> offset_hex >> dev >> inode;
    std::getline(is, path);
    if (perms.size() < 3 || perms[2] != 'x') continue;
    const auto dash = range.find('-');
    if (dash == std::string::npos) continue;
    MappingInfo m;
    m.start = std::strtoull(range.substr(0, dash).c_str(), nullptr, 16);
    m.limit = std::strtoull(range.substr(dash + 1).c_str(), nullptr, 16);
    m.offset = std::strtoull(offset_hex.c_str(), nullptr, 16);
    const auto first = path.find_first_not_of(' ');
    if (first != std::string::npos) m.file = path.substr(first);
    out.push_back(std::move(m));
  }
  return out;
}

// ----------------------------------------------------- pprof encoding

namespace {

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_tag(std::string& out, int field, int wire) {
  put_varint(out, static_cast<std::uint64_t>((field << 3) | wire));
}

/// Varint-wire field; proto3 convention: zero values are omitted.
void put_uint(std::string& out, int field, std::uint64_t v) {
  if (v == 0) return;
  put_tag(out, field, 0);
  put_varint(out, v);
}

void put_bytes(std::string& out, int field, std::string_view payload) {
  put_tag(out, field, 2);
  put_varint(out, payload.size());
  out.append(payload);
}

void put_packed(std::string& out, int field,
                const std::vector<std::uint64_t>& vs) {
  if (vs.empty()) return;
  std::string tmp;
  for (const std::uint64_t v : vs) put_varint(tmp, v);
  put_bytes(out, field, tmp);
}

}  // namespace

std::string gzip_stored(std::string_view raw) {
  // CRC32 (IEEE, reflected) — the only "real" part of a stored-block
  // gzip stream; everything else is framing.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : raw) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xff] ^ (crc >> 8);
  }
  crc ^= 0xffffffffu;

  std::string out;
  out.reserve(raw.size() + raw.size() / 65535 * 5 + 32);
  const char header[10] = {'\x1f', '\x8b', 8, 0, 0, 0, 0, 0, 0, 3};
  out.append(header, sizeof(header));
  std::size_t pos = 0;
  do {
    const std::size_t n = std::min<std::size_t>(raw.size() - pos, 65535);
    const bool last = pos + n == raw.size();
    out.push_back(last ? '\x01' : '\x00');  // BFINAL | BTYPE=00 (stored)
    const auto len = static_cast<std::uint16_t>(n);
    const auto nlen = static_cast<std::uint16_t>(~len);
    out.append(reinterpret_cast<const char*>(&len), 2);
    out.append(reinterpret_cast<const char*>(&nlen), 2);
    out.append(raw.data() + pos, n);
    pos += n;
  } while (pos < raw.size());
  const auto isize = static_cast<std::uint32_t>(raw.size());
  out.append(reinterpret_cast<const char*>(&crc), 4);
  out.append(reinterpret_cast<const char*>(&isize), 4);
  return out;
}

std::string encode_pprof(const std::vector<StackSample>& samples,
                         const Symbolizer& sym, const PprofOptions& options) {
  // String table with interning; index 0 is mandatorily "".
  std::vector<std::string> strings{""};
  std::map<std::string, std::uint64_t> string_idx{{"", 0}};
  const auto intern = [&](const std::string& s) -> std::uint64_t {
    const auto [it, inserted] = string_idx.emplace(s, strings.size());
    if (inserted) strings.push_back(s);
    return it->second;
  };

  // Mappings (sorted by start; ids are 1-based indices).
  std::vector<MappingInfo> mappings = options.mappings;
  std::sort(mappings.begin(), mappings.end(),
            [](const MappingInfo& a, const MappingInfo& b) {
              return a.start < b.start;
            });
  const auto mapping_id_of = [&](std::uint64_t addr) -> std::uint64_t {
    for (std::size_t i = 0; i < mappings.size(); ++i) {
      if (addr >= mappings[i].start && addr < mappings[i].limit) {
        return i + 1;
      }
    }
    return 0;
  };

  // Location (by address) and Function (by name) dedup.
  std::map<std::uint64_t, std::uint64_t> loc_ids;       // addr → id
  std::map<std::uint64_t, std::uint64_t> loc_func;      // loc id → func id
  std::map<std::string, std::uint64_t> func_ids;        // name → id
  const auto location_of = [&](std::uint64_t addr) -> std::uint64_t {
    const auto [it, inserted] = loc_ids.emplace(addr, loc_ids.size() + 1);
    if (inserted) {
      const std::string name = sym.symbolize(addr);
      if (!name.empty()) {
        const auto [fit, finserted] =
            func_ids.emplace(name, func_ids.size() + 1);
        (void)finserted;
        loc_func[it->second] = fit->second;
      }
    }
    return it->second;
  };

  // Aggregate identical (stack, stage, shard, thread) samples. The key
  // embeds the label values after the location ids, so the map's order
  // is deterministic — golden tests rely on that.
  std::map<std::vector<std::uint64_t>, std::uint64_t> aggregated;
  double min_t = 0.0;
  double max_t = 0.0;
  bool any = false;
  for (const StackSample& s : samples) {
    std::vector<std::uint64_t> key;
    key.reserve(s.frames.size() + 3);
    for (const std::uint64_t addr : s.frames) {
      key.push_back(location_of(addr));
    }
    key.push_back(static_cast<std::uint64_t>(s.stage) | (std::uint64_t{1} << 32));
    key.push_back(static_cast<std::uint64_t>(s.shard) | (std::uint64_t{2} << 32));
    key.push_back(static_cast<std::uint64_t>(s.tid) | (std::uint64_t{3} << 32));
    ++aggregated[std::move(key)];
    if (!any || s.t_s < min_t) min_t = s.t_s;
    if (!any || s.t_s > max_t) max_t = s.t_s;
    any = true;
  }

  const std::int64_t period =
      1000000000LL / std::max(1, options.hz);  // ns of CPU per sample

  std::string body;
  // sample_type: samples/count, cpu/nanoseconds.
  {
    std::string vt;
    put_uint(vt, 1, intern("samples"));
    put_uint(vt, 2, intern("count"));
    put_bytes(body, 1, vt);
    vt.clear();
    put_uint(vt, 1, intern("cpu"));
    put_uint(vt, 2, intern("nanoseconds"));
    put_bytes(body, 1, vt);
  }
  // samples.
  const std::uint64_t stage_key = intern("stage");
  const std::uint64_t shard_key = intern("shard");
  const std::uint64_t thread_key = intern("thread");
  for (const auto& [key, count] : aggregated) {
    const std::size_t n_locs = key.size() - 3;
    const auto stage =
        static_cast<Stage>(key[n_locs] & 0xff);
    const auto shard = static_cast<std::uint16_t>(key[n_locs + 1] & 0xffff);
    const auto tid = static_cast<std::uint32_t>(key[n_locs + 2] & 0xffffffff);
    std::string smsg;
    put_packed(smsg, 1,
               std::vector<std::uint64_t>(key.begin(),
                                          key.begin() +
                                              static_cast<std::ptrdiff_t>(
                                                  n_locs)));
    put_packed(smsg, 2,
               {count, count * static_cast<std::uint64_t>(period)});
    {
      std::string label;
      put_uint(label, 1, stage_key);
      put_uint(label, 2, intern(to_string(stage)));
      put_bytes(smsg, 3, label);
    }
    if (shard != kNoShard) {
      std::string label;
      put_uint(label, 1, shard_key);
      put_uint(label, 3, shard);
      put_bytes(smsg, 3, label);
    }
    {
      std::string label;
      put_uint(label, 1, thread_key);
      put_uint(label, 3, tid);
      put_bytes(smsg, 3, label);
    }
    put_bytes(body, 2, smsg);
  }
  // mappings.
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    std::string m;
    put_uint(m, 1, i + 1);
    put_uint(m, 2, mappings[i].start);
    put_uint(m, 3, mappings[i].limit);
    put_uint(m, 4, mappings[i].offset);
    put_uint(m, 5, intern(mappings[i].file));
    put_bytes(body, 3, m);
  }
  // locations.
  for (const auto& [addr, id] : loc_ids) {
    std::string loc;
    put_uint(loc, 1, id);
    put_uint(loc, 2, mapping_id_of(addr));
    put_uint(loc, 3, addr);
    if (const auto it = loc_func.find(id); it != loc_func.end()) {
      std::string line;
      put_uint(line, 1, it->second);
      put_bytes(loc, 4, line);
    }
    put_bytes(body, 4, loc);
  }
  // functions.
  for (const auto& [name, id] : func_ids) {
    std::string fn;
    put_uint(fn, 1, id);
    put_uint(fn, 2, intern(name));
    put_uint(fn, 3, intern(name));  // system_name = name (already readable)
    put_bytes(body, 5, fn);
  }
  // string table — every entry, in index order, empties included.
  for (const std::string& s : strings) put_bytes(body, 6, s);
  put_uint(body, 9, static_cast<std::uint64_t>(options.time_nanos));
  if (any && max_t > min_t) {
    put_uint(body, 10,
             static_cast<std::uint64_t>((max_t - min_t) * 1e9));
  }
  {
    std::string vt;
    put_uint(vt, 1, intern("cpu"));

    put_uint(vt, 2, intern("nanoseconds"));
    put_bytes(body, 11, vt);
  }
  put_uint(body, 12, static_cast<std::uint64_t>(period));

  return options.gzip ? gzip_stored(body) : body;
}

std::string folded_stacks(const std::vector<StackSample>& samples,
                          const Symbolizer& sym) {
  std::map<std::uint64_t, std::string> names;
  const auto name_of = [&](std::uint64_t addr) -> const std::string& {
    auto [it, inserted] = names.emplace(addr, "");
    if (inserted) {
      it->second = sym.symbolize(addr);
      if (it->second.empty()) it->second = hex_addr(addr);
      // Folded-stack separators are structural; scrub them from names.
      for (char& c : it->second) {
        if (c == ';' || c == ' ' || c == '\n') c = '_';
      }
    }
    return it->second;
  };
  std::map<std::string, std::uint64_t> folded;
  for (const StackSample& s : samples) {
    std::string line;
    if (s.frames.empty()) {
      line = "[no stack]";
    } else {
      // Root first: frames are stored leaf-first.
      for (std::size_t i = s.frames.size(); i-- > 0;) {
        if (!line.empty()) line += ';';
        line += name_of(s.frames[i]);
      }
    }
    ++folded[line];
  }
  std::string out;
  for (const auto& [line, count] : folded) {
    out += line + " " + std::to_string(count) + "\n";
  }
  return out;
}

Report build_report(const std::vector<StackSample>& samples,
                    const Symbolizer& sym) {
  Report report;
  report.samples = samples.size();

  std::map<std::uint64_t, std::string> names;
  const auto name_of = [&](std::uint64_t addr) -> const std::string& {
    auto [it, inserted] = names.emplace(addr, "");
    if (inserted) {
      it->second = sym.symbolize(addr);
      if (it->second.empty()) it->second = hex_addr(addr);
    }
    return it->second;
  };

  struct Counts {
    std::uint64_t self = 0;
    std::uint64_t cum = 0;
  };
  std::map<std::string, Counts> by_function;
  std::map<Stage, std::uint64_t> by_stage;
  std::map<std::uint16_t, std::uint64_t> by_shard;
  std::vector<const std::string*> seen;  // per-sample cum dedup
  for (const StackSample& s : samples) {
    ++by_stage[s.stage];
    ++by_shard[s.shard];
    if (s.frames.empty()) {
      Counts& c = by_function["[no stack]"];
      ++c.self;
      ++c.cum;
      continue;
    }
    seen.clear();
    for (std::size_t i = 0; i < s.frames.size(); ++i) {
      const std::string& name = name_of(s.frames[i]);
      Counts& c = by_function[name];
      if (i == 0) ++c.self;
      // Recursion must not double-count a frame's cumulative share.
      bool counted = false;
      for (const std::string* p : seen) {
        if (*p == name) {
          counted = true;
          break;
        }
      }
      if (!counted) {
        ++c.cum;
        seen.push_back(&name);
      }
    }
  }
  for (auto& [name, c] : by_function) {
    report.by_function.push_back({name, c.self, c.cum});
  }
  std::sort(report.by_function.begin(), report.by_function.end(),
            [](const Report::Entry& a, const Report::Entry& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.cum != b.cum) return a.cum > b.cum;
              return a.name < b.name;
            });
  report.by_stage.assign(by_stage.begin(), by_stage.end());
  std::sort(report.by_stage.begin(), report.by_stage.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  report.by_shard.assign(by_shard.begin(), by_shard.end());
  std::sort(report.by_shard.begin(), report.by_shard.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return report;
}

// -------------------------------------------------------------- HTTP

void register_pprof_route(MetricsHttpServer& server, CpuProfiler& prof) {
  server.add_route(
      "GET", "/debug/pprof/profile",
      [&prof](const MetricsHttpServer::Request& req)
          -> MetricsHttpServer::Response {
        if (!prof.running()) {
          return {503, "text/plain; charset=utf-8",
                  "profiler not running\n"};
        }
        double seconds = 1.0;
        if (const std::string* s = req.param("seconds")) {
          const auto [ptr, ec] = std::from_chars(
              s->data(), s->data() + s->size(), seconds);
          if (ec != std::errc{} || ptr != s->data() + s->size() ||
              !(seconds >= 0.0)) {
            return {400, "text/plain; charset=utf-8",
                    "bad seconds parameter\n"};
          }
          seconds = std::min(seconds, 30.0);
        }
        // The last `seconds` of the profiler's window, answered at once:
        // the server has one thread, so a handler that waited would hold
        // every other route behind it.
        prof.collect_now();
        const std::vector<StackSample> samples =
            prof.samples_since(ns_to_s(now_ns()) - seconds);
        PprofOptions options;
        options.hz = prof.hz();
        options.time_nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::system_clock::now().time_since_epoch() -
                std::chrono::duration<double>(seconds))
                .count();
        options.mappings = read_proc_self_maps();
        const DladdrSymbolizer sym;
        return {200, "application/octet-stream",
                encode_pprof(samples, sym, options)};
      });
}

}  // namespace dvfs::obs::prof
