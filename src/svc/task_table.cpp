#include "dvfs/svc/task_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "dvfs/obs/clock.h"
#include "dvfs/svc/service.h"

namespace dvfs::svc {

namespace {

using obs::reqtrace::Stage;
using obs::reqtrace::Step;

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kInitialIndexSlots = 16;
constexpr std::size_t kMaxChunkRecords = 1024;

/// The instants of a task's lifecycle, in the order a record takes them.
enum Instant : std::uint8_t {
  kRecv,
  kEnqueue,
  kDequeue,
  kPlace,
  kExecBegin,
  kExecEnd,
  kInstants,
};

/// `Record::held` of a task that lives in the spill map.
constexpr std::uint8_t kSpilled = 0xFF;

/// `to - from` when `to` is at most 2^32 - 1 ns after `from` (a `to`
/// before `from` wraps far past that).
std::optional<std::uint32_t> gap(std::uint64_t from, std::uint64_t to) {
  if (to - from > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(to - from);
}

TaskStatus status_of(const Placed& p) {
  TaskStatus st;
  st.shard = p.at.shard;
  st.core = p.at.core;
  st.rate_idx = p.at.rate_idx;
  st.cycles = p.cycles;
  st.marginal = p.marginal;
  st.trace = p.trace;
  st.placed_s = obs::ns_to_s(p.at.place_ns);
  return st;
}

}  // namespace

/// One task, as facts. A compact record holds its first `held` instants
/// (kPlace + 1 once placed, one more per execution step). A spilled
/// record keeps only `id`, `trace` and `held`.
struct TaskTable::Record {
  core::TaskId id;
  std::uint64_t trace;
  Cycles cycles;
  Money marginal;
  std::uint64_t recv_ns;                ///< the base instant
  std::uint32_t gap_ns[kInstants - 1];  ///< instant i + 1 minus instant i
  std::uint32_t depth;
  std::uint16_t core;
  std::uint16_t rate_idx;
  /// The placing shard, which admission balancing may choose apart from
  /// the stripe; it sits in what would otherwise be padding.
  std::uint16_t shard;
  std::uint8_t held;  ///< instants recorded, or kSpilled

  [[nodiscard]] std::uint64_t at(std::size_t instant) const {
    std::uint64_t ns = recv_ns;
    for (std::size_t i = 0; i < instant; ++i) ns += gap_ns[i];
    return ns;
  }
};

/// A task whose facts do not fit a record: its status and every step.
struct TaskTable::Spilled {
  TaskStatus status;
  std::vector<Step> steps;  ///< in the order recorded
};

struct TaskTable::Stripe {
  explicit Stripe(std::size_t capacity)
      : capacity(capacity),
        chunk_shift(static_cast<unsigned>(std::countr_zero(
            std::min(kMaxChunkRecords, std::bit_ceil(capacity))))),
        index(kInitialIndexSlots) {}

  struct Bucket {
    std::uint32_t hash = 0;
    std::uint32_t slot = kEmpty;
  };

  /// An estimate of one spill node's bytes, from libstdc++'s node
  /// layout: next pointer, then the value (std::hash<std::uint64_t>
  /// caches no hash code). Allocator overhead is not counted, and other
  /// standard libraries lay nodes out differently.
  static constexpr std::size_t kSpillNodeBytes =
      sizeof(void*) + sizeof(std::pair<const core::TaskId, Spilled>);

  [[nodiscard]] Record& record(std::uint32_t slot) const {
    return chunks[slot >> chunk_shift][slot & ((1u << chunk_shift) - 1)];
  }

  /// Index position holding `id`, or kEmpty.
  [[nodiscard]] std::uint32_t find(core::TaskId id,
                                   std::uint32_t hash) const {
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Bucket& bk = index[i];
      if (bk.slot == kEmpty) return kEmpty;
      if (bk.hash == hash && record(bk.slot).id == id) {
        return static_cast<std::uint32_t>(i);
      }
    }
  }

  void insert(std::uint32_t hash, std::uint32_t slot) {
    const std::size_t mask = index.size() - 1;
    std::size_t i = hash & mask;
    while (index[i].slot != kEmpty) i = (i + 1) & mask;
    index[i] = Bucket{hash, slot};
  }

  /// Backward-shift deletion: pull each later entry of the probe run
  /// into the hole unless its home lies cyclically after the hole.
  void erase(std::size_t hole) {
    const std::size_t mask = index.size() - 1;
    for (std::size_t j = (hole + 1) & mask; index[j].slot != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t home = index[j].hash & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index[hole] = index[j];
        hole = j;
      }
    }
    index[hole] = Bucket{};
  }

  void grow() {
    const std::vector<Bucket> old =
        std::exchange(index, std::vector<Bucket>(index.size() * 2));
    for (const Bucket& bk : old) {
      if (bk.slot != kEmpty) insert(bk.hash, bk.slot);
    }
  }

  [[nodiscard]] TaskStatus status(const Record& r) const {
    if (r.held == kSpilled) return spill.at(r.id).status;
    TaskStatus st;
    st.state = r.held > kExecEnd     ? TaskStatus::State::kCompleted
               : r.held > kExecBegin ? TaskStatus::State::kRunning
                                     : TaskStatus::State::kQueued;
    st.shard = r.shard;
    st.core = r.core;
    st.rate_idx = r.rate_idx;
    st.cycles = r.cycles;
    st.marginal = r.marginal;
    st.trace = r.trace;
    st.placed_s = obs::ns_to_s(r.at(kPlace));
    return st;
  }

  /// Appends the task's steps to `out`, in the order recorded.
  void steps(const Record& r, std::vector<Step>& out) const {
    if (r.held == kSpilled) {
      const std::vector<Step>& all = spill.at(r.id).steps;
      out.insert(out.end(), all.begin(), all.end());
      return;
    }
    const auto placed = obs::reqtrace::placement_steps(
        {.recv_ns = r.recv_ns,
         .enqueue_ns = r.at(kEnqueue),
         .dequeue_ns = r.at(kDequeue),
         .place_ns = r.at(kPlace),
         .shard = r.shard,
         .core = r.core,
         .rate_idx = r.rate_idx,
         .depth = r.depth});
    out.insert(out.end(), placed.begin(), placed.end());
    if (r.held > kExecBegin) {
      out.push_back(obs::reqtrace::exec_step(Stage::kExecBegin, r.core,
                                             r.at(kExecBegin)));
    }
    if (r.held > kExecEnd) {
      out.push_back(
          obs::reqtrace::exec_step(Stage::kExecEnd, r.core, r.at(kExecEnd)));
    }
  }

  /// Appends to a spill entry's steps, keeping `spill_step_bytes`.
  void append(Spilled& sp, std::span<const Step> more) {
    spill_step_bytes -= sp.steps.capacity() * sizeof(Step);
    sp.steps.insert(sp.steps.end(), more.begin(), more.end());
    spill_step_bytes += sp.steps.capacity() * sizeof(Step);
  }

  /// The task's spill entry, moving a compact record's facts into it
  /// first.
  Spilled& spill_out(Record& r) {
    if (r.held == kSpilled) return spill.at(r.id);
    Spilled sp{status(r), {}};
    steps(r, sp.steps);
    spill_step_bytes += sp.steps.capacity() * sizeof(Step);
    r.held = kSpilled;
    return spill.try_emplace(r.id, std::move(sp)).first->second;
  }

  /// Drops the record's spill entry, if it has one.
  void forget(const Record& r) {
    if (r.held != kSpilled) return;
    const auto it = spill.find(r.id);
    spill_step_bytes -= it->second.steps.capacity() * sizeof(Step);
    spill.erase(it);
  }

  /// Records allocated, index slots and spill entries, in bytes.
  [[nodiscard]] std::size_t retained() const {
    return (chunks.size() << chunk_shift) * sizeof(Record) +
           index.size() * sizeof(Bucket) +
           spill.size() * kSpillNodeBytes + spill_step_bytes +
           spill.bucket_count() * sizeof(void*);
  }

  mutable std::mutex mu;
  const std::size_t capacity;
  const unsigned chunk_shift;
  /// Ring storage, one chunk allocated each time the ring first reaches
  /// it (default-initialized, not zeroed).
  std::vector<std::unique_ptr<Record[]>> chunks;
  std::uint32_t head = 0;  ///< ring slot the next new task takes
  std::size_t live = 0;    ///< records held (== index entries)
  std::vector<Bucket> index;
  std::unordered_map<core::TaskId, Spilled> spill;
  std::size_t spill_step_bytes = 0;  ///< step vectors' capacity, in bytes
  std::size_t reported = 0;  ///< retained() as last added to the gauge
};

TaskTable::TaskTable(std::size_t capacity, std::size_t stripes,
                     obs::Counter& evicted, obs::Gauge& bytes)
    : per_stripe_capacity_(std::max<std::size_t>(
          1, capacity / std::max<std::size_t>(1, stripes))),
      evicted_(evicted),
      bytes_(bytes) {
  static_assert(sizeof(Record) == kRecordBytes);
  DVFS_REQUIRE(per_stripe_capacity_ < kEmpty,
               "task table capacity per stripe must fit 32-bit slots");
  const std::size_t n = std::max<std::size_t>(1, stripes);
  stripes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(per_stripe_capacity_));
    account(*stripes_.back());
  }
}

TaskTable::~TaskTable() {
  for (const auto& s : stripes_) {
    bytes_.add(-static_cast<double>(s->reported));
  }
}

std::uint32_t TaskTable::index_hash(core::TaskId id) {
  // fmix64 is a different mixer from the SplitMix64 route, so the probe
  // position does not correlate with the stripe.
  return static_cast<std::uint32_t>(fmix64(id) >> 32);
}

TaskTable::Stripe& TaskTable::stripe_for(core::TaskId id) const {
  return *stripes_[SchedulingService::route(id, stripes_.size())];
}

void TaskTable::account(Stripe& s) {
  const std::size_t now = s.retained();
  if (now == s.reported) return;
  bytes_.add(static_cast<double>(now) - static_cast<double>(s.reported));
  s.reported = now;
}

void TaskTable::place(core::TaskId id, const Placed& p) {
  Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t pos = s.find(id, hash);
  if (pos != kEmpty) {
    // Placed again (a reused id): one record holds one placement, so the
    // task moves to the spill map.
    Record& r = s.record(s.index[pos].slot);
    Spilled& sp = s.spill_out(r);
    r.trace = p.trace;
    sp.status = status_of(p);
    s.append(sp, obs::reqtrace::placement_steps(p.at));
    account(s);
    return;
  }

  const std::uint32_t slot = s.head;
  if (s.live == s.capacity) {
    // The ring is full: the record at the head is the oldest.
    Record& victim = s.record(slot);
    s.erase(s.find(victim.id, index_hash(victim.id)));
    s.forget(victim);
    evicted_.inc();
  } else {
    if ((slot >> s.chunk_shift) == s.chunks.size()) {
      s.chunks.push_back(std::make_unique_for_overwrite<Record[]>(
          std::size_t{1} << s.chunk_shift));
    }
    ++s.live;
    if (s.live * 2 > s.index.size()) s.grow();
  }
  s.head = (slot + 1 == s.capacity) ? 0 : slot + 1;
  s.insert(hash, slot);
  Record& r = s.record(slot);
  r.id = id;
  r.trace = p.trace;
  const auto enqueue = gap(p.at.recv_ns, p.at.enqueue_ns);
  const auto dequeue = gap(p.at.enqueue_ns, p.at.dequeue_ns);
  const auto placed = gap(p.at.dequeue_ns, p.at.place_ns);
  if (enqueue && dequeue && placed) {
    r.cycles = p.cycles;
    r.marginal = p.marginal;
    r.recv_ns = p.at.recv_ns;
    r.gap_ns[kRecv] = *enqueue;
    r.gap_ns[kEnqueue] = *dequeue;
    r.gap_ns[kDequeue] = *placed;
    r.depth = p.at.depth;
    r.core = p.at.core;
    r.rate_idx = p.at.rate_idx;
    r.shard = p.at.shard;
    r.held = kPlace + 1;
  } else {
    r.held = kSpilled;
    Spilled& sp =
        s.spill.try_emplace(id, Spilled{status_of(p), {}})
            .first->second;
    s.append(sp, obs::reqtrace::placement_steps(p.at));
  }
  account(s);
}

std::optional<TaskStatus> TaskTable::advance(core::TaskId id, Stage stage,
                                             std::uint16_t core,
                                             std::uint64_t ns) {
  DVFS_REQUIRE(stage == Stage::kExecBegin || stage == Stage::kExecEnd,
               "advance takes an execution stage");
  Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t pos = s.find(id, hash);
  if (pos == kEmpty) return std::nullopt;
  Record& r = s.record(s.index[pos].slot);
  // A compact record takes exec begin, then exec end, on the core it
  // was placed on; anything else spills.
  const Instant next = stage == Stage::kExecBegin ? kExecBegin : kExecEnd;
  if (r.held == next && core == r.core) {
    if (const auto g = gap(r.at(next - 1), ns)) {
      r.gap_ns[next - 1] = *g;
      ++r.held;
      return s.status(r);
    }
  }
  Spilled& sp = s.spill_out(r);
  sp.status.state = obs::reqtrace::info(stage).state;
  const Step step = obs::reqtrace::exec_step(stage, core, ns);
  s.append(sp, std::span(&step, 1));
  account(s);
  return sp.status;
}

std::optional<TaskStatus> TaskTable::status(core::TaskId id) const {
  const Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t pos = s.find(id, hash);
  if (pos == kEmpty) return std::nullopt;
  return s.status(s.record(s.index[pos].slot));
}

std::optional<obs::reqtrace::Timeline> TaskTable::get(core::TaskId id) const {
  const Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  obs::reqtrace::Timeline tl;
  tl.task = id;
  tl.steps.reserve(kInstants + 1);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const std::uint32_t pos = s.find(id, hash);
    if (pos == kEmpty) return std::nullopt;
    const Record& r = s.record(s.index[pos].slot);
    tl.trace_id = r.trace;
    s.steps(r, tl.steps);
  }
  obs::reqtrace::sort_steps(tl.steps);
  return tl;
}

std::size_t TaskTable::index_slots() const {
  std::size_t n = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->index.size();
  }
  return n;
}

}  // namespace dvfs::svc
