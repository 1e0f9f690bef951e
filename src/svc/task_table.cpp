#include "dvfs/svc/task_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "dvfs/svc/service.h"

namespace dvfs::svc {

namespace {

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kInitialIndexSlots = 16;
constexpr std::size_t kMaxChunkRecords = 1024;

}  // namespace

/// One task. Steps are stored column-wise so the record stays compact
/// (no per-step padding).
struct TaskTable::Record {
  core::TaskId id;
  TaskStatus status;
  std::uint8_t steps;  ///< inline steps held
  bool spilled;        ///< further steps live in Stripe::spill
  obs::reqtrace::Stage stage[kInlineSteps];
  std::uint32_t a[kInlineSteps];
  std::uint32_t b[kInlineSteps];
  double t_s[kInlineSteps];
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

  void append(Record& r, const Step& step) {
    if (r.steps < kInlineSteps) {
      r.stage[r.steps] = step.stage;
      r.a[r.steps] = step.a;
      r.b[r.steps] = step.b;
      r.t_s[r.steps] = step.t_s;
      ++r.steps;
    } else {
      spill[r.id].push_back(step);
      r.spilled = true;
    }
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
  std::unordered_map<core::TaskId, std::vector<Step>> spill;
};

TaskTable::TaskTable(std::size_t capacity, std::size_t stripes,
                     obs::Counter& evicted)
    : per_stripe_capacity_(std::max<std::size_t>(
          1, capacity / std::max<std::size_t>(1, stripes))),
      evicted_(evicted) {
  DVFS_REQUIRE(per_stripe_capacity_ < kEmpty,
               "task table capacity per stripe must fit 32-bit slots");
  const std::size_t n = std::max<std::size_t>(1, stripes);
  stripes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(per_stripe_capacity_));
  }
}

TaskTable::~TaskTable() = default;

std::uint32_t TaskTable::index_hash(core::TaskId id) {
  // fmix64 is a different mixer from the SplitMix64 route, so the probe
  // position does not correlate with the stripe.
  return static_cast<std::uint32_t>(fmix64(id) >> 32);
}

TaskTable::Stripe& TaskTable::stripe_for(core::TaskId id) const {
  return *stripes_[SchedulingService::route(id, stripes_.size())];
}

void TaskTable::place(core::TaskId id, const TaskStatus& st,
                      std::span<const Step> steps) {
  Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t pos = s.find(id, hash);
  Record* r = nullptr;
  if (pos != kEmpty) {
    r = &s.record(s.index[pos].slot);
    const std::uint64_t trace = r->status.trace;
    r->status = st;
    if (st.trace == 0) r->status.trace = trace;
  } else {
    const std::uint32_t slot = s.head;
    if (s.live == s.capacity) {
      // The ring is full: the record at the head is the oldest.
      Record& victim = s.record(slot);
      s.erase(s.find(victim.id, index_hash(victim.id)));
      if (victim.spilled) s.spill.erase(victim.id);
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
    r = &s.record(slot);
    r->id = id;
    r->status = st;
    r->steps = 0;
    r->spilled = false;
  }
  for (const Step& step : steps) s.append(*r, step);
}

std::optional<TaskStatus> TaskTable::advance(core::TaskId id,
                                             const Step& step) {
  Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t pos = s.find(id, hash);
  if (pos == kEmpty) return std::nullopt;
  Record& r = s.record(s.index[pos].slot);
  r.status.state = obs::reqtrace::info(step.stage).state;
  s.append(r, step);
  return r.status;
}

std::uint64_t TaskTable::trace_of(core::TaskId id) const {
  const Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t pos = s.find(id, hash);
  return pos == kEmpty ? 0 : s.record(s.index[pos].slot).status.trace;
}

std::optional<TaskStatus> TaskTable::status(core::TaskId id) const {
  const Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t pos = s.find(id, hash);
  if (pos == kEmpty) return std::nullopt;
  return s.record(s.index[pos].slot).status;
}

std::optional<obs::reqtrace::Timeline> TaskTable::get(core::TaskId id) const {
  const Stripe& s = stripe_for(id);
  const std::uint32_t hash = index_hash(id);
  obs::reqtrace::Timeline tl;
  tl.task = id;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const std::uint32_t pos = s.find(id, hash);
    if (pos == kEmpty) return std::nullopt;
    const Record& r = s.record(s.index[pos].slot);
    tl.trace_id = r.status.trace;
    const std::vector<Step>* spilled = nullptr;
    if (r.spilled) spilled = &s.spill.at(id);
    tl.steps.reserve(r.steps + (spilled != nullptr ? spilled->size() : 0));
    for (std::size_t i = 0; i < r.steps; ++i) {
      tl.steps.push_back(Step{r.stage[i], r.t_s[i], r.a[i], r.b[i]});
    }
    if (spilled != nullptr) {
      tl.steps.insert(tl.steps.end(), spilled->begin(), spilled->end());
    }
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
