#include "dvfs/obs/recorder.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "dvfs/common.h"
#include "dvfs/obs/trace.h"

namespace dvfs::obs {

namespace {

// Recorder-health counters live in the global registry like every other
// metric. They are bumped on the producer side, so a post-run
// `--metrics-out` (and the epilogue snapshot, captured after the run)
// both see the final values.
Counter& recorded_counter() {
  static Counter& c = Registry::global().counter("recorder.events_recorded");
  return c;
}
Counter& dropped_counter() {
  static Counter& c = Registry::global().counter("recorder.events_dropped");
  return c;
}

}  // namespace

bool RecorderChannel::record(const dfr::Event& e) noexcept {
  if (!ring_.try_push(e)) {
    dropped_counter().inc();
    return false;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  recorded_counter().inc();
  return true;
}

void record_decision(RecorderChannel& channel, const Decision& d,
                     std::span<const double> candidates) {
  const auto scope = static_cast<std::uint16_t>(d.scope);
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    channel.record(
        {.type = static_cast<std::uint8_t>(dfr::EventType::kCandidate),
         .flags = j == d.core ? dfr::kFlagChosen : std::uint8_t{0},
         .core = static_cast<std::uint16_t>(j),
         .aux = scope,
         .time_s = d.time_s,
         .task = d.task,
         .f0 = candidates[j]});
  }
  channel.record({.type = static_cast<std::uint8_t>(dfr::EventType::kPlacement),
                  .flags = d.flags,
                  .core = static_cast<std::uint16_t>(d.core),
                  .rate_idx = static_cast<std::uint16_t>(d.rate_idx),
                  .aux = scope,
                  .time_s = d.time_s,
                  .task = d.task,
                  .u0 = d.cycles,
                  .f0 = d.cost,
                  .f1 = d.f1});
}

void record_arrival(RecorderChannel& channel, const Arrival& a) {
  channel.record(
      {.type = static_cast<std::uint8_t>(dfr::EventType::kTaskArrival),
       .aux = a.klass,
       .time_s = a.time_s,
       .task = a.task,
       .u0 = a.cycles,
       .f0 = a.deadline});
}

void record_params(RecorderChannel& channel, double time_s,
                   dfr::PolicyKind kind, std::size_t cores, double re,
                   double rt) {
  channel.record({.type = static_cast<std::uint8_t>(dfr::EventType::kParams),
                  .core = static_cast<std::uint16_t>(cores),
                  .aux = static_cast<std::uint16_t>(kind),
                  .time_s = time_s,
                  .f0 = re,
                  .f1 = rt});
}

Recorder::Recorder(std::size_t num_channels, std::size_t capacity_per_channel) {
  DVFS_REQUIRE(num_channels >= 1, "recorder needs at least one channel");
  channels_.reserve(num_channels);
  for (std::size_t i = 0; i < num_channels; ++i) {
    channels_.push_back(std::make_unique<RecorderChannel>(capacity_per_channel));
  }
}

RecorderChannel& Recorder::channel(std::size_t i) {
  DVFS_REQUIRE(i < channels_.size(), "recorder channel index out of range");
  return *channels_[i];
}

RecorderChannel& Recorder::add_channel(std::size_t capacity) {
  channels_.push_back(std::make_unique<RecorderChannel>(capacity));
  return *channels_.back();
}

void Recorder::drain() {
  std::vector<dfr::Event> batch;
  for (auto& ch : channels_) ch->ring_.drain(batch);
  if (channels_.size() > 1) {
    // Merge producers by timestamp. Stable, so same-time events keep
    // channel order; a single-channel (simulator) drain is already
    // monotone and this branch never perturbs it.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const dfr::Event& a, const dfr::Event& b) {
                       return a.time_s < b.time_s;
                     });
  }
  events_.insert(events_.end(), batch.begin(), batch.end());
}

std::uint64_t Recorder::events_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const auto& ch : channels_) n += ch->dropped();
  return n;
}

void Recorder::capture_metrics(const Registry& registry) {
  MetricsSnapshot snap;
  snap.counters = registry.counters_snapshot();
  snap.gauges = registry.gauges_snapshot();
  snap.histograms = registry.histograms_snapshot();
  metrics_ = std::move(snap);
}

void Recorder::capture_symbols(
    std::vector<std::pair<std::uint64_t, std::string>> symbols) {
  symbols_ = std::move(symbols);
}

namespace {

template <class T>
void put(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_name(std::ostream& os, const std::string& name) {
  DVFS_REQUIRE(name.size() <= 0xffff, "metric name too long for .dfr");
  put(os, static_cast<std::uint16_t>(name.size()));
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
}

template <class T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  DVFS_REQUIRE(is.good(), "truncated .dfr recording");
  return v;
}

std::string get_name(std::istream& is) {
  const auto len = get<std::uint16_t>(is);
  std::string name(len, '\0');
  is.read(name.data(), len);
  DVFS_REQUIRE(is.good(), "truncated .dfr recording");
  return name;
}

}  // namespace

void Recorder::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DVFS_REQUIRE(os.is_open(), "cannot open recording file: " + path);

  dfr::FileHeader header;
  header.num_channels = static_cast<std::uint32_t>(channels_.size());
  header.event_count = events_.size();
  header.dropped = events_dropped();
  put(os, header);
  // v4 per-channel summary table, one record per channel in order.
  for (const auto& ch : channels_) {
    dfr::ChannelStats stats;
    stats.recorded = ch->recorded();
    stats.dropped = ch->dropped();
    put(os, stats);
  }
  if (!events_.empty()) {
    os.write(reinterpret_cast<const char*>(events_.data()),
             static_cast<std::streamsize>(events_.size() *
                                          sizeof(dfr::Event)));
  }

  // v5 symbol epilogue first, metrics last: the metrics snapshot is
  // captured at the very end of a run, so keeping it terminal preserves
  // the "a torn tail costs only the epilogue being written" property for
  // both.
  if (!symbols_.empty()) {
    put(os, dfr::kSymbolsMagic);
    put(os, static_cast<std::uint32_t>(symbols_.size()));
    for (const auto& [addr, name] : symbols_) {
      put(os, addr);
      put_name(os, name);
    }
  }

  if (metrics_.has_value()) {
    put(os, dfr::kMetricsMagic);
    const auto entries = static_cast<std::uint32_t>(
        metrics_->counters.size() + metrics_->gauges.size() +
        metrics_->histograms.size());
    put(os, entries);
    for (const auto& [name, v] : metrics_->counters) {
      put(os, dfr::MetricKind::kCounter);
      put_name(os, name);
      put(os, v);
    }
    for (const auto& [name, v] : metrics_->gauges) {
      put(os, dfr::MetricKind::kGauge);
      put_name(os, name);
      put(os, v);
    }
    for (const auto& h : metrics_->histograms) {
      put(os, dfr::MetricKind::kHistogram);
      put_name(os, h.name);
      put(os, h.count);
      put(os, h.sum);
      put(os, static_cast<std::uint32_t>(h.buckets.size()));
      for (const auto& [lower, n] : h.buckets) {
        put(os, lower);
        put(os, n);
      }
    }
  }
  os.flush();
  DVFS_REQUIRE(os.good(), "failed writing recording file: " + path);
}

Recording Recording::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DVFS_REQUIRE(is.is_open(), "cannot open recording file: " + path);

  Recording rec;
  rec.header = get<dfr::FileHeader>(is);
  DVFS_REQUIRE(rec.header.magic == dfr::kFileMagic,
               path + ": not a .dfr recording (bad magic)");
  DVFS_REQUIRE(rec.header.version >= dfr::kMinFormatVersion &&
                   rec.header.version <= dfr::kFormatVersion,
               path + ": unsupported .dfr format version " +
                   std::to_string(rec.header.version));

  // The v4 per-channel table sits between the header and the events, so
  // it is readable even from an unfinalized (crashed) recording.
  if (rec.header.version >= 4) {
    rec.channels.resize(rec.header.num_channels);
    for (auto& stats : rec.channels) stats = get<dfr::ChannelStats>(is);
  }

  const bool finalized = rec.header.event_count != ~std::uint64_t{0};
  if (finalized) {
    rec.events.resize(rec.header.event_count);
    if (!rec.events.empty()) {
      is.read(reinterpret_cast<char*>(rec.events.data()),
              static_cast<std::streamsize>(rec.events.size() *
                                           sizeof(dfr::Event)));
      DVFS_REQUIRE(is.good(), path + ": truncated .dfr recording");
    }
  } else {
    // Unfinalized (crash mid-run): stream events until an epilogue
    // magic or EOF. An Event can never alias either magic because its
    // first byte is a small EventType, not 'D'.
    for (;;) {
      dfr::Event e;
      is.read(reinterpret_cast<char*>(&e), sizeof(e));
      if (is.gcount() == 0 && is.eof()) break;
      std::uint32_t head = 0;
      std::memcpy(&head, &e, sizeof(head));
      if (is.gcount() >= static_cast<std::streamsize>(sizeof(head)) &&
          (head == dfr::kMetricsMagic || head == dfr::kSymbolsMagic)) {
        // Rewind to the epilogue start and stop streaming events.
        is.clear();
        is.seekg(-is.gcount(), std::ios::cur);
        break;
      }
      DVFS_REQUIRE(is.gcount() == sizeof(e),
                   path + ": truncated .dfr recording");
      rec.events.push_back(e);
    }
    rec.header.event_count = rec.events.size();
  }

  // Optional epilogues: (v5) symbol table first, metrics snapshot last.
  // A torn epilogue (crash mid-write, partial copy) must not cost the
  // caller the events it already has: parse failures downgrade to a note
  // on the recording.
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!is.eof() && magic == dfr::kSymbolsMagic) {
    try {
      const auto entries = get<std::uint32_t>(is);
      rec.symbols.reserve(entries);
      for (std::uint32_t i = 0; i < entries; ++i) {
        const auto addr = get<std::uint64_t>(is);
        rec.symbols.emplace_back(addr, get_name(is));
      }
    } catch (const PreconditionError& e) {
      // Mid-table tear: the stream position is unknowable, so any
      // metrics epilogue behind it is unreachable too.
      rec.symbols.clear();
      rec.epilogue_note =
          std::string("symbol epilogue unreadable: ") + e.what();
      return rec;
    }
    magic = 0;
    is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  }
  if (!is.eof()) {
    try {
      DVFS_REQUIRE(is.good() && magic == dfr::kMetricsMagic,
                   path + ": corrupt metrics epilogue");
      auto metrics = std::make_shared<Registry>();
      const auto entries = get<std::uint32_t>(is);
      for (std::uint32_t i = 0; i < entries; ++i) {
        const auto kind = get<dfr::MetricKind>(is);
        const std::string name = get_name(is);
        switch (kind) {
          case dfr::MetricKind::kCounter:
            metrics->counter(name).add(get<std::uint64_t>(is));
            break;
          case dfr::MetricKind::kGauge:
            metrics->gauge(name).set(get<double>(is));
            break;
          case dfr::MetricKind::kHistogram: {
            const auto count = get<std::uint64_t>(is);
            const auto sum = get<std::uint64_t>(is);
            const auto n = get<std::uint32_t>(is);
            std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
            buckets.reserve(n);
            for (std::uint32_t b = 0; b < n; ++b) {
              const auto lower = get<std::uint64_t>(is);
              const auto cnt = get<std::uint64_t>(is);
              buckets.emplace_back(lower, cnt);
            }
            metrics->histogram(name).restore(count, sum, buckets);
            break;
          }
          default:
            DVFS_REQUIRE(false, path + ": unknown metric kind in epilogue");
        }
      }
      rec.metrics = std::move(metrics);
    } catch (const PreconditionError& e) {
      rec.metrics = nullptr;
      rec.epilogue_note =
          std::string("metrics epilogue unreadable: ") + e.what();
    }
  }
  return rec;
}

std::optional<dfr::Event> Recording::first_of(dfr::EventType t) const {
  for (const dfr::Event& e : events) {
    if (e.type == static_cast<std::uint8_t>(t)) return e;
  }
  return std::nullopt;
}

void replay_to_trace(const Recording& rec, TraceWriter& writer) {
  DVFS_REQUIRE(writer.size() == 0, "replay needs an empty trace writer");
  // Chrome trace timestamps are microseconds; one trace second equals one
  // recorded (simulated or wall) second.
  constexpr double kUsPerSecond = 1e6;
  std::int64_t gov_tid = 0;

  for (const dfr::Event& e : rec.events) {
    switch (static_cast<dfr::EventType>(e.type)) {
      case dfr::EventType::kRunBegin: {
        const auto cores = static_cast<std::size_t>(e.core);
        for (std::size_t j = 0; j < cores; ++j) {
          writer.thread_name(static_cast<std::int64_t>(j),
                             "core " + std::to_string(j));
        }
        gov_tid = static_cast<std::int64_t>(cores);
        writer.thread_name(gov_tid, "governor");
        break;
      }
      case dfr::EventType::kFreqChange:
        writer.instant(
            static_cast<std::int64_t>(e.core), "freq_change",
            e.time_s * kUsPerSecond,
            {{"rate_idx", Json(static_cast<std::uint64_t>(e.rate_idx))},
             {"ghz", Json(e.f0)}});
        break;
      case dfr::EventType::kSpanEnd: {
        Json::Object args{
            {"task", Json(e.task)},
            {"rate_idx", Json(static_cast<std::uint64_t>(e.rate_idx))}};
        if ((e.flags & dfr::kFlagPreempted) != 0) {
          args.emplace("preempted", Json(true));
        }
        writer.complete(static_cast<std::int64_t>(e.core),
                        "task " + std::to_string(e.task),
                        e.f0 * kUsPerSecond, (e.time_s - e.f0) * kUsPerSecond,
                        std::move(args));
        break;
      }
      case dfr::EventType::kDecision:
        writer.instant(gov_tid,
                       dfr::to_string(static_cast<dfr::DecisionKind>(e.aux)),
                       e.time_s * kUsPerSecond);
        writer.counter("busy_cores", e.time_s * kUsPerSecond, e.f1);
        break;
      default:
        // Lifecycle, candidate and placement events carry no trace
        // output — they feed `dvfs_inspect explain` / `audit`.
        break;
    }
  }
}

}  // namespace dvfs::obs
