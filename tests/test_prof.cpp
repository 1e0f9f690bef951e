/// Sampling-profiler tests. Determinism strategy: the signal path is
/// exercised once as a smoke test (skipped where CPU-clock timers do not
/// deliver), and everything else — ring accounting, event round-trips,
/// the pprof encoder, symbolization, reports, the HTTP route — runs on
/// synthetic samples pushed through the exact producer path the SIGPROF
/// handler uses (`inject_sample`), so no assertion depends on timer
/// arrival.
#include "dvfs/obs/prof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/recorder.h"
#include "http_client.h"

namespace dvfs::obs::prof {
namespace {

// ------------------------------------------------------------ helpers

/// Runs `fn` on a fresh registered thread — each test gets its own pool
/// slot, and the guard releases before the thread joins.
template <typename Fn>
void on_registered_thread(Fn&& fn) {
  std::thread([&] {
    ThreadGuard guard = profile_current_thread();
    ASSERT_TRUE(guard.active());
    fn();
  }).join();
}

Sample make_sample(double t_s, std::initializer_list<std::uint64_t> frames,
                   Stage stage = Stage::kExec, std::uint16_t shard = 0,
                   std::uint32_t tid = 1000) {
  Sample s;
  s.t_s = t_s;
  s.tid = tid;
  s.shard = shard;
  s.stage = static_cast<std::uint8_t>(stage);
  s.num_frames = static_cast<std::uint8_t>(frames.size());
  std::size_t i = 0;
  for (const std::uint64_t f : frames) s.frames[i++] = f;
  return s;
}

StackSample make_stack(double t_s, std::vector<std::uint64_t> frames,
                       Stage stage = Stage::kExec, std::uint16_t shard = 0,
                       std::uint32_t tid = 1000) {
  StackSample s;
  s.t_s = t_s;
  s.tid = tid;
  s.shard = shard;
  s.stage = stage;
  s.frames = std::move(frames);
  return s;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------------- stage markers

TEST(StageMarkers, ScopedStageNestsAndRestores) {
  set_stage(Stage::kNone);
  EXPECT_EQ(current_stage(), Stage::kNone);
  {
    ScopedStage drain(Stage::kDrain);
    EXPECT_EQ(current_stage(), Stage::kDrain);
    {
      ScopedStage placement(Stage::kPlacement);
      EXPECT_EQ(current_stage(), Stage::kPlacement);
    }
    // Inner scope exit restores the *enclosing* stage, not kNone.
    EXPECT_EQ(current_stage(), Stage::kDrain);
  }
  EXPECT_EQ(current_stage(), Stage::kNone);
}

TEST(StageMarkers, EveryStageHasAName) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    EXPECT_STRNE(to_string(static_cast<Stage>(i)), "?") << i;
  }
}

// -------------------------------------------------- inject and collect

TEST(CpuProfiler, InjectedSamplesComeBackIntact) {
  CpuProfiler prof;
  on_registered_thread([&] {
    ASSERT_TRUE(inject_sample(
        make_sample(0.25, {0x1000, 0x2000, 0x3000}, Stage::kPlacement, 3)));
    ASSERT_TRUE(inject_sample(
        make_sample(0.50, {0x1000}, Stage::kHttp, kNoShard, 77)));
  });
  prof.collect_now();

  const std::vector<StackSample> samples = prof.all_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].t_s, 0.25);
  EXPECT_EQ(samples[0].stage, Stage::kPlacement);
  EXPECT_EQ(samples[0].shard, 3);
  EXPECT_EQ(samples[0].frames,
            (std::vector<std::uint64_t>{0x1000, 0x2000, 0x3000}));
  EXPECT_EQ(samples[1].tid, 77u);
  EXPECT_EQ(samples[1].shard, kNoShard);
  EXPECT_EQ(prof.collected(), 2u);
  EXPECT_EQ(prof.dropped(), 0u);
  // samples_since filters on the profiler's time axis.
  EXPECT_EQ(prof.samples_since(0.3).size(), 1u);
}

TEST(CpuProfiler, RingOverflowDropsNewestAndCountsExactly) {
  CpuProfiler prof;
  std::uint64_t pushed = 0;
  std::uint64_t refused = 0;
  on_registered_thread([&] {
    // No collector is running, so the ring must eventually tail-drop;
    // every refusal is counted exactly, never estimated.
    for (int i = 0; i < 700; ++i) {
      inject_sample(make_sample(i * 1e-3, {0xabc})) ? ++pushed : ++refused;
    }
  });
  prof.collect_now();
  ASSERT_GT(refused, 0u);
  EXPECT_EQ(pushed + refused, 700u);
  EXPECT_EQ(prof.collected(), pushed);
  EXPECT_EQ(prof.dropped(), refused);
  EXPECT_EQ(prof.all_samples().size(), pushed);
}

TEST(CpuProfiler, WindowEvictsOldestBeyondCapacity) {
  CpuProfiler::Options options;
  options.window_capacity = 4;
  CpuProfiler prof(options);
  on_registered_thread([&] {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(inject_sample(make_sample(static_cast<double>(i), {0x1})));
    }
  });
  prof.collect_now();
  const std::vector<StackSample> samples = prof.all_samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples.front().t_s, 6.0);  // oldest six evicted
  EXPECT_EQ(prof.collected(), 10u);
  EXPECT_EQ(prof.evicted(), 6u);
}

TEST(CpuProfiler, CountersFlowIntoTheRegistry) {
  Registry registry;
  CpuProfiler::Options options;
  options.registry = &registry;
  CpuProfiler prof(options);
  on_registered_thread([&] {
    ASSERT_TRUE(inject_sample(make_sample(0.1, {0x1})));
  });
  prof.collect_now();
  EXPECT_EQ(registry.counter("obs.prof.samples").value(), 1u);
  EXPECT_EQ(registry.counter("obs.prof.dropped").value(), 0u);
}

TEST(CpuProfiler, RejectsNonsenseOptions) {
  CpuProfiler::Options options;
  options.hz = 0;
  EXPECT_THROW(CpuProfiler{options}, PreconditionError);
  options.hz = 100'000;
  EXPECT_THROW(CpuProfiler{options}, PreconditionError);
  options.hz = 100;
  options.window_capacity = 0;
  EXPECT_THROW(CpuProfiler{options}, PreconditionError);
}

TEST(CpuProfiler, OnlyOneInstanceMayRun) {
  CpuProfiler a;
  CpuProfiler b;
  a.start();
  EXPECT_TRUE(a.running());
  EXPECT_THROW(b.start(), PreconditionError);
  a.stop();
  a.stop();  // idempotent
  EXPECT_FALSE(a.running());
  b.start();  // the singleton slot freed up
  b.stop();
}

TEST(ThreadGuard, SecondRegistrationOnSameThreadIsInactive) {
  std::thread([] {
    ThreadGuard first = profile_current_thread();
    ASSERT_TRUE(first.active());
    const ThreadGuard second = profile_current_thread();
    EXPECT_FALSE(second.active());
    first.release();
    first.release();  // idempotent
    EXPECT_FALSE(first.active());
    // After release the thread can register again.
    const ThreadGuard third = profile_current_thread();
    EXPECT_TRUE(third.active());
  }).join();
}

TEST(ThreadGuard, InjectWithoutRegistrationIsAPreconditionError) {
  std::thread([] {
    EXPECT_THROW(inject_sample(make_sample(0.0, {0x1})), PreconditionError);
  }).join();
}

// --------------------------------------------------- event round-trip

TEST(ProfEvents, SamplesRoundTripThroughEventRuns) {
  const std::vector<StackSample> original = {
      make_stack(0.1, {0xa1, 0xa2, 0xa3}, Stage::kDrain, 0, 11),
      make_stack(0.2, {}, Stage::kIdle, kNoShard, 22),  // stackless sample
      make_stack(0.3, {0xb1}, Stage::kSteal, 5, 33),
  };
  std::vector<dfr::Event> events;
  for (const StackSample& s : original) append_sample_events(s, events);
  // One event per frame; a stackless sample still costs one marker event
  // so decoded sample counts match collected counts exactly.
  ASSERT_EQ(events.size(), 3u + 1u + 1u);

  const std::vector<StackSample> decoded = samples_from_events(events);
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(decoded[i].t_s, original[i].t_s) << i;
    EXPECT_EQ(decoded[i].tid, original[i].tid) << i;
    EXPECT_EQ(decoded[i].shard, original[i].shard) << i;
    EXPECT_EQ(decoded[i].stage, original[i].stage) << i;
    EXPECT_EQ(decoded[i].frames, original[i].frames) << i;
  }
}

TEST(ProfEvents, DecoderIgnoresForeignEventsAndOrphanFrames) {
  std::vector<dfr::Event> events;
  append_sample_events(make_stack(0.1, {0x1, 0x2}), events);
  ASSERT_EQ(events.size(), 2u);
  // Recorder::drain merges channels by timestamp, so foreign events
  // legitimately interleave a frame run — they must not sever it.
  std::vector<dfr::Event> merged;
  merged.push_back(events[0]);
  merged.push_back(
      {.type = static_cast<std::uint8_t>(dfr::EventType::kRunBegin),
       .core = 4});
  merged.push_back(events[1]);
  const std::vector<StackSample> decoded = samples_from_events(merged);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].frames, (std::vector<std::uint64_t>{0x1, 0x2}));

  // An orphan continuation with no open sample (its leading frames fell
  // to a recorder-ring drop) is skipped, not grafted onto a neighbor.
  EXPECT_TRUE(samples_from_events({events[1]}).empty());

  // A gap in the frame-index sequence closes the run: later frames of
  // the torn sample do not attach, and the next rate_idx == 0 recovers.
  std::vector<dfr::Event> gap;
  append_sample_events(make_stack(0.2, {0xa, 0xb, 0xc}), gap);
  gap.erase(gap.begin() + 1);  // drop the middle frame (rate_idx == 1)
  append_sample_events(make_stack(0.3, {0xd}), gap);
  const std::vector<StackSample> recovered = samples_from_events(gap);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].frames, (std::vector<std::uint64_t>{0xa}));
  EXPECT_EQ(recovered[1].frames, (std::vector<std::uint64_t>{0xd}));
}

TEST(ProfEvents, ChannelPersistenceAndSymbolEpilogueRoundTrip) {
  Recorder recorder(/*num_channels=*/1);
  CpuProfiler::Options options;
  options.channel = &recorder.add_channel(Recorder::kDefaultCapacity);
  CpuProfiler prof(options);
  on_registered_thread([&] {
    ASSERT_TRUE(inject_sample(
        make_sample(0.5, {0xdead, 0xbeef}, Stage::kExec, 2, 99)));
  });
  prof.collect_now();
  recorder.capture_symbols(
      {{0xdead, "leaf_fn()"}, {0xbeef, ""}});  // empty name is kept
  recorder.drain();

  const std::string path = temp_path("dvfs_prof_symbols.dfr");
  recorder.write_file(path);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.header.version, dfr::kFormatVersion);
  EXPECT_TRUE(loaded.epilogue_note.empty()) << loaded.epilogue_note;
  const std::vector<StackSample> decoded = samples_from_events(loaded.events);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].frames, (std::vector<std::uint64_t>{0xdead, 0xbeef}));
  EXPECT_EQ(decoded[0].shard, 2);
  EXPECT_EQ(decoded[0].tid, 99u);

  ASSERT_EQ(loaded.symbols.size(), 2u);
  const TableSymbolizer sym(loaded.symbols);
  EXPECT_EQ(sym.symbolize(0xdead), "leaf_fn()");
  EXPECT_EQ(sym.symbolize(0xbeef), "");
  EXPECT_EQ(sym.symbolize(0x1234), "");  // absent address
}

TEST(ProfEvents, UniqueAddressesAreSortedAndDeduplicated) {
  const std::vector<StackSample> samples = {
      make_stack(0.1, {0x3, 0x1}),
      make_stack(0.2, {0x1, 0x2}),
  };
  EXPECT_EQ(unique_addresses(samples),
            (std::vector<std::uint64_t>{0x1, 0x2, 0x3}));
  const TableSymbolizer sym({{0x1, "one"}, {0x2, "two"}});
  const auto table = symbol_table(samples, sym);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0], (std::pair<std::uint64_t, std::string>{0x1, "one"}));
  EXPECT_EQ(table[2].second, "");  // 0x3 has no name; recorded anyway
}

// ------------------------------------------------------- pprof decode

/// Minimal protobuf wire-format reader — the checked-in decoder the
/// encoder golden tests verify against. Handles varints,
/// length-delimited fields, and packed repeated uint64.
class ProtoReader {
 public:
  explicit ProtoReader(std::string_view s)
      : p_(reinterpret_cast<const std::uint8_t*>(s.data())),
        end_(p_ + s.size()) {}

  [[nodiscard]] bool done() const { return p_ >= end_; }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (p_ < end_) {
      const std::uint8_t b = *p_++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
    ADD_FAILURE() << "truncated varint";
    return v;
  }

  /// Reads one field tag; returns {field_number, wire_type}.
  std::pair<std::uint32_t, std::uint32_t> tag() {
    const std::uint64_t key = varint();
    return {static_cast<std::uint32_t>(key >> 3),
            static_cast<std::uint32_t>(key & 7)};
  }

  std::string_view bytes() {
    const std::uint64_t len = varint();
    EXPECT_LE(len, static_cast<std::uint64_t>(end_ - p_))
        << "truncated bytes field";
    std::string_view out(reinterpret_cast<const char*>(p_),
                         static_cast<std::size_t>(len));
    p_ += len;
    return out;
  }

  void skip(std::uint32_t wire_type) {
    switch (wire_type) {
      case 0: varint(); break;
      case 1: p_ += 8; break;
      case 2: bytes(); break;
      case 5: p_ += 4; break;
      default: ADD_FAILURE() << "unexpected wire type " << wire_type;
    }
  }

  static std::vector<std::uint64_t> packed(std::string_view payload) {
    ProtoReader r(payload);
    std::vector<std::uint64_t> out;
    while (!r.done()) out.push_back(r.varint());
    return out;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// The subset of pprof's Profile message the tests assert on, with all
/// string-table indices resolved to the strings themselves.
struct DecodedProfile {
  struct PSample {
    std::vector<std::uint64_t> location_ids;
    std::vector<std::uint64_t> values;
    std::map<std::string, std::string> str_labels;
    std::map<std::string, std::int64_t> num_labels;
  };
  struct Location {
    std::uint64_t id = 0;
    std::uint64_t mapping_id = 0;
    std::uint64_t address = 0;
    std::vector<std::uint64_t> function_ids;
  };
  std::vector<std::pair<std::string, std::string>> sample_types;
  std::vector<PSample> samples;
  std::vector<Location> locations;
  std::map<std::uint64_t, std::string> functions;  // id -> name
  std::vector<std::string> strings;
  std::int64_t period = 0;
  std::int64_t time_nanos = 0;
  std::int64_t duration_nanos = 0;
  std::size_t mapping_count = 0;
};

/// Decodes in two passes: the encoder writes the string table after the
/// messages that reference it, so strings are collected first and every
/// index resolves in the second sweep.
DecodedProfile decode_profile(std::string_view body) {
  DecodedProfile out;
  for (ProtoReader pass1(body); !pass1.done();) {
    const auto [field, wt] = pass1.tag();
    if (field == 6 && wt == 2) {
      out.strings.emplace_back(pass1.bytes());
    } else {
      pass1.skip(wt);
    }
  }
  const auto str = [&out](std::uint64_t i) -> std::string {
    EXPECT_LT(i, out.strings.size()) << "string index out of range";
    return i < out.strings.size() ? out.strings[i] : std::string();
  };

  for (ProtoReader top(body); !top.done();) {
    const auto [field, wt] = top.tag();
    switch (field) {
      case 1: {  // sample_type: ValueType{type=1, unit=2}
        std::uint64_t type = 0;
        std::uint64_t unit = 0;
        for (ProtoReader r(top.bytes()); !r.done();) {
          const auto [f, w] = r.tag();
          if (f == 1) type = r.varint();
          else if (f == 2) unit = r.varint();
          else r.skip(w);
        }
        out.sample_types.emplace_back(str(type), str(unit));
        break;
      }
      case 2: {  // sample: Sample{location_id=1, value=2, label=3}
        DecodedProfile::PSample s;
        for (ProtoReader r(top.bytes()); !r.done();) {
          const auto [f, w] = r.tag();
          if (f == 1) {
            s.location_ids = ProtoReader::packed(r.bytes());
          } else if (f == 2) {
            s.values = ProtoReader::packed(r.bytes());
          } else if (f == 3) {  // Label{key=1, str=2, num=3}
            std::uint64_t key = 0;
            std::uint64_t sv = 0;
            std::int64_t num = 0;
            bool has_str = false;
            for (ProtoReader lr(r.bytes()); !lr.done();) {
              const auto [lf, lw] = lr.tag();
              if (lf == 1) key = lr.varint();
              else if (lf == 2) { sv = lr.varint(); has_str = true; }
              else if (lf == 3) num = static_cast<std::int64_t>(lr.varint());
              else lr.skip(lw);
            }
            if (has_str) s.str_labels[str(key)] = str(sv);
            else s.num_labels[str(key)] = num;
          } else {
            r.skip(w);
          }
        }
        out.samples.push_back(std::move(s));
        break;
      }
      case 3:  // mapping
        top.bytes();
        ++out.mapping_count;
        break;
      case 4: {  // location: Location{id=1, mapping_id=2, address=3, line=4}
        DecodedProfile::Location loc;
        for (ProtoReader r(top.bytes()); !r.done();) {
          const auto [f, w] = r.tag();
          if (f == 1) loc.id = r.varint();
          else if (f == 2) loc.mapping_id = r.varint();
          else if (f == 3) loc.address = r.varint();
          else if (f == 4) {  // Line{function_id=1}
            for (ProtoReader lr(r.bytes()); !lr.done();) {
              const auto [lf, lw] = lr.tag();
              if (lf == 1) loc.function_ids.push_back(lr.varint());
              else lr.skip(lw);
            }
          } else {
            r.skip(w);
          }
        }
        out.locations.push_back(std::move(loc));
        break;
      }
      case 5: {  // function: Function{id=1, name=2}
        std::uint64_t id = 0;
        std::uint64_t name = 0;
        for (ProtoReader r(top.bytes()); !r.done();) {
          const auto [f, w] = r.tag();
          if (f == 1) id = r.varint();
          else if (f == 2) name = r.varint();
          else r.skip(w);
        }
        out.functions[id] = str(name);
        break;
      }
      case 6: top.bytes(); break;  // strings: already collected in pass 1
      case 9: out.time_nanos = static_cast<std::int64_t>(top.varint()); break;
      case 10:
        out.duration_nanos = static_cast<std::int64_t>(top.varint());
        break;
      case 12: out.period = static_cast<std::int64_t>(top.varint()); break;
      default: top.skip(wt); break;
    }
  }
  return out;
}

/// The fixture profile every encoder test shares: three samples, two of
/// them the identical stack (must aggregate), attribution spread across
/// stages/shards/threads.
std::vector<StackSample> encoder_fixture() {
  return {
      make_stack(0.10, {0x1001, 0x2002}, Stage::kPlacement, 0, 11),
      make_stack(0.20, {0x1001, 0x2002}, Stage::kPlacement, 0, 11),
      make_stack(0.45, {0x3003, 0x2002}, Stage::kHttp, kNoShard, 22),
  };
}

TEST(PprofEncoder, DecodesBackWithExactCountsAndDedup) {
  PprofOptions options;
  options.hz = 100;
  options.gzip = false;
  options.time_nanos = 1234567890;
  options.mappings = {{0x1000, 0x9000, 0, "/bin/fake"}};
  const TableSymbolizer sym(
      {{0x1001, "leaf_a"}, {0x2002, "shared_caller"}, {0x3003, "leaf_b"}});
  const DecodedProfile p =
      decode_profile(encode_pprof(encoder_fixture(), sym, options));

  // Header scalars.
  ASSERT_EQ(p.sample_types.size(), 2u);
  EXPECT_EQ(p.sample_types[0], (std::pair<std::string, std::string>(
                                   "samples", "count")));
  EXPECT_EQ(p.sample_types[1], (std::pair<std::string, std::string>(
                                   "cpu", "nanoseconds")));
  EXPECT_EQ(p.period, 10'000'000);  // 1e9 / 100 Hz
  EXPECT_EQ(p.time_nanos, 1234567890);
  EXPECT_GT(p.duration_nanos, 0);
  EXPECT_EQ(p.mapping_count, 1u);
  EXPECT_FALSE(p.strings.empty());
  EXPECT_EQ(p.strings[0], "");  // string_table[0] must be ""

  // Two identical stacks with identical labels collapse into one sample
  // of count 2; the distinct stack stays separate. 3 = 2 + 1 exactly.
  ASSERT_EQ(p.samples.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& s : p.samples) {
    ASSERT_EQ(s.values.size(), 2u);
    total += s.values[0];
    // cpu/nanoseconds = count * period, exactly.
    EXPECT_EQ(s.values[1], s.values[0] * 10'000'000u);
  }
  EXPECT_EQ(total, 3u);

  // Location dedup: 3 unique addresses → 3 locations, each referenced
  // by id; the shared caller appears in both samples under one id.
  ASSERT_EQ(p.locations.size(), 3u);
  std::map<std::uint64_t, std::uint64_t> loc_by_addr;
  for (const auto& loc : p.locations) {
    EXPECT_NE(loc.id, 0u);
    loc_by_addr[loc.address] = loc.id;
    ASSERT_EQ(loc.function_ids.size(), 1u);
  }
  ASSERT_TRUE(loc_by_addr.contains(0x2002));
  for (const auto& s : p.samples) {
    ASSERT_EQ(s.location_ids.size(), 2u);
    EXPECT_EQ(s.location_ids[1], loc_by_addr[0x2002]);  // leaf-first order
  }

  // Function dedup: three named addresses → three functions, names
  // resolved through the string table.
  ASSERT_EQ(p.functions.size(), 3u);
  std::vector<std::string> names;
  for (const auto& [id, name] : p.functions) names.push_back(name);
  EXPECT_NE(std::find(names.begin(), names.end(), "shared_caller"),
            names.end());

  // Labels: stage always a string label; shard/thread numeric, shard
  // omitted for kNoShard.
  for (const auto& s : p.samples) {
    ASSERT_TRUE(s.str_labels.contains("stage"));
    ASSERT_TRUE(s.num_labels.contains("thread"));
    if (s.str_labels.at("stage") == "placement") {
      EXPECT_EQ(s.num_labels.at("shard"), 0);
      EXPECT_EQ(s.num_labels.at("thread"), 11);
    } else {
      EXPECT_EQ(s.str_labels.at("stage"), "http");
      EXPECT_FALSE(s.num_labels.contains("shard"));
      EXPECT_EQ(s.num_labels.at("thread"), 22);
    }
  }
}

TEST(PprofEncoder, MappingsConstrainLocationMappingIds) {
  PprofOptions options;
  options.gzip = false;
  options.mappings = {{0x1000, 0x2000, 0, "/bin/a"},
                      {0x3000, 0x4000, 0, "/bin/b"}};
  const TableSymbolizer sym({});
  const DecodedProfile p = decode_profile(
      encode_pprof({make_stack(0.1, {0x1500, 0x3500, 0x9999})}, sym,
                   options));
  ASSERT_EQ(p.locations.size(), 3u);
  std::map<std::uint64_t, std::uint64_t> mapping_of;
  for (const auto& loc : p.locations) mapping_of[loc.address] = loc.mapping_id;
  EXPECT_NE(mapping_of[0x1500], 0u);
  EXPECT_NE(mapping_of[0x3500], 0u);
  EXPECT_NE(mapping_of[0x1500], mapping_of[0x3500]);
  EXPECT_EQ(mapping_of[0x9999], 0u);  // outside every mapping
}

TEST(PprofEncoder, DeterministicAcrossCalls) {
  PprofOptions options;
  options.gzip = false;
  const TableSymbolizer sym({{0x1001, "a"}});
  const std::string first = encode_pprof(encoder_fixture(), sym, options);
  const std::string second = encode_pprof(encoder_fixture(), sym, options);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// -------------------------------------------------------------- gzip

/// Un-gzips a stored-deflate stream: parses the RFC 1952 header and the
/// stored (BTYPE=00) blocks the encoder emits. Verifies the framing the
/// test can check structurally; CRC correctness is asserted against a
/// locally computed reference.
std::string ungzip_stored(const std::string& gz) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(gz.data());
  EXPECT_GE(gz.size(), 18u);  // header(10) + 1 empty block(5) + trailer(8) - 5
  EXPECT_EQ(b[0], 0x1f);
  EXPECT_EQ(b[1], 0x8b);
  EXPECT_EQ(b[2], 8);  // deflate
  std::string out;
  std::size_t i = 10;
  bool final = false;
  while (!final) {
    EXPECT_LT(i, gz.size() - 8) << "ran into the trailer mid-stream";
    const std::uint8_t hdr = b[i++];
    final = (hdr & 1) != 0;
    EXPECT_EQ(hdr >> 1, 0) << "not a stored block";
    const std::size_t len = b[i] | (b[i + 1] << 8);
    const std::size_t nlen = b[i + 2] | (b[i + 3] << 8);
    EXPECT_EQ(len ^ nlen, 0xffff);
    i += 4;
    out.append(gz.data() + i, len);
    i += len;
  }
  // ISIZE trailer: total input length mod 2^32.
  const std::uint32_t isize = static_cast<std::uint32_t>(b[gz.size() - 4]) |
                              (static_cast<std::uint32_t>(b[gz.size() - 3])
                               << 8) |
                              (static_cast<std::uint32_t>(b[gz.size() - 2])
                               << 16) |
                              (static_cast<std::uint32_t>(b[gz.size() - 1])
                               << 24);
  EXPECT_EQ(isize, static_cast<std::uint32_t>(out.size()));
  return out;
}

std::uint32_t crc32_reference(std::string_view data) {
  std::uint32_t crc = 0xffffffffu;
  for (const char c : data) {
    crc ^= static_cast<std::uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(GzipStored, RoundTripsWithValidCrcAndFraming) {
  for (const std::string& payload :
       {std::string(), std::string("hello"), std::string(200'000, 'x')}) {
    const std::string gz = gzip_stored(payload);
    EXPECT_EQ(ungzip_stored(gz), payload);
    const auto* b = reinterpret_cast<const std::uint8_t*>(gz.data());
    const std::uint32_t crc =
        static_cast<std::uint32_t>(b[gz.size() - 8]) |
        (static_cast<std::uint32_t>(b[gz.size() - 7]) << 8) |
        (static_cast<std::uint32_t>(b[gz.size() - 6]) << 16) |
        (static_cast<std::uint32_t>(b[gz.size() - 5]) << 24);
    EXPECT_EQ(crc, crc32_reference(payload)) << payload.size();
  }
}

TEST(PprofEncoder, GzipOptionWrapsTheSameBody) {
  PprofOptions plain;
  plain.gzip = false;
  PprofOptions zipped = plain;
  zipped.gzip = true;
  const TableSymbolizer sym({});
  const std::string raw = encode_pprof(encoder_fixture(), sym, plain);
  const std::string gz = encode_pprof(encoder_fixture(), sym, zipped);
  EXPECT_EQ(ungzip_stored(gz), raw);
}

// ----------------------------------------------------------- renders

TEST(FoldedStacks, RootFirstSemicolonJoinedWithCounts) {
  const TableSymbolizer sym(
      {{0x1, "leaf"}, {0x2, "mid dle"}, {0x3, "root;ish"}});
  const std::string folded = folded_stacks(
      {
          make_stack(0.1, {0x1, 0x2, 0x3}),
          make_stack(0.2, {0x1, 0x2, 0x3}),
          make_stack(0.3, {0x9}),  // unknown → hex
          make_stack(0.4, {}),     // stackless
      },
      sym);
  // Separator characters in names are scrubbed so the folded grammar
  // ("frames joined by ';', count after a space") stays parseable.
  EXPECT_NE(folded.find("root_ish;mid_dle;leaf 2\n"), std::string::npos)
      << folded;
  EXPECT_NE(folded.find("0x9 1\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("[no stack] 1\n"), std::string::npos) << folded;
}

TEST(Report, StageAndShardSharesSumToRetainedSamplesExactly) {
  std::vector<StackSample> samples;
  for (int i = 0; i < 7; ++i) {
    samples.push_back(make_stack(i * 0.1, {0x1, 0x2}, Stage::kDrain, 0));
  }
  for (int i = 0; i < 5; ++i) {
    samples.push_back(make_stack(1.0 + i * 0.1, {0x2}, Stage::kExec, 1));
  }
  samples.push_back(make_stack(2.0, {}, Stage::kNone, kNoShard));

  const TableSymbolizer sym({{0x1, "hot"}, {0x2, "caller"}});
  const Report report = build_report(samples, sym);
  EXPECT_EQ(report.samples, 13u);

  std::uint64_t stage_total = 0;
  for (const auto& [stage, n] : report.by_stage) stage_total += n;
  EXPECT_EQ(stage_total, report.samples);
  std::uint64_t shard_total = 0;
  for (const auto& [shard, n] : report.by_shard) shard_total += n;
  EXPECT_EQ(shard_total, report.samples);

  // Self/cumulative: "hot" is the leaf of 7 samples; "caller" is on the
  // stack of 12 but the leaf of only 5.
  std::uint64_t hot_self = 0;
  std::uint64_t caller_self = 0;
  std::uint64_t caller_cum = 0;
  for (const auto& e : report.by_function) {
    if (e.name == "hot") hot_self = e.self;
    if (e.name == "caller") {
      caller_self = e.self;
      caller_cum = e.cum;
    }
  }
  EXPECT_EQ(hot_self, 7u);
  EXPECT_EQ(caller_self, 5u);
  EXPECT_EQ(caller_cum, 12u);
}

// ----------------------------------------------------------- signals

TEST(CpuProfilerSignals, BusyThreadsGetSampledAndAttributed) {
  CpuProfiler::Options options;
  options.hz = 500;  // fast sampling keeps the burn window short
  CpuProfiler prof(options);
  prof.start();
  std::atomic<std::uint64_t> sink{0};
  std::thread burner([&] {
    const ThreadGuard guard = profile_current_thread();
    const ScopedStage stage(Stage::kExec);
    set_shard(7);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
    while (std::chrono::steady_clock::now() < until) {
      for (int i = 0; i < 4096; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    }
    set_shard(kNoShard);
  });
  burner.join();
  prof.stop();

  const std::vector<StackSample> samples = prof.all_samples();
  std::size_t attributed = 0;
  for (const StackSample& s : samples) {
    if (s.stage == Stage::kExec && s.shard == 7) ++attributed;
  }
  if (samples.empty()) {
    GTEST_SKIP() << "no SIGPROF delivery in this environment "
                    "(containerized CPU clocks can be coarse)";
  }
  // ~200 expected at 500 Hz over 400 ms of CPU burn; accept any
  // attributed evidence rather than a flaky count window.
  EXPECT_GT(attributed, 0u);
  EXPECT_EQ(prof.collected(), samples.size() + prof.evicted());
}

TEST(CpuProfilerSignals, ConcurrentRegistrationSurvivesStartStopCycles) {
  // Threads register/sample/release while the profiler starts and stops
  // underneath them — the TSan job turns any ordering bug into a report;
  // in a plain build it is an aggressive smoke test.
  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&go, t] {
      while (go.load(std::memory_order_relaxed)) {
        ThreadGuard guard = profile_current_thread();
        if (guard.active()) {
          (void)inject_sample(
              make_sample(0.0, {0x100, 0x200},
                          static_cast<Stage>(t % kNumStages),
                          static_cast<std::uint16_t>(t)));
        }
        std::this_thread::yield();
      }
    });
  }
  for (int cycle = 0; cycle < 5; ++cycle) {
    CpuProfiler prof;
    prof.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    prof.collect_now();
    prof.stop();
  }
  go.store(false, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
}

// -------------------------------------------------------------- HTTP

using test::http_get;

TEST(PprofRoute, ServesGzippedProfileAndValidatesInput) {
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [] { return std::string("metrics\n"); });
  CpuProfiler prof;
  register_pprof_route(server, prof);
  server.start();

  // Not running yet: the route answers 503, not an empty profile.
  EXPECT_NE(http_get(server.port(), "/debug/pprof/profile?seconds=0")
                .find("HTTP/1.1 503"),
            std::string::npos);

  prof.start();
  const std::string ok =
      http_get(server.port(), "/debug/pprof/profile?seconds=0");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("application/octet-stream"), std::string::npos);
  const std::size_t body_at = ok.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = ok.substr(body_at + 4);
  ASSERT_GE(body.size(), 2u);
  EXPECT_EQ(static_cast<std::uint8_t>(body[0]), 0x1f);  // gzip magic
  EXPECT_EQ(static_cast<std::uint8_t>(body[1]), 0x8b);

  // Malformed or negative durations are rejected, not clamped to junk.
  for (const char* bad :
       {"?seconds=abc", "?seconds=1x", "?seconds=-2", "?seconds="}) {
    EXPECT_NE(http_get(server.port(),
                       std::string("/debug/pprof/profile") + bad)
                  .find("HTTP/1.1 400"),
              std::string::npos)
        << bad;
  }
  prof.stop();
  server.stop();
}

// The server has one thread: a profile fetch answers from the window the
// profiler already holds, so neither it nor the request behind it waits
// out the requested interval.
TEST(PprofRoute, ProfileFetchDoesNotHoldTheServingThread) {
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [] { return std::string("metrics\n"); });
  CpuProfiler prof;
  register_pprof_route(server, prof);
  server.start();
  prof.start();
  using Clock = std::chrono::steady_clock;
  const auto elapsed_s = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  Clock::time_point t0 = Clock::now();
  const std::string profile =
      http_get(server.port(), "/debug/pprof/profile?seconds=5");
  EXPECT_LT(elapsed_s(t0), 1.0);
  EXPECT_NE(profile.find("HTTP/1.1 200 OK"), std::string::npos);

  t0 = Clock::now();
  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_LT(elapsed_s(t0), 1.0);
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  prof.stop();
  server.stop();
}

}  // namespace
}  // namespace dvfs::obs::prof
