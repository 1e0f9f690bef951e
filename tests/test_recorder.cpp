/// Flight-recorder tests: SPSC ring semantics (overflow = exact tail-drop
/// accounting, surviving prefix intact), `.dfr` file round-trips including
/// the metrics epilogue, and the headline guarantee — replaying a
/// recording reproduces the live run's Chrome trace byte for byte.
#include "dvfs/obs/recorder.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "dvfs/governors/lmc_policy.h"
#include "dvfs/obs/trace.h"
#include "dvfs/sim/engine.h"
#include "dvfs/workload/generators.h"

namespace dvfs::obs {
namespace {

std::string temp_path(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

dfr::Event event_at(double t, std::uint64_t task = 0) {
  return {.type = static_cast<std::uint8_t>(dfr::EventType::kTaskArrival),
          .time_s = t,
          .task = task};
}

TEST(RecorderChannel, RoundsCapacityToPowerOfTwo) {
  EXPECT_EQ(RecorderChannel(100).capacity(), 128u);
  EXPECT_EQ(RecorderChannel(64).capacity(), 64u);
  EXPECT_EQ(RecorderChannel(1).capacity(), 2u);
}

TEST(RecorderChannel, OverflowTailDropsWithExactCount) {
  Recorder rec(1, 64);
  RecorderChannel& ch = rec.channel(0);
  ASSERT_EQ(ch.capacity(), 64u);
  // 64 + 37 pushes: exactly the first 64 survive, exactly 37 drop.
  for (int i = 0; i < 64 + 37; ++i) {
    const bool kept = ch.record(event_at(static_cast<double>(i),
                                         static_cast<std::uint64_t>(i)));
    EXPECT_EQ(kept, i < 64) << "push " << i;
  }
  EXPECT_EQ(ch.dropped(), 37u);
  EXPECT_EQ(rec.events_dropped(), 37u);

  rec.drain();
  ASSERT_EQ(rec.events().size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(rec.events()[i].task, i) << "surviving prefix reordered";
  }
  // The ring is empty again after the drain: the freed slots accept new
  // events without further drops.
  EXPECT_TRUE(ch.record(event_at(1000.0)));
  EXPECT_EQ(ch.dropped(), 37u);
}

TEST(RecorderChannel, OverflowedFileStillParsesAndReplays) {
  Recorder rec(1, 16);
  RecorderChannel& ch = rec.channel(0);
  // A run prologue, then more spans than the ring holds.
  ch.record({.type = static_cast<std::uint8_t>(dfr::EventType::kRunBegin),
             .core = 2});
  for (int i = 0; i < 40; ++i) {
    ch.record({.type = static_cast<std::uint8_t>(dfr::EventType::kSpanEnd),
               .core = static_cast<std::uint16_t>(i % 2),
               .time_s = 1.0 + i,
               .task = static_cast<std::uint64_t>(i),
               .f0 = 0.5 + i});
  }
  ASSERT_GT(ch.dropped(), 0u);
  rec.drain();

  const std::string path = temp_path("dvfs_overflow.dfr");
  rec.write_file(path);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.header.dropped, 41u - 16u);  // 1 + 40 pushed, 16 kept
  EXPECT_EQ(loaded.events.size(), 16u);
  ASSERT_TRUE(loaded.first_of(dfr::EventType::kRunBegin).has_value());

  // The surviving prefix is a valid recording: replay must not trip any
  // invariant even though the run is truncated mid-flight.
  TraceWriter writer;
  replay_to_trace(loaded, writer);
  EXPECT_GT(writer.size(), 0u);
}

TEST(Recorder, FileRoundTripPreservesEventsAndHeader) {
  Recorder rec(2, 64);
  rec.channel(0).record(event_at(0.5, 1));
  rec.channel(1).record(event_at(0.25, 2));
  rec.channel(0).record(event_at(1.0, 3));
  rec.drain();
  // Multi-channel drains merge by timestamp.
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].task, 2u);
  EXPECT_EQ(rec.events()[1].task, 1u);
  EXPECT_EQ(rec.events()[2].task, 3u);

  const std::string path = temp_path("dvfs_roundtrip.dfr");
  rec.write_file(path);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.header.version, dfr::kFormatVersion);
  EXPECT_EQ(loaded.header.num_channels, 2u);
  EXPECT_EQ(loaded.header.dropped, 0u);
  ASSERT_EQ(loaded.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.events[i].task, rec.events()[i].task);
    EXPECT_EQ(loaded.events[i].time_s, rec.events()[i].time_s);
  }
  EXPECT_EQ(loaded.metrics, nullptr);  // no epilogue captured
}

TEST(Recorder, LoadRejectsGarbage) {
  const std::string path = temp_path("dvfs_garbage.dfr");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a recording", f);
    std::fclose(f);
  }
  EXPECT_THROW(Recording::load(path), PreconditionError);
  std::remove(path.c_str());
  EXPECT_THROW(Recording::load(path), PreconditionError);  // missing file
}

TEST(Recorder, MetricsEpilogueReproducesRegistryJson) {
  Registry reg;
  reg.counter("epi.count").add(41);
  reg.gauge("epi.gauge").set(2.75);
  Histogram& h = reg.histogram("epi.hist");
  h.observe(1);
  h.observe(100);
  h.observe(100000);

  Recorder rec(1, 16);
  rec.channel(0).record(event_at(0.0));
  rec.drain();
  rec.capture_metrics(reg);

  const std::string path = temp_path("dvfs_epilogue.dfr");
  rec.write_file(path);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());

  ASSERT_NE(loaded.metrics, nullptr);
  // The epilogue registry re-serializes through Registry::to_json, so the
  // JSON — including derived mean/percentiles — matches a live dump
  // exactly.
  EXPECT_EQ(loaded.metrics->to_json().dump(1), reg.to_json().dump(1));
}

TEST(Recorder, TornEpilogueLoadsEventPrefixWithNote) {
  Registry reg;
  reg.counter("torn.count").add(7);
  reg.histogram("torn.hist").observe(12345);
  Recorder rec(1, 16);
  rec.channel(0).record(event_at(0.0, 1));
  rec.channel(0).record(event_at(1.0, 2));
  rec.drain();
  rec.capture_metrics(reg);

  const std::string path = temp_path("dvfs_torn.dfr");
  rec.write_file(path);
  // Tear the file mid-epilogue: keep all events plus the epilogue magic
  // and a few bytes, drop the rest (a crash or partial copy).
  const auto full_size = std::filesystem::file_size(path);
  const auto events_end = sizeof(dfr::FileHeader) + sizeof(dfr::ChannelStats) +
                          2 * sizeof(dfr::Event);
  ASSERT_GT(full_size, events_end + 8);
  std::filesystem::resize_file(path, events_end + 8);

  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[1].task, 2u);
  EXPECT_EQ(loaded.metrics, nullptr);
  EXPECT_NE(loaded.epilogue_note.find("metrics epilogue unreadable"),
            std::string::npos)
      << loaded.epilogue_note;
}

/// Rewrites a freshly written (v4) recording as an older-format file:
/// strips the per-channel table (v1–v3 layouts have none) and patches the
/// header's version byte.
void downgrade_file(const std::string& path, std::uint8_t version,
                    std::uint32_t num_channels) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  if (version < 4) {
    bytes.erase(sizeof(dfr::FileHeader),
                sizeof(dfr::ChannelStats) * num_channels);
  }
  bytes[offsetof(dfr::FileHeader, version)] = static_cast<char>(version);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Recorder, LoadsVersion1Files) {
  // v2/v3 only appended event types; v4 added the per-channel table. A
  // true v1 file is the v4 bytes minus that table with the version byte
  // patched down.
  Recorder rec(1, 16);
  rec.channel(0).record(event_at(0.25, 9));
  rec.drain();
  const std::string path = temp_path("dvfs_v1.dfr");
  rec.write_file(path);
  downgrade_file(path, 1, 1);
  const Recording loaded = Recording::load(path);
  EXPECT_EQ(loaded.header.version, 1u);
  EXPECT_TRUE(loaded.channels.empty());  // pre-v4: no per-channel table
  ASSERT_EQ(loaded.events.size(), 1u);
  EXPECT_EQ(loaded.events[0].task, 9u);

  // Future versions stay rejected.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(offsetof(dfr::FileHeader, version));
    const char v9 = 9;
    f.write(&v9, 1);
  }
  EXPECT_THROW(Recording::load(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(Recorder, LoadsVersion3FilesWithoutChannelTable) {
  Recorder rec(2, 16);
  rec.channel(0).record(event_at(0.5, 1));
  rec.channel(1).record(event_at(0.25, 2));
  rec.drain();
  const std::string path = temp_path("dvfs_v3.dfr");
  rec.write_file(path);
  downgrade_file(path, 3, 2);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.header.version, 3u);
  EXPECT_TRUE(loaded.channels.empty());
  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[0].task, 2u);  // timestamp-merged order
  EXPECT_EQ(loaded.events[1].task, 1u);
}

TEST(Recorder, V4RoundTripCarriesPerChannelStats) {
  // Channel 0 records cleanly; channel 1 overflows its 16-slot ring, so
  // the loaded per-channel table must attribute the drops to it alone.
  Recorder rec(2, 16);
  for (int i = 0; i < 5; ++i) {
    rec.channel(0).record(event_at(static_cast<double>(i), 100 + i));
  }
  for (int i = 0; i < 16 + 9; ++i) {
    rec.channel(1).record(event_at(static_cast<double>(i), 200 + i));
  }
  rec.drain();

  const std::string path = temp_path("dvfs_v4_stats.dfr");
  rec.write_file(path);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.header.version, dfr::kFormatVersion);
  ASSERT_EQ(loaded.channels.size(), 2u);
  EXPECT_EQ(loaded.channels[0].recorded, 5u);
  EXPECT_EQ(loaded.channels[0].dropped, 0u);
  EXPECT_EQ(loaded.channels[1].recorded, 16u);
  EXPECT_EQ(loaded.channels[1].dropped, 9u);
  // The header aggregate stays the cross-channel sum.
  EXPECT_EQ(loaded.header.dropped, 9u);
  EXPECT_EQ(loaded.events.size(), 21u);
}

// The checked-in v1 fixture (recorded before the v2 bump) must keep
// loading and replaying unchanged — the compatibility promise users with
// archived recordings rely on.
TEST(Recorder, V1FixtureLoadsAndReplays) {
  const std::string path = std::string(DVFS_RECORDINGS_DIR) + "/v1_lmc.dfr";
  const Recording loaded = Recording::load(path);
  EXPECT_EQ(loaded.header.version, 1u);
  EXPECT_GT(loaded.events.size(), 0u);
  ASSERT_TRUE(loaded.first_of(dfr::EventType::kRunBegin).has_value());
  ASSERT_NE(loaded.metrics, nullptr);
  EXPECT_TRUE(loaded.epilogue_note.empty());
  TraceWriter writer;
  replay_to_trace(loaded, writer);
  EXPECT_GT(writer.size(), 0u);
}

TEST(Recorder, ConcurrentProducersDrainCleanly) {
  constexpr std::size_t kPerThread = 5000;
  Recorder rec(2, 1 << 14);
  std::thread a([&] {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      rec.channel(0).record(event_at(static_cast<double>(i), i));
    }
  });
  std::thread b([&] {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      rec.channel(1).record(event_at(static_cast<double>(i) + 0.5,
                                     kPerThread + i));
    }
  });
  a.join();
  b.join();
  rec.drain();
  ASSERT_EQ(rec.events().size(), 2 * kPerThread);
  for (std::size_t i = 1; i < rec.events().size(); ++i) {
    EXPECT_LE(rec.events()[i - 1].time_s, rec.events()[i].time_s);
  }
}

// The headline determinism guarantee behind `dvfs_inspect replay`: the
// tools replay a run's in-memory drain into `--trace-out`; replaying the
// `.dfr` file written from the same drain must yield the identical trace
// document.
TEST(Replay, DrainAndLoadedFileReplayIdentically) {
  constexpr std::size_t kCores = 3;
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  workload::JudgegirlConfig cfg;
  cfg.duration = 40.0;
  cfg.non_interactive_tasks = 30;
  cfg.interactive_tasks = 120;
  const workload::Trace trace = workload::generate_judgegirl(cfg, 11);

  governors::LmcPolicy policy(std::vector<core::CostTable>(
      kCores, core::CostTable(model, core::CostParams{0.4, 0.1})));
  sim::Engine engine(std::vector<core::EnergyModel>(kCores, model),
                     sim::ContentionModel::none());
  Recorder rec(1, 1 << 20);
  engine.set_recorder(&rec.channel(0));
  (void)engine.run(trace, policy);
  rec.drain();
  EXPECT_EQ(rec.events_dropped(), 0u);

  Recording drained;
  drained.events = rec.events();
  TraceWriter in_memory;
  replay_to_trace(drained, in_memory);
  EXPECT_GT(in_memory.size(), kCores + 1);  // more than the track names

  const std::string path = temp_path("dvfs_replay.dfr");
  rec.write_file(path);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());

  TraceWriter replayed;
  replay_to_trace(loaded, replayed);
  ASSERT_EQ(replayed.size(), in_memory.size());
  EXPECT_EQ(replayed.to_json().dump(-1), in_memory.to_json().dump(-1));
}

TEST(Replay, RequiresEmptyWriter) {
  Recorder rec(1, 16);
  rec.channel(0).record(
      {.type = static_cast<std::uint8_t>(dfr::EventType::kRunBegin),
       .core = 1});
  rec.drain();
  Recording recording;
  recording.events = rec.events();
  TraceWriter writer;
  writer.counter("busy_cores", 0.0, 0.0);
  EXPECT_THROW(replay_to_trace(recording, writer), PreconditionError);
}

}  // namespace
}  // namespace dvfs::obs
