/// Request-tracing tests: timeline reconstruction from synthetic and real
/// `.dfr` v4 event streams, the telescoping-durations invariant (stage
/// durations sum to end-to-end latency), steal hops from older
/// recordings, live timelines agreeing with recorded ones, and
/// per-bucket exemplar slots. The service integration tests run under
/// TSan in CI; the live store itself is tested in test_task_table.cpp.
#include "dvfs/obs/reqtrace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dvfs/core/energy_model.h"
#include "dvfs/obs/health.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/svc/service.h"
#include "eventually.h"

namespace dvfs::obs::reqtrace {
namespace {

using dfr::Event;
using dfr::EventType;

Step step(Stage stage, double t, std::uint32_t a = 0, std::uint32_t b = 0) {
  return Step{stage, t, a, b};
}

TEST(ReqTrace, SortStepsBreaksTimestampTiesByStageOrder) {
  // A placement and the run-queue insertion share an instant, as do a
  // steal hop and its re-enqueue; the Stage enum order is the causal one.
  std::vector<Step> steps{
      step(Stage::kShardQueue, 2.0), step(Stage::kPlacement, 2.0),
      step(Stage::kRingEnqueue, 1.0), step(Stage::kStealHop, 1.0),
      step(Stage::kSubmitRecv, 0.5)};
  sort_steps(steps);
  ASSERT_EQ(steps.size(), 5u);
  EXPECT_EQ(steps[0].stage, Stage::kSubmitRecv);
  EXPECT_EQ(steps[1].stage, Stage::kStealHop);
  EXPECT_EQ(steps[2].stage, Stage::kRingEnqueue);
  EXPECT_EQ(steps[3].stage, Stage::kPlacement);
  EXPECT_EQ(steps[4].stage, Stage::kShardQueue);
}

TEST(ReqTrace, DurationsAttributeEachGapToItsClosingStage) {
  Timeline t;
  t.task = 7;
  t.trace_id = 0xabcd;
  t.steps = {step(Stage::kSubmitRecv, 1.0),
             step(Stage::kRingEnqueue, 1.5, 0),
             step(Stage::kRingDequeue, 3.5, 0),
             step(Stage::kPlacement, 4.0, 2, 1),
             step(Stage::kShardQueue, 4.0, 2, 3),
             step(Stage::kExecBegin, 6.0, 2),
             step(Stage::kExecEnd, 9.0, 2)};
  const Durations d = t.durations();
  EXPECT_DOUBLE_EQ(d.ingress_s, 0.5);
  EXPECT_DOUBLE_EQ(d.ring_wait_s, 2.0);
  EXPECT_DOUBLE_EQ(d.placement_s, 0.5);
  EXPECT_DOUBLE_EQ(d.steal_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(d.queue_wait_s, 2.0);
  EXPECT_DOUBLE_EQ(d.exec_s, 3.0);
  // The telescoping invariant: stage gaps tile the timeline exactly.
  EXPECT_DOUBLE_EQ(d.total(), t.end_to_end_s());
  EXPECT_FALSE(t.stolen());
  EXPECT_STREQ(t.admission_critical_stage(), "ring_wait");
}

TEST(ReqTrace, StealHopGapCountsAsStealWait) {
  Timeline t;
  t.steps = {step(Stage::kSubmitRecv, 0.0),
             step(Stage::kRingEnqueue, 0.1, 0),
             step(Stage::kRingDequeue, 0.2, 0),
             step(Stage::kPlacement, 0.3, 0, 0),
             step(Stage::kShardQueue, 0.3, 0, 1),
             step(Stage::kStealHop, 1.3, 0, 1),
             step(Stage::kRingEnqueue, 1.3, 1),
             step(Stage::kRingDequeue, 1.4, 1),
             step(Stage::kPlacement, 1.5, 3, 2),
             step(Stage::kShardQueue, 1.5, 3, 1)};
  sort_steps(t.steps);
  EXPECT_TRUE(t.stolen());
  EXPECT_EQ(t.hops(), 1u);
  const Durations d = t.durations();
  EXPECT_DOUBLE_EQ(d.steal_wait_s, 1.0);  // victim queue 0.3 -> hop 1.3
  EXPECT_NEAR(d.total(), t.end_to_end_s(), 1e-12);
  EXPECT_STREQ(t.admission_critical_stage(), "steal_wait");
}

TEST(ReqTrace, BuildTimelinesReconstructsLifecyclesFromEvents) {
  // Two tasks: 42 runs the plain path, 43 migrates once. Events arrive
  // deliberately out of order; reconstruction must sort them.
  std::vector<Event> events;
  const auto push = [&events](EventType type, double t, std::uint64_t task,
                              std::uint64_t u0) {
    Event e;
    e.type = static_cast<std::uint8_t>(type);
    e.time_s = t;
    e.task = task;
    e.u0 = u0;
    events.push_back(e);
  };
  push(EventType::kExecEnd, 5.0, 42, 111);
  push(EventType::kSubmitRecv, 1.0, 42, 111);
  push(EventType::kRingEnqueue, 1.0, 42, 111);
  push(EventType::kRingDequeue, 2.0, 42, 111);
  {
    Event place;
    place.type = static_cast<std::uint8_t>(EventType::kPlacement);
    place.time_s = 2.5;
    place.task = 42;
    place.core = 3;
    place.rate_idx = 2;
    events.push_back(place);
  }
  {
    // kShardQueue carries the queue depth in u0, not the trace id; the
    // depth must not be mistaken for (or overwrite) the trace id.
    Event q;
    q.type = static_cast<std::uint8_t>(EventType::kShardQueue);
    q.time_s = 2.5;
    q.task = 42;
    q.core = 3;
    q.u0 = 17;
    events.push_back(q);
  }
  push(EventType::kExecBegin, 3.0, 42, 111);

  push(EventType::kSubmitRecv, 1.0, 43, 222);
  push(EventType::kRingEnqueue, 1.0, 43, 222);
  push(EventType::kRingDequeue, 1.5, 43, 222);
  {
    Event hop;
    hop.type = static_cast<std::uint8_t>(EventType::kStealHop);
    hop.time_s = 4.0;
    hop.task = 43;
    hop.u0 = 222;
    hop.aux = 0;   // from shard
    hop.core = 1;  // to shard
    events.push_back(hop);
  }
  // An untraced simulator task must not leak into the timelines.
  {
    Event place;
    place.type = static_cast<std::uint8_t>(EventType::kPlacement);
    place.time_s = 9.0;
    place.task = 99;
    events.push_back(place);
  }

  const std::vector<Timeline> timelines = build_timelines(events);
  ASSERT_EQ(timelines.size(), 2u);  // sorted by task id
  const Timeline& t42 = timelines[0];
  EXPECT_EQ(t42.task, 42u);
  EXPECT_EQ(t42.trace_id, 111u);
  ASSERT_EQ(t42.steps.size(), 7u);
  EXPECT_EQ(t42.steps.front().stage, Stage::kSubmitRecv);
  EXPECT_EQ(t42.steps.back().stage, Stage::kExecEnd);
  EXPECT_FALSE(t42.stolen());
  // Placement detail survives: core 3, rate 2; queue depth 17.
  EXPECT_EQ(t42.steps[3].stage, Stage::kPlacement);
  EXPECT_EQ(t42.steps[3].a, 3u);
  EXPECT_EQ(t42.steps[3].b, 2u);
  EXPECT_EQ(t42.steps[4].stage, Stage::kShardQueue);
  EXPECT_EQ(t42.steps[4].b, 17u);
  EXPECT_NEAR(t42.durations().total(), t42.end_to_end_s(), 1e-12);

  const Timeline& t43 = timelines[1];
  EXPECT_EQ(t43.trace_id, 222u);
  EXPECT_TRUE(t43.stolen());
  EXPECT_EQ(t43.hops(), 1u);
}

TEST(ReqTrace, BuildTimelinesIgnoresPreV4Streams) {
  // A simulator recording has placements but no span events: no task
  // qualifies, so no bogus single-step timelines appear.
  std::vector<Event> events;
  Event place;
  place.type = static_cast<std::uint8_t>(EventType::kPlacement);
  place.time_s = 1.0;
  place.task = 1;
  events.push_back(place);
  Event arrival;
  arrival.type = static_cast<std::uint8_t>(EventType::kTaskArrival);
  arrival.time_s = 0.5;
  arrival.task = 1;
  events.push_back(arrival);
  EXPECT_TRUE(build_timelines(events).empty());
}

TEST(ReqTrace, TimelineJsonCarriesStepsDurationsAndHexTraceId) {
  Timeline t;
  t.task = 5;
  t.trace_id = 0xdeadbeefull;
  t.steps = {step(Stage::kSubmitRecv, 0.0),
             step(Stage::kRingEnqueue, 0.25, 1),
             step(Stage::kRingDequeue, 0.5, 1)};
  const Json j = timeline_json(t);
  EXPECT_EQ(j.at("task").as_double(), 5.0);
  EXPECT_EQ(j.at("trace_id").as_string(), "00000000deadbeef");
  EXPECT_FALSE(j.at("stolen").as_bool());
  EXPECT_EQ(j.at("steps").as_array().size(), 3u);
  const Json& second = j.at("steps").as_array()[1];
  EXPECT_EQ(second.at("stage").as_string(), "ring_enqueue");
  EXPECT_DOUBLE_EQ(second.at("dt_s").as_double(), 0.25);
  EXPECT_EQ(second.at("shard").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(j.at("durations").at("total_s").as_double(), 0.5);
  // The rendering survives a parse round-trip (what the HTTP client and
  // the CI smoke test actually consume).
  const Json parsed = Json::parse(j.dump(-1));
  EXPECT_EQ(parsed.at("trace_id").as_string(), "00000000deadbeef");
}

// Every stage, a steal hop included, rendered byte for byte: the JSON
// that GET /tasks/{id}/trace serves must not move when stages change.
TEST(ReqTrace, TimelineJsonMatchesGolden) {
  Timeline t;
  t.task = 9;
  t.trace_id = 0x0123456789abcdefull;
  t.steps = {step(Stage::kSubmitRecv, 0.5),
             step(Stage::kRingEnqueue, 0.75, 0),
             step(Stage::kRingDequeue, 1.0, 0),
             step(Stage::kPlacement, 1.25, 1, 3),
             step(Stage::kShardQueue, 1.25, 1, 2),
             step(Stage::kStealHop, 2.0, 0, 1),
             step(Stage::kRingEnqueue, 2.0, 1),
             step(Stage::kRingDequeue, 2.5, 1),
             step(Stage::kPlacement, 3.0, 5, 4),
             step(Stage::kShardQueue, 3.0, 5, 1),
             step(Stage::kExecBegin, 3.5, 5),
             step(Stage::kExecEnd, 4.25, 5)};
  EXPECT_EQ(timeline_json(t).dump(-1),
            R"({"begin_s":0.5,"critical_stage":"ring_wait",)"
            R"("durations":{"exec_s":0.75,"ingress_s":0.25,"placement_s":0.75,)"
            R"("queue_wait_s":0.5,"ring_wait_s":0.75,"steal_wait_s":0.75,)"
            R"("total_s":3.75},"end_s":4.25,"end_to_end_s":3.75,"hops":1,)"
            R"("steps":[{"dt_s":0,"stage":"submit_recv","t_s":0.5},)"
            R"({"dt_s":0.25,"shard":0,"stage":"ring_enqueue","t_s":0.75},)"
            R"({"dt_s":0.25,"shard":0,"stage":"ring_dequeue","t_s":1},)"
            R"({"core":1,"dt_s":0.25,"rate_idx":3,"stage":"placement",)"
            R"("t_s":1.25},{"core":1,"depth":2,"dt_s":0,"stage":"shard_queue",)"
            R"("t_s":1.25},{"dt_s":0.75,"from_shard":0,"stage":"steal_hop",)"
            R"("t_s":2,"to_shard":1},{"dt_s":0,"shard":1,)"
            R"("stage":"ring_enqueue","t_s":2},{"dt_s":0.5,"shard":1,)"
            R"("stage":"ring_dequeue","t_s":2.5},{"core":5,"dt_s":0.5,)"
            R"("rate_idx":4,"stage":"placement","t_s":3},{"core":5,"depth":1,)"
            R"("dt_s":0,"stage":"shard_queue","t_s":3},{"core":5,"dt_s":0.5,)"
            R"("stage":"exec_begin","t_s":3.5},{"core":5,"dt_s":0.75,)"
            R"("stage":"exec_end","t_s":4.25}],"stolen":true,"task":9,)"
            R"("trace_id":"0123456789abcdef"})");
}

// The steps of one placement spelled out field by field: details where
// the stage rows name them, times through ns_to_s.
TEST(ReqTrace, PlacementStepsSpellOutOnePlacement) {
  const Placement p{.recv_ns = 1'000,
              .enqueue_ns = 3'000,
              .dequeue_ns = 7'000,
              .place_ns = 15'000,
              .shard = 1,
              .core = 6,
              .rate_idx = 2,
              .depth = 70'000};
  const auto local = placement_steps(p);
  const Step want[] = {step(Stage::kSubmitRecv, 1e-6),
                       step(Stage::kRingEnqueue, 3e-6, 1),
                       step(Stage::kRingDequeue, 7e-6, 1),
                       step(Stage::kPlacement, 15e-6, 6, 2),
                       step(Stage::kShardQueue, 15e-6, 6, 70'000)};
  ASSERT_EQ(local.size(), std::size(want));
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(local[i], want[i]) << to_string(want[i].stage);
  }
  EXPECT_EQ(exec_step(Stage::kExecBegin, 6, 20'000),
            step(Stage::kExecBegin, 20e-6, 6));
  EXPECT_EQ(exec_step(Stage::kExecEnd, 6, 25'000),
            step(Stage::kExecEnd, 25e-6, 6));
  EXPECT_THROW((void)exec_step(Stage::kPlacement, 6, 0), std::exception);
}

// One step per stage, with the details the `.dfr` format documents for
// its event: encoding then decoding gives the step back, and the event
// carries the fields the format promises.
TEST(ReqTrace, StepsRoundTripThroughEvents) {
  const Step steps[] = {step(Stage::kSubmitRecv, 0.5),
                        step(Stage::kStealHop, 1.0, 2, 3),
                        step(Stage::kRingEnqueue, 1.5, 4),
                        step(Stage::kRingDequeue, 2.0, 5),
                        step(Stage::kPlacement, 2.5, 6, 7),
                        step(Stage::kShardQueue, 3.0, 8, 70000),
                        step(Stage::kExecBegin, 3.5, 9),
                        step(Stage::kExecEnd, 4.0, 10)};
  ASSERT_EQ(std::size(steps), kStages.size());
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    const Step& s = steps[i];
    ASSERT_EQ(static_cast<std::size_t>(s.stage), i);
    const Event e = to_event(42, 0xabc, s);
    EXPECT_EQ(e.task, 42u);
    EXPECT_EQ(e.time_s, s.t_s);
    const std::optional<Step> back = to_step(e);
    ASSERT_TRUE(back.has_value()) << to_string(s.stage);
    EXPECT_EQ(*back, s) << to_string(s.stage);
  }
  const Event hop = to_event(42, 0xabc, steps[1]);
  EXPECT_EQ(hop.type, static_cast<std::uint8_t>(EventType::kStealHop));
  EXPECT_EQ(hop.aux, 2u);   // from shard
  EXPECT_EQ(hop.core, 3u);  // to shard
  EXPECT_EQ(hop.u0, 0xabcu);
  const Event queued = to_event(42, 0xabc, steps[5]);
  EXPECT_EQ(queued.type, static_cast<std::uint8_t>(EventType::kShardQueue));
  EXPECT_EQ(queued.core, 8u);
  EXPECT_EQ(queued.u0, 70000u);  // depth, not the trace id
  const Event end = to_event(42, 0xabc, steps[7]);
  EXPECT_EQ(end.type, static_cast<std::uint8_t>(EventType::kExecEnd));
  EXPECT_EQ(end.core, 10u);
  EXPECT_EQ(end.u0, 0xabcu);

  // Every event type that is not a stage decodes to nothing; kPlacement,
  // the decision record, doubles as the placement stage.
  for (unsigned type = 0; type <= 255; ++type) {
    Event e;
    e.type = static_cast<std::uint8_t>(type);
    const auto t = static_cast<EventType>(type);
    const bool stage =
        t == EventType::kPlacement ||
        (t >= EventType::kSubmitRecv && t <= EventType::kExecEnd);
    EXPECT_EQ(to_step(e).has_value(), stage) << dfr::to_string(t);
  }
  Event place;
  place.type = static_cast<std::uint8_t>(EventType::kPlacement);
  place.core = 3;
  place.rate_idx = 2;
  place.u0 = 123456;  // estimated cycles, not a step detail
  EXPECT_EQ(to_step(place), step(Stage::kPlacement, 0.0, 3, 2));
}

TEST(ReqTrace, TraceIdHexRoundTrips) {
  EXPECT_EQ(trace_id_hex(0), "0000000000000000");
  EXPECT_EQ(trace_id_hex(0xffffffffffffffffull), "ffffffffffffffff");
  for (const std::uint64_t id : {std::uint64_t{1}, std::uint64_t{0xabcd},
                                 std::uint64_t{0x123456789abcdef0}}) {
    const auto parsed = parse_trace_id(trace_id_hex(id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_EQ(parse_trace_id("0xabc"), 0xabcu);
  EXPECT_FALSE(parse_trace_id("").has_value());
  EXPECT_FALSE(parse_trace_id("xyz").has_value());
  EXPECT_FALSE(parse_trace_id("00000000000000001").has_value());  // 17 digits
}

TEST(ExemplarSeries, TracksTheLatestSamplePerBucket) {
  ExemplarSeries series;
  EXPECT_FALSE(series.bucket(0).has_value());  // never written
  series.observe(5, 0x111, 1.0);               // bucket [4, 8) = index 3
  series.observe(100, 0x222, 2.0);             // bucket index 7
  const auto b3 = series.bucket(Histogram::bucket_index(5));
  ASSERT_TRUE(b3.has_value());
  EXPECT_EQ(b3->trace_id, 0x111u);
  EXPECT_EQ(b3->value, 5u);
  EXPECT_DOUBLE_EQ(b3->t_s, 1.0);
  // A later observation in the same bucket wins.
  series.observe(7, 0x333, 3.0);
  EXPECT_EQ(series.bucket(Histogram::bucket_index(7))->trace_id, 0x333u);
  EXPECT_EQ(series.bucket(Histogram::bucket_index(100))->trace_id, 0x222u);
  EXPECT_FALSE(series.bucket(Histogram::kNumBuckets).has_value());
}

TEST(ExemplarStore, FindsOnlyRegisteredSeries) {
  ExemplarStore store;
  EXPECT_EQ(store.find("svc.admission.latency_us"), nullptr);
  ExemplarSeries& s = store.series("svc.admission.latency_us");
  s.observe(10, 0xabc, 0.5);
  const ExemplarSeries* found = store.find("svc.admission.latency_us");
  ASSERT_EQ(found, &s);
  ASSERT_TRUE(found->bucket(Histogram::bucket_index(10)).has_value());
  EXPECT_EQ(store.find("other"), nullptr);
}

// ------------------------------------------------------- service e2e

core::EnergyModel test_model() { return core::EnergyModel::icpp2014_table2(); }
constexpr core::CostParams kParams{0.4, 0.1};

using test::eventually;

// The headline acceptance gate: every task the service executed
// reconstructs — from the recorded event stream alone — to a full
// lifecycle whose per-stage durations sum to its end-to-end latency.
TEST(ReqTraceService, RecordedTimelinesTelescopeToEndToEnd) {
  obs::Registry registry;
  svc::ServiceOptions opts;
  opts.shards = 2;
  opts.cores = 4;
  opts.time_scale = 1e-6;  // virtual execution: exec spans exist
  opts.registry = &registry;
  svc::SchedulingService svc(test_model(), kParams, opts);
  Recorder recorder(2);
  svc.set_recorder(&recorder);
  svc.start();
  std::vector<std::uint64_t> tickets(41, 0);
  for (core::TaskId id = 1; id <= 40; ++id) {
    const auto ticket = svc.submit(id, 1'000'000);
    ASSERT_TRUE(ticket.accepted);
    ASSERT_NE(ticket.trace, 0u);
    tickets[id] = ticket.trace;
  }
  ASSERT_TRUE(eventually([&] { return svc.completed() == 40u; }))
      << "completed " << svc.completed() << "/40";
  svc.drain();
  recorder.drain();
  ASSERT_EQ(recorder.events_dropped(), 0u);

  const std::vector<Timeline> timelines = build_timelines(recorder.events());
  ASSERT_EQ(timelines.size(), 40u);
  for (const Timeline& t : timelines) {
    ASSERT_GE(t.task, 1u);
    ASSERT_LE(t.task, 40u);
    // Full lifecycle: recv, enqueue, dequeue, placement, shard queue,
    // exec begin, exec end.
    ASSERT_EQ(t.steps.size(), 7u) << "task " << t.task;
    EXPECT_EQ(t.steps.front().stage, Stage::kSubmitRecv);
    EXPECT_EQ(t.steps.back().stage, Stage::kExecEnd);
    EXPECT_EQ(t.hops(), 0u);
    // Trace continuity: the id minted at ingress is the one recorded.
    EXPECT_EQ(t.trace_id, tickets[t.task]) << "task " << t.task;
    // The telescoping gate, on real timestamps.
    EXPECT_NEAR(t.durations().total(), t.end_to_end_s(), 1e-9)
        << "task " << t.task;
    // The live store agrees with the recording.
    const auto live = svc.traces().get(t.task);
    ASSERT_TRUE(live.has_value());
    EXPECT_EQ(live->trace_id, t.trace_id);
    EXPECT_EQ(live->steps.size(), t.steps.size());
  }
}

// One recording, one time base: a health sample taken between two
// submissions sits between their receipt instants, though the monitor
// was built well before the service started.
TEST(ReqTraceService, HealthSampleSharesTheShardTimeBase) {
  obs::Registry registry;
  svc::ServiceOptions opts;
  opts.shards = 1;
  opts.cores = 2;
  opts.registry = &registry;
  svc::SchedulingService svc(test_model(), kParams, opts);
  Recorder recorder(1);
  svc.set_recorder(&recorder);
  health::HealthMonitor monitor(registry, health::builtin_rules());
  monitor.set_channel(&recorder.add_channel(Recorder::kDefaultCapacity));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  svc.start();
  ASSERT_TRUE(svc.submit(1, 1'000'000).accepted);
  monitor.tick();
  ASSERT_TRUE(svc.submit(2, 1'000'000).accepted);
  svc.drain();
  recorder.drain();
  ASSERT_EQ(recorder.events_dropped(), 0u);

  const std::vector<Timeline> timelines = build_timelines(recorder.events());
  ASSERT_EQ(timelines.size(), 2u);
  double recv_s[3] = {};
  for (const Timeline& t : timelines) {
    ASSERT_LE(t.task, 2u);
    ASSERT_EQ(t.steps.front().stage, Stage::kSubmitRecv);
    recv_s[t.task] = t.steps.front().t_s;
  }
  std::size_t samples = 0;
  for (const Event& e : recorder.events()) {
    if (e.type != static_cast<std::uint8_t>(EventType::kHealthSample)) {
      continue;
    }
    ++samples;
    EXPECT_LE(recv_s[1], e.time_s);
    EXPECT_LE(e.time_s, recv_s[2]);
  }
  EXPECT_GT(samples, 0u);
}

// The two copies of every timeline agree step for step: what the task
// table serves live equals what the recording rebuilds, on both shards.
TEST(ReqTraceService, LiveTimelinesEqualRecordedOnes) {
  obs::Registry registry;
  svc::ServiceOptions opts;
  opts.shards = 2;
  opts.cores = 4;
  // Each task runs for tens of wall milliseconds, so queues form.
  opts.time_scale = 10.0;
  opts.registry = &registry;
  svc::SchedulingService svc(test_model(), kParams, opts);
  Recorder recorder(2, 1 << 16);
  svc.set_recorder(&recorder);
  svc.start();
  constexpr std::size_t kTasks = 24;
  std::size_t per_shard[2] = {0, 0};
  for (core::TaskId id = 1; id <= kTasks; ++id) {
    const svc::SchedulingService::Ticket ticket = svc.submit(id, 5'000'000);
    ASSERT_TRUE(ticket.accepted);
    ++per_shard[ticket.shard];
  }
  EXPECT_GT(per_shard[0], 0u);
  EXPECT_GT(per_shard[1], 0u);
  ASSERT_TRUE(eventually([&] { return svc.completed() == kTasks; }, 30000))
      << "completed " << svc.completed() << "/" << kTasks;
  svc.drain();
  recorder.drain();
  ASSERT_EQ(recorder.events_dropped(), 0u);

  const std::vector<Timeline> recorded = build_timelines(recorder.events());
  ASSERT_EQ(recorded.size(), kTasks);
  for (const Timeline& t : recorded) {
    const auto live = svc.traces().get(t.task);
    ASSERT_TRUE(live.has_value()) << "task " << t.task;
    EXPECT_EQ(live->trace_id, t.trace_id) << "task " << t.task;
    ASSERT_EQ(live->steps.size(), t.steps.size()) << "task " << t.task;
    for (std::size_t i = 0; i < t.steps.size(); ++i) {
      const Step& want = t.steps[i];
      const Step& got = live->steps[i];
      EXPECT_EQ(got.stage, want.stage) << "task " << t.task << " step " << i;
      EXPECT_EQ(got.t_s, want.t_s) << "task " << t.task << " step " << i;
      EXPECT_EQ(got.a, want.a) << "task " << t.task << " step " << i;
      EXPECT_EQ(got.b, want.b) << "task " << t.task << " step " << i;
    }
    EXPECT_EQ(t.steps.back().stage, Stage::kExecEnd) << "task " << t.task;
    EXPECT_EQ(t.hops(), 0u) << "task " << t.task;
  }
}

}  // namespace
}  // namespace dvfs::obs::reqtrace
