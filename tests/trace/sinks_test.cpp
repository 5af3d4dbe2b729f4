#include "trace/sinks.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "san/simulator.hpp"
#include "stats/distribution.hpp"
#include "testing/json.hpp"

namespace vcpusim::trace {
namespace {

using san::TraceCategory;
using san::TraceEvent;
using vcpusim::testing::parse_json;

TraceEvent fire_event(double t, std::uint64_t seq, std::string_view name,
                      std::int64_t case_index = 0) {
  return TraceEvent{TraceCategory::kFire, t, seq, name, case_index, 0, {}};
}

TEST(RingBufferSink, RetainsOwnedCopies) {
  RingBufferSink sink;
  {
    const std::string transient = "Model->Act";
    sink.on_event(fire_event(1.5, 3, transient, 2));
  }  // the emitter's string is gone; the sink must have copied
  ASSERT_EQ(sink.entries().size(), 1U);
  const auto& e = sink.entries().front();
  EXPECT_EQ(e.name, "Model->Act");
  EXPECT_EQ(e.category, TraceCategory::kFire);
  EXPECT_DOUBLE_EQ(e.time, 1.5);
  EXPECT_EQ(e.seq, 3U);
  EXPECT_EQ(e.a, 2);
}

TEST(RingBufferSink, BoundedCapacityKeepsTail) {
  RingBufferSink sink(3);
  for (int i = 0; i < 5; ++i) {
    sink.on_event(fire_event(static_cast<double>(i), i, "a", i));
  }
  EXPECT_EQ(sink.total_events(), 5U);
  EXPECT_EQ(sink.dropped(), 2U);
  ASSERT_EQ(sink.entries().size(), 3U);
  EXPECT_EQ(sink.entries().front().a, 2);
  EXPECT_EQ(sink.entries().back().a, 4);
}

TEST(RingBufferSink, CountByCategoryAndClear) {
  RingBufferSink sink;
  sink.on_event(fire_event(0, 0, "a"));
  sink.on_event(TraceEvent{TraceCategory::kScheduler, 0, 0, "sched", 1, 0,
                           "in"});
  EXPECT_EQ(sink.count(TraceCategory::kFire), 1U);
  EXPECT_EQ(sink.count(TraceCategory::kScheduler), 1U);
  EXPECT_EQ(sink.count(TraceCategory::kMarking), 0U);
  sink.clear();
  EXPECT_EQ(sink.total_events(), 0U);
  EXPECT_TRUE(sink.entries().empty());
}

TEST(RingBufferSink, FireOnlyRecordsEveryCompletion) {
  san::ComposedModel model("M");
  auto& sub = model.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"inc",
                         [count](san::GateContext&) { count->mut() += 1; },
                         san::access({}, {count})});
  san::SimulatorConfig config;
  config.end_time = 10.0;
  san::Simulator sim(config);
  sim.set_model(model);
  RingBufferSink sink(0, san::trace_bit(TraceCategory::kFire));
  sim.set_trace(&sink);
  const auto stats = sim.run();
  ASSERT_EQ(sink.entries().size(), stats.events);
  EXPECT_EQ(sink.count(TraceCategory::kFire), stats.events);
  EXPECT_EQ(sink.dropped(), 0U);
  EXPECT_EQ(sink.entries().front().name, "S->clock");
  EXPECT_EQ(sink.entries().front().time, 1.0);
  EXPECT_EQ(sink.entries().back().time, 10.0);
}

TEST(RingBufferSink, ReplayForwardsInOrderHonoringFilter) {
  RingBufferSink source;
  source.on_event(fire_event(1, 0, "a"));
  source.on_event(TraceEvent{TraceCategory::kMarking, 1, 0, "p", 0, 0, "3"});
  source.on_event(fire_event(2, 1, "b"));

  RingBufferSink fires_only(0, san::trace_bit(TraceCategory::kFire));
  source.replay_into(fires_only);
  ASSERT_EQ(fires_only.entries().size(), 2U);
  EXPECT_EQ(fires_only.entries()[0].name, "a");
  EXPECT_EQ(fires_only.entries()[1].name, "b");
}

TEST(RingBufferSink, CategoryMaskPrefilters) {
  RingBufferSink sink(0, san::trace_bit(TraceCategory::kScheduler));
  EXPECT_TRUE(sink.wants(TraceCategory::kScheduler));
  EXPECT_FALSE(sink.wants(TraceCategory::kFire));
  EXPECT_FALSE(sink.wants(TraceCategory::kMarking));
}

TEST(JsonlSink, EveryLineIsValidJsonWithKindField) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.on_event(fire_event(1.25, 0, "M->A", 1));
  sink.on_event(TraceEvent{TraceCategory::kEnabling, 1.25, 0, "M->B", 1, 0,
                           {}});
  sink.on_event(TraceEvent{TraceCategory::kMarking, 1.25, 0, "M->P", 0, 0,
                           "7"});
  sink.on_event(TraceEvent{TraceCategory::kScheduler, 2.0, 1, "sched", 3, 1,
                           "in"});
  sink.on_event(TraceEvent{TraceCategory::kMarker, 0.0, 0, "replication", 4,
                           0, {}});
  sink.finish();

  std::istringstream lines(os.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const auto doc = parse_json(line);
    EXPECT_TRUE(doc.has("kind")) << line;
    EXPECT_TRUE(doc.has("t")) << line;
    EXPECT_TRUE(doc.has("seq")) << line;
    ++count;
  }
  EXPECT_EQ(count, 5);
}

TEST(JsonlSink, LineFormatIsPinned) {
  EXPECT_EQ(JsonlSink::line(fire_event(1.5, 7, "M->A", 2)),
            R"({"kind":"fire","t":1.5,"seq":7,"activity":"M->A","case":2})");
  EXPECT_EQ(
      JsonlSink::line(TraceEvent{TraceCategory::kScheduler, 3.0, 9, "sched",
                                 2, -1, "out"}),
      R"({"kind":"sched","t":3,"seq":9,"op":"out","vcpu":2,"pcpu":-1})");
  EXPECT_EQ(
      JsonlSink::line(TraceEvent{TraceCategory::kMarking, 0.0, 0, "M->P", 0,
                                 0, "idle"}),
      R"({"kind":"marking","t":0,"seq":0,"place":"M->P","value":"idle"})");
}

TEST(JsonlSink, EscapesQuotesAndBackslashes) {
  const auto line = JsonlSink::line(TraceEvent{
      TraceCategory::kMarking, 0.0, 0, R"(P"x\y)", 0, 0, "v"});
  const auto doc = parse_json(line);
  EXPECT_EQ(doc.at("place").string, R"(P"x\y)");
}

TEST(JsonlSink, DoublesRoundTripExactly) {
  const double awkward = 0.1 + 0.2;  // not representable as "0.3"
  const auto line = JsonlSink::line(fire_event(awkward, 0, "a"));
  const auto doc = parse_json(line);
  EXPECT_EQ(doc.at("t").number, awkward);  // bit-exact via %.17g
}

TEST(ChromeTraceSink, EmitsValidTraceEventJson) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.on_event(fire_event(2.0, 0, "M->A", 1));
  sink.on_event(TraceEvent{TraceCategory::kScheduler, 3.0, 1, "sched", 0, 1,
                           "in"});
  sink.on_event(TraceEvent{TraceCategory::kMarking, 3.0, 1, "M->P", 0, 0,
                           "5"});
  sink.finish();

  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0].at("name").string, "M->A");
  EXPECT_EQ(events[0].at("ph").string, "i");
  EXPECT_DOUBLE_EQ(events[0].at("ts").number, 2000.0);  // 1 tick = 1ms
  EXPECT_EQ(events[1].at("cat").string, "sched");
  EXPECT_EQ(events[2].at("ph").string, "C");  // numeric marking -> counter
  EXPECT_DOUBLE_EQ(events[2].at("args").at("value").number, 5.0);
}

TEST(ChromeTraceSink, NonNumericMarkingsAreSkipped) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.on_event(TraceEvent{TraceCategory::kMarking, 1.0, 0, "M->P", 0, 0,
                           "<struct>"});
  sink.finish();
  const auto doc = parse_json(os.str());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST(ChromeTraceSink, FinishWithoutEventsIsValid) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.finish();
  const auto doc = parse_json(os.str());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST(MakeStreamSink, ConstructsKnownSinks) {
  std::ostringstream os;
  EXPECT_NE(make_stream_sink("jsonl", os), nullptr);
  EXPECT_NE(make_stream_sink("chrome", os), nullptr);
}

TEST(MakeStreamSink, UnknownNameListsValidSinks) {
  std::ostringstream os;
  try {
    make_stream_sink("csv", os);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("csv"), std::string::npos);
    for (const auto& name : stream_sink_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(ParseTraceCategories, ParsesListsAndAll) {
  EXPECT_EQ(parse_trace_categories("all"), san::kTraceAll);
  EXPECT_EQ(parse_trace_categories("fire"),
            san::trace_bit(TraceCategory::kFire));
  EXPECT_EQ(parse_trace_categories("fire,sched"),
            static_cast<std::uint8_t>(san::trace_bit(TraceCategory::kFire) |
                                      san::trace_bit(TraceCategory::kScheduler)));
  EXPECT_EQ(parse_trace_categories("enabling,marking,marker"),
            static_cast<std::uint8_t>(
                san::trace_bit(TraceCategory::kEnabling) |
                san::trace_bit(TraceCategory::kMarking) |
                san::trace_bit(TraceCategory::kMarker)));
}

TEST(ParseTraceCategories, RejectsUnknownAndEmpty) {
  EXPECT_THROW(parse_trace_categories("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_trace_categories(""), std::invalid_argument);
  try {
    parse_trace_categories("fire,bogus");
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("sched"), std::string::npos);  // lists valid names
  }
}

}  // namespace
}  // namespace vcpusim::trace
