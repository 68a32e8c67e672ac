// TelemetrySink / FleetTelemetry: the carry rule across producer attempts,
// series monotonicity, rate computation, and the fleet-total invariant the
// fig9 bench checks (sum of per-instance latest snapshots == fleet total).
// Concurrent stamping while observers read runs under TSan in CI.
#include "telemetry/sink.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace bigmap::telemetry {
namespace {

StatsSnapshot with_execs(u64 execs) {
  StatsSnapshot s;
  s.execs = execs;
  return s;
}

TEST(SinkTest, StampReflectsPublishedSnapshot) {
  TelemetrySink sink(3);
  StatsSnapshot in;
  in.kernel = "swar";
  in.execs = 100;
  in.interesting = 5;
  in.crashes = 2;
  in.queue_depth = 7;
  in.used_key = 1234;

  StatsSnapshot s = sink.stamp_at(in, 2000);
  EXPECT_EQ(s.instance_id, 3u);
  EXPECT_STREQ(s.kernel, "swar");
  EXPECT_EQ(s.relative_ms, 2000u);
  EXPECT_EQ(s.execs, 100u);
  EXPECT_EQ(s.interesting, 5u);
  EXPECT_EQ(s.crashes, 2u);
  EXPECT_EQ(s.queue_depth, 7u);
  EXPECT_EQ(s.used_key, 1234u);
  EXPECT_DOUBLE_EQ(s.execs_per_sec, 50.0);  // 100 execs / 2 s
}

TEST(SinkTest, PublishDoesNotAppendToSeries) {
  TelemetrySink sink;
  sink.publish(with_execs(5));
  EXPECT_EQ(sink.series_size(), 0u);
}

TEST(SinkTest, StampAppendsToSeries) {
  TelemetrySink sink;
  sink.stamp_at(with_execs(10), 100);
  sink.stamp_at(with_execs(20), 200);
  auto series = sink.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].execs, 10u);
  EXPECT_EQ(series[1].execs, 20u);
}

TEST(SinkTest, SeriesTimestampsAreMonotone) {
  TelemetrySink sink;
  sink.stamp_at({}, 500);
  sink.stamp_at({}, 100);  // clock skew / restart: clamped, never backwards
  sink.stamp_at({}, 700);
  auto series = sink.series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_LE(series[0].relative_ms, series[1].relative_ms);
  EXPECT_LE(series[1].relative_ms, series[2].relative_ms);
}

TEST(SinkTest, SeriesCountersAreMonotone) {
  TelemetrySink sink;
  for (u64 i = 0; i < 5; ++i) {
    StatsSnapshot s = with_execs(100 * (i + 1));
    s.crashes = i + 1;
    s.queue_depth = 10 - i;  // gauges may fall
    sink.stamp_at(s, i * 50);
  }
  // A producer that hands over less than was published (a stale heartbeat
  // sample) never pulls a counter down; a gauge follows it.
  StatsSnapshot stale = with_execs(50);
  stale.queue_depth = 1;
  sink.stamp_at(stale, 300);
  auto series = sink.series();
  ASSERT_EQ(series.size(), 6u);
  for (usize i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].execs, series[i - 1].execs);
    EXPECT_GE(series[i].crashes, series[i - 1].crashes);
  }
  EXPECT_EQ(series.back().execs, 500u);
  EXPECT_EQ(series.back().queue_depth, 1u);
}

TEST(SinkTest, InstantaneousRateUsesPreviousSnapshot) {
  TelemetrySink sink;
  sink.stamp_at(with_execs(100), 1000);  // lifetime: 100 execs in 1 s
  StatsSnapshot s = sink.stamp_at(with_execs(400), 2000);  // +300 in +1 s
  EXPECT_DOUBLE_EQ(s.execs_per_sec, 200.0);
  EXPECT_DOUBLE_EQ(s.execs_per_sec_now, 300.0);
}

TEST(SinkTest, FirstStampRateEqualsLifetimeRate) {
  TelemetrySink sink;
  StatsSnapshot s = sink.stamp_at(with_execs(50), 500);
  EXPECT_DOUBLE_EQ(s.execs_per_sec, s.execs_per_sec_now);
}

TEST(SinkTest, LatestFallsBackToPublishedWhenUnstamped) {
  TelemetrySink sink(9);
  EXPECT_EQ(sink.latest().instance_id, 9u);
  EXPECT_EQ(sink.latest().execs, 0u);
  sink.publish(with_execs(42));
  sink.restarts.add();
  StatsSnapshot s = sink.latest();
  EXPECT_EQ(s.instance_id, 9u);
  EXPECT_EQ(s.execs, 42u);
  EXPECT_EQ(s.restarts, 1u);
  // Once stamped, latest() is the last stamp.
  sink.stamp_at(with_execs(50), 10);
  sink.publish(with_execs(60));
  EXPECT_EQ(sink.latest().execs, 50u);
}

// A whole-process resume onto a fresh sink: the restored counts are the
// sink's history, but the lifetime rate counts only the execs it saw run.
TEST(SinkTest, RateAfterResumeCountsOnlyExecsThisSinkRan) {
  TelemetrySink sink;
  sink.begin_attempt(with_execs(4000));
  EXPECT_EQ(sink.latest().execs, 4000u);
  StatsSnapshot s = sink.stamp_at(with_execs(6000), 1000);
  EXPECT_EQ(s.execs, 6000u);
  EXPECT_DOUBLE_EQ(s.execs_per_sec, 2000.0);
}

// The carry rule on a surviving sink: an attempt that restored `at_start`
// from a checkpoint publishes carry + (now - at_start), so the execs the
// previous attempt ran past its last checkpoint stay counted, and a field
// the checkpoint does not persist (at_start 0) adds on top of the carry.
TEST(SinkTest, WarmRestartCarriesPublishedCounters) {
  TelemetrySink sink;
  sink.begin_attempt({});
  StatsSnapshot first = with_execs(1500);
  first.checkpoints_written = 3;
  first.queue_depth = 40;
  sink.stamp_at(first, 100);

  StatsSnapshot restored = with_execs(1024);  // the last checkpoint
  sink.begin_attempt(restored);
  EXPECT_EQ(sink.latest().execs, 1500u);  // nothing moves at the restart
  StatsSnapshot second = with_execs(2024);
  second.checkpoints_written = 1;
  second.checkpoints_loaded = 1;
  second.queue_depth = 12;
  StatsSnapshot s = sink.stamp_at(second, 200);
  EXPECT_EQ(s.execs, 1500u + (2024u - 1024u));
  EXPECT_EQ(s.checkpoints_written, 4u);
  EXPECT_EQ(s.checkpoints_loaded, 1u);
  EXPECT_EQ(s.queue_depth, 12u);  // gauges are not carried
  // Every exec ran in this sink's lifetime.
  EXPECT_DOUBLE_EQ(s.execs_per_sec, 2500.0 * 1000.0 / 200.0);
}

// A cold restart on a surviving sink (no checkpoint store): at_start is 0,
// so the new attempt's counts add to everything published before.
TEST(SinkTest, ColdRestartAddsToPublishedCounters) {
  TelemetrySink sink;
  sink.begin_attempt({});
  sink.stamp_at(with_execs(700), 100);
  sink.begin_attempt({});
  EXPECT_EQ(sink.stamp_at(with_execs(300), 200).execs, 1000u);
}

TEST(SinkTest, ConcurrentStampingAndReadingStaysMonotone) {
  constexpr u64 kStamps = 2000;
  TelemetrySink sink;
  std::thread producer([&sink] {
    sink.begin_attempt({});
    for (u64 i = 1; i <= kStamps; ++i) sink.stamp(with_execs(i * 10));
  });
  std::vector<std::thread> observers;
  for (int t = 0; t < 3; ++t) {
    observers.emplace_back([&sink] {
      u64 last = 0;
      for (int i = 0; i < 500; ++i) {
        const u64 now = sink.latest().execs;
        EXPECT_GE(now, last);
        last = now;
        (void)sink.series_size();
      }
    });
  }
  producer.join();
  for (auto& o : observers) o.join();
  EXPECT_EQ(sink.latest().execs, kStamps * 10);
  EXPECT_EQ(sink.series_size(), kStamps);
}

TEST(FleetTest, InstanceSinksCarryTheirIds) {
  FleetTelemetry fleet(3);
  EXPECT_EQ(fleet.num_instances(), 3u);
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet.instance(i).instance_id(), i);
  }
}

TEST(FleetTest, FleetTotalSumsInstanceLatest) {
  FleetTelemetry fleet(3);
  for (u32 i = 0; i < 3; ++i) {
    StatsSnapshot s = with_execs((i + 1) * 100);
    s.crashes = i;
    s.queue_depth = 10;
    fleet.instance(i).stamp_at(s, 100 * (i + 1));
  }
  StatsSnapshot total = fleet.fleet_total();
  EXPECT_EQ(total.instance_id, 0xFFFFFFFFu);
  EXPECT_EQ(total.execs, 600u);
  EXPECT_EQ(total.crashes, 3u);
  EXPECT_EQ(total.queue_depth, 30u);  // gauges sum across the fleet
  EXPECT_EQ(total.relative_ms, 300u);
}

// Every field of the table gets a distinct value per instance; the fleet
// total must be the sum of each, so a field added to the table is summed
// without touching fleet_total.
TEST(FleetTest, FleetTotalSumsEveryTableField) {
  FleetTelemetry fleet(2);
  for (u32 i = 0; i < 2; ++i) {
    StatsSnapshot s;
    u64 v = 1 + i * 1000;
    for_each_field([&v](const char*, FieldKind, u64& f) { f = v++; }, s);
    fleet.instance(i).stamp_at(s, 10);
  }
  const StatsSnapshot total = fleet.fleet_total();
  const StatsSnapshot a = fleet.instance(0).latest();
  const StatsSnapshot b = fleet.instance(1).latest();
  int fields = 0;
  for_each_field(
      [&fields](const char* name, FieldKind, u64 t, u64 x, u64 y) {
        EXPECT_EQ(t, x + y) << name;
        EXPECT_NE(x, y) << name;
        ++fields;
      },
      total, a, b);
  EXPECT_EQ(fields, 28);
}

TEST(FleetTest, FleetTotalMatchesSumOfLatestSnapshots) {
  // The fig9 acceptance invariant: summed per-instance plot_data execs
  // (each instance's last stamped snapshot) equal the fleet total.
  FleetTelemetry fleet(4);
  for (u32 i = 0; i < 4; ++i) {
    fleet.instance(i).stamp(with_execs(1000 + i * 37));
  }
  u64 plot_sum = 0;
  for (u32 i = 0; i < 4; ++i) plot_sum += fleet.instance(i).latest().execs;
  EXPECT_EQ(fleet.fleet_total().execs, plot_sum);
}

TEST(FleetTest, RestartCountersFlowIntoRegistryAndTotal) {
  FleetTelemetry fleet(2);
  fleet.restarts().add(3);
  fleet.instance(0).restarts.add(2);
  fleet.instance(1).restarts.add(1);
  EXPECT_EQ(fleet.registry().counter("supervisor.restarts").get(), 3u);
  EXPECT_EQ(fleet.fleet_total().restarts, 3u);
}

TEST(FleetTest, StampFleetBuildsSeries) {
  FleetTelemetry fleet(2);
  fleet.instance(0).publish(with_execs(10));
  fleet.stamp_fleet();
  fleet.instance(1).publish(with_execs(20));
  fleet.stamp_fleet();
  auto series = fleet.fleet_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].execs, 10u);
  EXPECT_EQ(series[1].execs, 30u);
  EXPECT_GE(series[1].relative_ms, series[0].relative_ms);
}

}  // namespace
}  // namespace bigmap::telemetry
