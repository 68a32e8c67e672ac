// Golden-file tests pinning the fuzzer_stats / plot_data / BenchReport
// JSON formats byte-for-byte, plus StatsEmitter directory-tree writing.
#include "telemetry/emit.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/bench_report.h"
#include "util/report.h"

namespace bigmap::telemetry {
namespace {

StatsSnapshot golden_snapshot() {
  StatsSnapshot s;
  s.instance_id = 2;
  s.kernel = "swar";
  s.relative_ms = 1500;
  s.execs = 12345;
  s.interesting = 67;
  s.crashes = 3;
  s.hangs = 1;
  s.trim_execs = 89;
  s.sync_published = 44;
  s.sync_imported = 21;
  s.faulted_execs = 5;
  s.injected_hangs = 2;
  s.restarts = 1;
  s.tracing_untraced_execs = 11000;
  s.tracing_traced_execs = 1345;
  s.tracing_oracle_fires = 70;
  s.tracing_reexec_ns = 654321;
  s.checkpoints_written = 7;
  s.checkpoints_loaded = 1;
  s.checkpoint_bytes = 4096;
  s.recovery_torn_tail = 1;
  s.recovery_bad_crc = 0;
  s.recovery_version_mismatch = 0;
  s.queue_depth = 70;
  s.covered_positions = 2111;
  s.map_positions = 65536;
  s.used_key = 2100;
  s.saturated_updates = 9;
  s.map_resets = 12345;
  s.map_classifies = 12345;
  s.map_compares = 12000;
  s.map_hashes = 400;
  s.execs_per_sec = 8230.0;
  s.execs_per_sec_now = 9100.5;
  return s;
}

TEST(FuzzerStatsGoldenTest, ExactFormat) {
  const std::string expected =
      "banner            : unit-test\n"
      "instance_id       : 2\n"
      "kernel            : swar\n"
      "relative_ms       : 1500\n"
      "execs_done        : 12345\n"
      "execs_per_sec     : 8230.00\n"
      "execs_per_sec_now : 9100.50\n"
      "paths_total       : 70\n"
      "paths_found       : 67\n"
      "crashes           : 3\n"
      "hangs             : 1\n"
      "covered_positions : 2111\n"
      "map_positions     : 65536\n"
      "map_density_pct   : 3.22\n"
      "used_key          : 2100\n"
      "saturated_updates : 9\n"
      "trim_execs        : 89\n"
      "sync_published    : 44\n"
      "sync_imported     : 21\n"
      "faulted_execs     : 5\n"
      "injected_hangs    : 2\n"
      "restarts          : 1\n"
      "tracing_untraced  : 11000\n"
      "tracing_traced    : 1345\n"
      "tracing_fires     : 70\n"
      "tracing_reexec_ns : 654321\n"
      "checkpoints_written: 7\n"
      "checkpoints_loaded: 1\n"
      "checkpoint_bytes  : 4096\n"
      "recovery_torn_tail: 1\n"
      "recovery_bad_crc  : 0\n"
      "recovery_version_mismatch: 0\n"
      "map_resets        : 12345\n"
      "map_classifies    : 12345\n"
      "map_compares      : 12000\n"
      "map_hashes        : 400\n";
  EXPECT_EQ(render_fuzzer_stats(golden_snapshot(), "unit-test"), expected);
}

TEST(FuzzerStatsGoldenTest, FleetMarkerRendersAsFleet) {
  StatsSnapshot s = golden_snapshot();
  s.instance_id = 0xFFFFFFFFu;
  const std::string out = render_fuzzer_stats(s, "b");
  EXPECT_NE(out.find("instance_id       : fleet\n"), std::string::npos);
}

TEST(PlotDataGoldenTest, HeaderMatchesRowOrder) {
  EXPECT_EQ(plot_data_header(),
            "# relative_ms, execs_done, execs_per_sec, execs_per_sec_now, "
            "paths_total, covered_positions, map_density_pct, used_key, "
            "saturated_updates, crashes, hangs, restarts\n");
}

TEST(PlotDataGoldenTest, ExactRow) {
  EXPECT_EQ(render_plot_data_row(golden_snapshot()),
            "1500, 12345, 8230.00, 9100.50, 70, 2111, 3.22, 2100, 9, 3, 1, "
            "1\n");
}

TEST(PlotDataGoldenTest, SeriesIsHeaderPlusRows) {
  StatsSnapshot a = golden_snapshot();
  StatsSnapshot b = golden_snapshot();
  b.relative_ms = 3000;
  b.execs = 24690;
  const std::string out = render_plot_data({a, b});
  EXPECT_EQ(out, plot_data_header() + render_plot_data_row(a) +
                     render_plot_data_row(b));
}

TEST(BenchReportGoldenTest, ExactJson) {
  BenchReport report("unit", 0.5);
  report.set_meta("experiment", std::string("Exp"));
  report.set_meta("iterations", u64{12});
  report.set_meta("ratio", 1.5);
  TableWriter t({"A", "B"});
  t.add_row({"x", "1"});
  t.add_row({"y", "2"});
  report.add_table("tbl", t);

  const std::string expected =
      "{\"schema_version\":1,"
      "\"bench\":\"unit\","
      "\"scale\":0.5,"
      "\"meta\":{\"experiment\":\"Exp\",\"iterations\":12,\"ratio\":1.5},"
      "\"tables\":[{\"name\":\"tbl\",\"columns\":[\"A\",\"B\"],"
      "\"rows\":[[\"x\",\"1\"],[\"y\",\"2\"]]}],"
      "\"series\":[]}";
  EXPECT_EQ(report.to_json(), expected);
}

TEST(BenchReportGoldenTest, SeriesSnapshotFields) {
  BenchReport report("unit", 1.0);
  StatsSnapshot s = golden_snapshot();
  report.add_series("fleet", {s});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"series\":[{\"name\":\"fleet\",\"snapshots\":[{"),
            std::string::npos);
  EXPECT_NE(json.find("\"execs\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"relative_ms\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"used_key\":2100"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\":\"swar\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoints_written\":7"), std::string::npos);
  EXPECT_NE(json.find("\"recovery_torn_tail\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tracing_untraced_execs\":11000"),
            std::string::npos);
  EXPECT_NE(json.find("\"tracing_traced_execs\":1345"), std::string::npos);
  EXPECT_NE(json.find("\"tracing_oracle_fires\":70"), std::string::npos);
  EXPECT_NE(json.find("\"tracing_reexec_ns\":654321"), std::string::npos);
}

TEST(BenchReportTest, WriteFileRoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bigmap_report_test.json")
          .string();
  BenchReport report("unit", 1.0);
  ASSERT_TRUE(report.write_file(path));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), report.to_json() + "\n");  // file gets a trailing \n
  std::filesystem::remove(path);
}

TEST(BenchReportTest, WriteFileFailsOnBadPath) {
  BenchReport report("unit", 1.0);
  EXPECT_FALSE(report.write_file("/nonexistent-dir-xyz/report.json"));
}

class StatsEmitterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("bigmap_emit_test_" +
              std::to_string(static_cast<unsigned>(::getpid()))))
                .string();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static std::string slurp(const std::string& path) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  std::string root_;
};

TEST_F(StatsEmitterTest, EmitSinkWritesBothFiles) {
  TelemetrySink sink(0);
  StatsSnapshot in;
  in.execs = 10;
  sink.stamp_at(in, 100);

  StatsEmitter emitter(root_);
  ASSERT_TRUE(emitter.emit_sink(sink, "instance_0", "test-banner"));
  const std::string stats = slurp(root_ + "/instance_0/fuzzer_stats");
  EXPECT_NE(stats.find("banner            : test-banner\n"),
            std::string::npos);
  EXPECT_NE(stats.find("execs_done        : 10\n"), std::string::npos);
  const std::string plot = slurp(root_ + "/instance_0/plot_data");
  EXPECT_EQ(plot, render_plot_data(sink.series()));
}

TEST_F(StatsEmitterTest, EmitFleetWritesEveryInstanceAndAggregate) {
  FleetTelemetry fleet(2);
  StatsSnapshot in;
  in.execs = 30;
  fleet.instance(0).stamp_at(in, 50);
  in.execs = 12;
  fleet.instance(1).stamp_at(in, 50);
  fleet.stamp_fleet();

  StatsEmitter emitter(root_);
  ASSERT_TRUE(emitter.emit_fleet(fleet, "fleet-banner"));
  for (const char* sub : {"instance_0", "instance_1", "fleet"}) {
    EXPECT_TRUE(std::filesystem::exists(root_ + "/" + sub + "/fuzzer_stats"))
        << sub;
    EXPECT_TRUE(std::filesystem::exists(root_ + "/" + sub + "/plot_data"))
        << sub;
  }
  const std::string fleet_stats = slurp(root_ + "/fleet/fuzzer_stats");
  EXPECT_NE(fleet_stats.find("instance_id       : fleet\n"),
            std::string::npos);
  EXPECT_NE(fleet_stats.find("execs_done        : 42\n"), std::string::npos);
}

TEST_F(StatsEmitterTest, ReportsFailureOnUnwritableRoot) {
  TelemetrySink sink(0);
  StatsEmitter emitter("/proc/no-such-root");
  EXPECT_FALSE(emitter.emit_sink(sink, "x", "b"));
}

}  // namespace
}  // namespace bigmap::telemetry
