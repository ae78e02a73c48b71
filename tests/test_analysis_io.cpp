// Tests for the analysis helpers (current estimation, sweeps, delay
// extraction) and the io table writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/current.h"
#include "analysis/delay.h"
#include "analysis/sweep.h"
#include "base/constants.h"
#include "io/table_writer.h"
#include "logic/devices.h"
#include "netlist/circuit.h"

namespace semsim {
namespace {

EngineOptions opts(double t, std::uint64_t seed = 1) {
  EngineOptions o;
  o.temperature = t;
  o.seed = seed;
  return o;
}

// ---- current estimation ------------------------------------------------------

TEST(Current, StuckEngineReportsZero) {
  auto f = make_set();  // zero bias, T = 0: deep blockade
  Engine e(f.c, opts(0.0));
  const CurrentEstimate est =
      measure_mean_current(e, {{0, 1.0}}, CurrentMeasureConfig{10, 100, 4});
  EXPECT_DOUBLE_EQ(est.mean, 0.0);
  EXPECT_EQ(est.events, 0u);
}

TEST(Current, ProbeSignFlipsCurrent) {
  auto fa = make_set(0.02, -0.02), fb = make_set(0.02, -0.02);
  Engine ea(fa.c, opts(0.0, 3));
  Engine eb(fb.c, opts(0.0, 3));
  const CurrentMeasureConfig mc{1000, 20000, 4};
  const double ip = measure_mean_current(ea, {{0, 1.0}}, mc).mean;
  const double in = measure_mean_current(eb, {{0, -1.0}}, mc).mean;
  EXPECT_NEAR(ip, -in, 1e-15);
  EXPECT_GT(ip, 0.0);
}

TEST(Current, RejectsEmptyProbes) {
  auto f = make_set(0.02, -0.02);
  Engine e(f.c, opts(0.0));
  EXPECT_THROW(measure_mean_current(e, {}, CurrentMeasureConfig{}), Error);
}

TEST(Current, StderrShrinksWithMoreEvents) {
  auto fa = make_set(0.02, -0.02), fb = make_set(0.02, -0.02);
  Engine ea(fa.c, opts(1.0, 5));
  Engine eb(fb.c, opts(1.0, 5));
  const double s_small =
      measure_mean_current(ea, {{0, 1.0}}, CurrentMeasureConfig{500, 4000, 8})
          .stderr_mean;
  const double s_big =
      measure_mean_current(eb, {{0, 1.0}}, CurrentMeasureConfig{500, 64000, 8})
          .stderr_mean;
  EXPECT_LT(s_big, s_small);
}

// ---- sweeps --------------------------------------------------------------------

TEST(Sweep, ValidatesConfig) {
  auto f = make_set();
  const ParallelExecutor exec(1);
  IvSweepConfig cfg;
  cfg.swept = f.src;
  cfg.from = 0.0;
  cfg.to = 0.01;
  cfg.step = 0.0;  // invalid
  cfg.probes = {{0, 1.0}};
  EXPECT_THROW(run_iv_sweep(f.c, opts(1.0), cfg, exec), Error);
  cfg.step = 0.005;
  cfg.probes.clear();
  EXPECT_THROW(run_iv_sweep(f.c, opts(1.0), cfg, exec), Error);
}

TEST(Sweep, PointCountAndBiasGrid) {
  auto f = make_set();
  IvSweepConfig cfg;
  cfg.swept = f.src;
  cfg.mirror = f.drn;
  cfg.from = -0.01;
  cfg.to = 0.01;
  cfg.step = 0.005;
  cfg.probes = {{0, 1.0}};
  cfg.measure = CurrentMeasureConfig{100, 1000, 2};
  // One chunk of all five points: the serial, warm-started sweep.
  const auto pts = run_iv_sweep(f.c, opts(1.0), cfg, ParallelExecutor(1),
                                ParallelSweepConfig{7, 5});
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front().bias, -0.01);
  EXPECT_NEAR(pts.back().bias, 0.01, 1e-12);
}

TEST(Sweep, StabilityMapShape) {
  auto f = make_set();
  StabilityMapConfig cfg;
  cfg.bias_node = f.src;
  cfg.mirror = f.drn;
  cfg.gate_node = f.gate;
  cfg.bias_values = {0.005, 0.02, 0.04};
  cfg.gate_values = {0.0, 0.01};
  cfg.probes = {{0, 1.0}, {1, 1.0}};
  cfg.measure = CurrentMeasureConfig{200, 2000, 2};
  const auto map = run_stability_map(f.c, opts(1.0), cfg, ParallelExecutor(1),
                                     ParallelSweepConfig{9});
  ASSERT_EQ(map.size(), 2u);
  ASSERT_EQ(map[0].size(), 3u);
  for (const auto& row : map) {
    for (const double v : row) EXPECT_GE(v, 0.0);  // magnitudes
    // conduction grows with bias
    EXPECT_LT(row[0], row[2]);
  }
}

// ---- delay ----------------------------------------------------------------------

TEST(Delay, RequiresSaneWindow) {
  auto f = make_set();
  Engine e(f.c, opts(1.0));
  DelayConfig cfg;
  cfg.output = f.island;
  cfg.t_step = 1e-9;
  cfg.t_max = 1e-9;  // not after t_step
  EXPECT_THROW(measure_propagation_delay(e, cfg), Error);
}

TEST(Delay, NanWhenNoCrossing) {
  // Island potential never reaches an absurd threshold.
  auto f = make_set(0.02, -0.02);
  Engine e(f.c, opts(1.0, 3));
  DelayConfig cfg;
  cfg.output = f.island;
  cfg.t_step = 1e-10;
  cfg.v_threshold = 10.0;  // volts — unreachable
  cfg.rising = true;
  cfg.t_max = 5e-9;
  EXPECT_FALSE(delay_valid(measure_propagation_delay(e, cfg)));
}

TEST(Delay, DetectsStepOnIsland) {
  // The island's mean potential follows a gate step through the 0.6 gain;
  // detection threshold halfway.
  auto f = make_set(0.02, -0.02);
  f.c.set_source(f.gate, Waveform::step(0.0, 0.05, 5e-9));
  Engine e(f.c, opts(4.0, 11));
  DelayConfig cfg;
  cfg.output = f.island;
  cfg.t_step = 5e-9;
  cfg.v_threshold = 0.015;
  cfg.rising = true;
  cfg.smoothing_tau = 2e-10;
  cfg.t_max = 100e-9;
  const double d = measure_propagation_delay(e, cfg);
  ASSERT_TRUE(delay_valid(d));
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 50e-9);
}

// ---- TableWriter ------------------------------------------------------------------

TEST(TableWriter, FormatsHeaderCommentsAndRows) {
  TableWriter t({"x", "y"});
  t.add_comment("hello");
  t.add_row({1.0, 2.5});
  t.add_row({-3.0, 4e-9});
  std::ostringstream os;
  t.write(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("# hello\n"), std::string::npos);
  EXPECT_NE(s.find("# x\ty\n"), std::string::npos);
  EXPECT_NE(s.find("1\t2.5\n"), std::string::npos);
  EXPECT_NE(s.find("-3\t4e-09\n"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableWriter, RejectsBadShapes) {
  EXPECT_THROW(TableWriter({}), Error);
  TableWriter t({"x", "y"});
  EXPECT_THROW(t.add_row({1.0}), Error);
  EXPECT_THROW(t.add_row({1.0, 2.0, 3.0}), Error);
}

TEST(TableWriter, WritesFile) {
  TableWriter t({"a"});
  t.add_row({42.0});
  const std::string path = "/tmp/semsim_tablewriter_test.tsv";
  t.write_file(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "# a");
  std::getline(f, line);
  EXPECT_EQ(line, "42");
  std::remove(path.c_str());
  EXPECT_THROW(t.write_file("/nonexistent_dir_xyz/out.tsv"), Error);
}

}  // namespace
}  // namespace semsim
