// The paper's `jumps <count> <repeats>`: independent reruns averaged.
#include <gtest/gtest.h>

#include "analysis/driver.h"
#include "netlist/parser.h"

namespace semsim {
namespace {

/// Driver options with the seed and the solver set by name.
DriverOptions options(std::uint64_t seed, bool adaptive) {
  DriverOptions o;
  o.seed = seed;
  o.adaptive = adaptive;
  return o;
}

SimulationInput set_input(int repeats) {
  return parse_simulation_input(std::string(R"(
junc 1 1 4 1meg 1e-18
junc 2 4 2 1meg 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
num ext 3
num nodes 4
temp 5
record 1 2
jumps 8000 )") + std::to_string(repeats) + "\n");
}

TEST(DriverRepeats, MultipleRepeatsAverageAndTightenError) {
  const DriverResult one = run_simulation(set_input(1), options(5, true));
  const DriverResult nine = run_simulation(set_input(9), options(5, true));
  ASSERT_TRUE(one.current && nine.current);
  // Same device: the averaged estimate agrees with the single run.
  EXPECT_NEAR(nine.current->mean / one.current->mean, 1.0, 0.05);
  // Nine repeats executed nine times the events.
  EXPECT_GT(nine.events, 5 * one.events);
  EXPECT_GT(nine.current->stderr_mean, 0.0);
}

TEST(DriverRepeats, RepeatsAreIndependentSeeds) {
  // With repeats the result must not be a deterministic copy of run one:
  // the standard error across repeats is finite and sane.
  const DriverResult r = run_simulation(set_input(5), options(3, true));
  ASSERT_TRUE(r.current);
  EXPECT_GT(r.current->stderr_mean, 1e-13);
  EXPECT_LT(r.current->stderr_mean, 0.05 * std::abs(r.current->mean));
}

}  // namespace
}  // namespace semsim
