// DJQP cycle anatomy (paper Fig. 2, right panel).
//
//   $ ./sset_djqp
//
// The double Josephson quasi-particle cycle alternates junctions strictly:
// Cooper pair through 'A', quasi-particle through 'B', Cooper pair through
// 'B', quasi-particle through 'A'. This example solves the bias/gate point
// where BOTH junctions' Cooper-pair resonances line up (two linear
// equations in V_bias, V_gate), runs the Monte-Carlo engine there, and then
// does something only a Monte-Carlo simulator can: it reads the cycle
// composition straight out of the event stream, printing what kind of event
// follows a Cooper-pair tunnel through each junction.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "base/constants.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "netlist/electrostatics.h"
#include "physics/bcs.h"

using namespace semsim;

int main() {
  const double temp = 0.30;  // colder than Fig. 5: crisper sub-gap cycles
  const double tc = 1.2, rj = 2.1e5, cj = 110e-18, cg = 14e-18;
  const double delta0 =
      0.21e-3 * kElectronVolt / std::tanh(1.74 * std::sqrt(tc / 0.52 - 1.0));

  SetTransistor set = make_set(
      0.0, 0.0, 0.0, {rj, cj, cg, 0.0, SuperconductingParams{delta0, tc}});
  const std::size_t ja = 0;  // junction A: src -> island
  const std::size_t jb = 1;  // junction B: island -> drn

  // Solve for (Vb, Vg) such that
  //   CP through A at occupation n = 0:   -2e (v_isl - Vb) + 4u = 0
  //   CP through B at occupation n = 2:   -2e (0 - v_isl(n=2)) + 4u = 0
  // with v_isl = kappa q + s_src Vb + s_gate Vg, q = -n e. Two linear
  // equations in (Vb, Vg).
  const ElectrostaticModel m(set.c);
  const double e = kElementaryCharge;
  const double kappa = m.kappa_node(set.island, set.island);
  const double u = 0.5 * e * e * kappa;
  const double s_src = m.source_gain()(0, 0);
  const double s_gate = m.source_gain()(0, 2);
  // Equation 1: (s_src - 1) Vb + s_gate Vg = -2u/e
  // Equation 2:  s_src Vb + s_gate Vg = -2u/e + 2 e kappa  (v_isl(n=2) term)
  const double r1 = -2.0 * u / e;
  const double r2 = -2.0 * u / e + 2.0 * e * kappa;
  // Subtract: -Vb = r1 - r2  ->  Vb = r2 - r1 = 2 e kappa.
  const double vb = r2 - r1;
  const double vg = (r1 - (s_src - 1.0) * vb) / s_gate;
  std::printf("DJQP point: V_bias = %.4f mV (= 2e/C_sigma), V_gate = %.4f mV\n",
              1e3 * vb, 1e3 * vg);

  set.c.set_source(set.src, Waveform::dc(vb));
  set.c.set_source(set.gate, Waveform::dc(vg));

  EngineOptions o;
  o.temperature = temp;
  o.seed = 3;
  o.qp_table_half_range = 40.0 * bcs_gap(delta0, tc, temp);
  Engine engine(set.c, o);

  // Classify each event and count what follows a Cooper pair per junction.
  auto label = [&](const Event& ev) -> std::string {
    const char* kind = ev.kind == Event::Kind::kCooperPair ? "CP" : "qp";
    const char* junc = ev.index == ja ? "A" : (ev.index == jb ? "B" : "?");
    return std::string(kind) + "-" + junc;
  };
  std::map<std::string, std::map<std::string, long>> followers;
  std::map<std::string, long> totals;
  std::string prev;
  Event ev;
  for (int i = 0; i < 60000 && engine.step(&ev); ++i) {
    const std::string cur = label(ev);
    ++totals[cur];
    if (!prev.empty()) ++followers[prev][cur];
    prev = cur;
  }

  std::printf("\nevent mix over %ld events:\n", [&] {
    long t = 0;
    for (const auto& [k, n] : totals) t += n;
    return t;
  }());
  for (const auto& [k, n] : totals) std::printf("  %-4s : %6ld\n", k.c_str(), n);

  std::printf("\nwhat follows a Cooper pair (DJQP predicts the OTHER "
              "junction's quasi-particle):\n");
  for (const std::string cp : {"CP-A", "CP-B"}) {
    const auto it = followers.find(cp);
    if (it == followers.end()) continue;
    long total = 0;
    for (const auto& [k, n] : it->second) total += n;
    std::printf("  after %s:", cp.c_str());
    for (const auto& [k, n] : it->second) {
      std::printf("  %s %4.1f%%", k.c_str(),
                  100.0 * static_cast<double>(n) / static_cast<double>(total));
    }
    std::printf("\n");
  }
  std::printf("\npaper Fig. 2: the DJQP cycle is CP-A, qp-B, CP-B, qp-A, "
              "repeating.\n");
  return 0;
}
