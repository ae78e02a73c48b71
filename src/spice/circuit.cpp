#include "spice/circuit.h"

#include <limits>

#include "base/error.h"

namespace semsim {

SpiceCircuit::SpiceCircuit() {
  names_.push_back("gnd");
  source_index_.push_back(-1);
}

int SpiceCircuit::add_node(std::string name) {
  const int id = static_cast<int>(names_.size());
  if (name.empty()) name.append("n").append(std::to_string(id));
  names_.push_back(std::move(name));
  source_index_.push_back(-1);
  return id;
}

void SpiceCircuit::check_node(int n, const char* what) const {
  if (n < 0 || static_cast<std::size_t>(n) >= names_.size()) {
    throw Error(std::string(what) + ": node out of range");
  }
}

void SpiceCircuit::set_source(int node, Waveform w) {
  check_node(node, "set_source");
  require(node != kGround, "set_source: ground is fixed at 0 V");
  std::size_t idx = static_cast<std::size_t>(node);
  if (source_index_[idx] < 0) {
    source_index_[idx] = static_cast<int>(sources_.size());
    sources_.push_back(std::move(w));
  } else {
    sources_[static_cast<std::size_t>(source_index_[idx])] = std::move(w);
  }
}

void SpiceCircuit::add_resistor(int a, int b, double ohms) {
  check_node(a, "add_resistor");
  check_node(b, "add_resistor");
  require(ohms > 0.0, "add_resistor: non-positive resistance");
  resistors_.push_back(Resistor{a, b, ohms});
}

void SpiceCircuit::add_capacitor(int a, int b, double farads) {
  check_node(a, "add_capacitor");
  check_node(b, "add_capacitor");
  require(farads > 0.0, "add_capacitor: non-positive capacitance");
  capacitors_.push_back(Capacitor{a, b, farads});
}

void SpiceCircuit::add_set(const SetDevice& dev) {
  check_node(dev.d, "add_set");
  check_node(dev.s, "add_set");
  check_node(dev.g, "add_set");
  check_node(dev.b, "add_set");
  sets_.push_back(dev);
}

double SpiceCircuit::source_value(int n, double t) const {
  if (n == kGround) return 0.0;
  const int si = source_index_.at(static_cast<std::size_t>(n));
  require(si >= 0, "source_value: node is not a source");
  return sources_[static_cast<std::size_t>(si)].value(t);
}

double SpiceCircuit::next_source_breakpoint(double t) const noexcept {
  double bp = std::numeric_limits<double>::infinity();
  for (const Waveform& w : sources_) bp = std::min(bp, w.next_breakpoint(t));
  return bp;
}

}  // namespace semsim
