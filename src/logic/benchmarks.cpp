#include "logic/benchmarks.h"

#include "base/error.h"
#include "logic/random_logic.h"

namespace semsim {
namespace {

using Op = GateOp;

// ---- 2-to-10 decoder stand-in: 2-to-4 decoder with buffered outputs -------

LogicBenchmark make_dec2to10() {
  LogicBenchmark b;
  b.name = "2-to-10-decoder";
  b.paper_junctions = 76;
  GateNetlist& n = b.netlist;
  const SignalId a = n.add_input("a");
  const SignalId bb = n.add_input("b");
  const SignalId na = n.add(Op::kInv, a);
  const SignalId nb = n.add(Op::kInv, bb);
  const SignalId y0 = n.add(Op::kAnd2, na, nb);
  const SignalId y1 = n.add(Op::kAnd2, a, nb);
  const SignalId y2 = n.add(Op::kAnd2, na, bb);
  const SignalId y3 = n.add(Op::kAnd2, a, bb);
  for (const SignalId y : {y0, y1, y2, y3}) {
    n.mark_output(n.add(Op::kBuf, y));
  }
  b.toggle_input = 0;                 // a
  b.base_vector = {false, false};
  b.observe_output = 1;               // y1 = a & ~b rises
  return b;
}

// ---- full adder (exactly the paper's 100 junctions) ------------------------

LogicBenchmark make_full_adder() {
  LogicBenchmark b;
  b.name = "full-adder";
  b.paper_junctions = 100;
  GateNetlist& n = b.netlist;
  const SignalId a = n.add_input("a");
  const SignalId bb = n.add_input("b");
  const SignalId cin = n.add_input("cin");
  const SignalId t = n.add(Op::kXor2, a, bb);
  const SignalId sum = n.add(Op::kXor2, t, cin);
  const SignalId g = n.add(Op::kAnd2, a, bb);
  const SignalId p = n.add(Op::kAnd2, cin, t);
  const SignalId cout = n.add(Op::kOr2, g, p);
  n.mark_output(sum);
  n.mark_output(cout);
  b.toggle_input = 0;
  b.base_vector = {false, false, false};
  b.observe_output = 0;  // sum follows a
  return b;
}

// ---- 74LS138: 3-to-8 decoder with enables ----------------------------------

LogicBenchmark make_74ls138() {
  LogicBenchmark b;
  b.name = "74LS138";
  b.paper_junctions = 168;
  GateNetlist& n = b.netlist;
  const SignalId a = n.add_input("a");
  const SignalId bb = n.add_input("b");
  const SignalId c = n.add_input("c");
  const SignalId g1 = n.add_input("g1");
  const SignalId g2a = n.add_input("g2a_n");
  const SignalId g2b = n.add_input("g2b_n");
  const SignalId en = n.add(Op::kAnd2, g1,
                            n.add(Op::kAnd2, n.add(Op::kInv, g2a),
                                  n.add(Op::kInv, g2b)));
  const SignalId na = n.add(Op::kInv, a);
  const SignalId nb = n.add(Op::kInv, bb);
  const SignalId nc = n.add(Op::kInv, c);
  for (int i = 0; i < 8; ++i) {
    const SignalId sa = (i & 1) ? a : na;
    const SignalId sb = (i & 2) ? bb : nb;
    const SignalId sc = (i & 4) ? c : nc;
    n.mark_output(n.nand_tree({sa, sb, sc, en}));  // active-low outputs
  }
  b.toggle_input = 0;  // a
  b.base_vector = {false, false, false, true, false, false};
  b.observe_output = 1;  // Y1 falls when a rises
  return b;
}

// ---- 74LS153: dual 4-to-1 multiplexer ---------------------------------------

LogicBenchmark make_74ls153() {
  LogicBenchmark b;
  b.name = "74LS153";
  b.paper_junctions = 224;
  GateNetlist& n = b.netlist;
  const SignalId s0 = n.add_input("s0");
  const SignalId s1 = n.add_input("s1");
  std::vector<SignalId> c1, c2;
  for (int i = 0; i < 4; ++i) c1.push_back(n.add_input("1c" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) c2.push_back(n.add_input("2c" + std::to_string(i)));
  const SignalId g1n = n.add_input("1g_n");
  const SignalId g2n = n.add_input("2g_n");
  auto mux4 = [&](const std::vector<SignalId>& d, SignalId strobe_n) {
    const SignalId lo = n.mux2(d[0], d[1], s0);
    const SignalId hi = n.mux2(d[2], d[3], s0);
    const SignalId y = n.mux2(lo, hi, s1);
    return n.add(Op::kAnd2, y, n.add(Op::kInv, strobe_n));
  };
  n.mark_output(mux4(c1, g1n));
  n.mark_output(mux4(c2, g2n));
  b.toggle_input = 2;  // 1c0
  b.base_vector = std::vector<bool>(12, false);  // strobes low = enabled
  b.observe_output = 0;
  return b;
}

// ---- s27a: ISCAS'89 s27 combinational core + transparent latches ------------

LogicBenchmark make_s27a() {
  LogicBenchmark b;
  b.name = "s27a";
  b.paper_junctions = 264;
  GateNetlist& n = b.netlist;
  const SignalId g0 = n.add_input("g0");
  const SignalId g1 = n.add_input("g1");
  const SignalId g2 = n.add_input("g2");
  const SignalId g3 = n.add_input("g3");
  const SignalId s5 = n.add_input("state5");
  const SignalId s6 = n.add_input("state6");
  const SignalId s7 = n.add_input("state7");
  const SignalId clk = n.add_input("clk");  // latch enable, held high

  const SignalId g14 = n.add(Op::kInv, g0);
  const SignalId g12 = n.add(Op::kNor2, g1, s7);
  const SignalId g13 = n.add(Op::kNor2, g2, g12);
  const SignalId g8 = n.add(Op::kAnd2, g14, s6);
  const SignalId g15 = n.add(Op::kOr2, g12, g8);
  const SignalId g16 = n.add(Op::kOr2, g3, g8);
  const SignalId g9 = n.add(Op::kNand2, g16, g15);
  const SignalId g11 = n.add(Op::kNor2, s5, g9);
  const SignalId g10 = n.add(Op::kNor2, g14, g11);
  const SignalId g17 = n.add(Op::kInv, g11);

  n.mark_output(g17);
  n.mark_output(n.d_latch(g10, clk));
  n.mark_output(n.d_latch(g11, clk));
  n.mark_output(n.d_latch(g13, clk));
  b.toggle_input = 3;  // g3 sensitizes g16 -> g9 -> g11 -> g17
  b.base_vector = {false, false, false, false, false, false, false, true};
  b.observe_output = 0;
  return b;
}

// ---- 74148: 8-to-3 priority encoder -----------------------------------------

LogicBenchmark make_74148() {
  LogicBenchmark b;
  b.name = "74148";
  b.paper_junctions = 336;
  GateNetlist& n = b.netlist;
  std::vector<SignalId> in;
  for (int i = 0; i < 8; ++i) in.push_back(n.add_input(std::string("i") + std::to_string(i)));
  const SignalId n2 = n.add(Op::kInv, in[2]);
  const SignalId n4 = n.add(Op::kInv, in[4]);
  const SignalId n5 = n.add(Op::kInv, in[5]);
  const SignalId n6 = n.add(Op::kInv, in[6]);

  const SignalId a2 = n.or_tree({in[4], in[5], in[6], in[7]});
  const SignalId t1 = n.add(Op::kAnd2, n.add(Op::kOr2, in[2], in[3]),
                            n.add(Op::kAnd2, n4, n5));
  const SignalId a1 = n.or_tree({t1, in[6], in[7]});
  const SignalId u1 = n.and_tree({in[1], n2, n4, n6});
  const SignalId u2 = n.and_tree({in[3], n4, n6});
  const SignalId u3 = n.add(Op::kAnd2, in[5], n6);
  const SignalId a0 = n.or_tree({u1, u2, u3, in[7]});
  const SignalId gs = n.or_tree(in);

  n.mark_output(a0);
  n.mark_output(a1);
  n.mark_output(a2);
  n.mark_output(gs);
  b.toggle_input = 1;  // i1 -> a0
  b.base_vector = std::vector<bool>(8, false);
  b.observe_output = 0;
  return b;
}

// ---- 74154: 4-to-16 decoder ---------------------------------------------------

LogicBenchmark make_74154() {
  LogicBenchmark b;
  b.name = "74154";
  b.paper_junctions = 360;
  GateNetlist& n = b.netlist;
  std::vector<SignalId> sel, nsel;
  for (int i = 0; i < 4; ++i) sel.push_back(n.add_input(std::string("s") + std::to_string(i)));
  const SignalId g1 = n.add_input("g1_n");
  const SignalId g2 = n.add_input("g2_n");
  for (const SignalId s : sel) nsel.push_back(n.add(Op::kInv, s));
  const SignalId en = n.add(Op::kAnd2, n.add(Op::kInv, g1), n.add(Op::kInv, g2));
  for (int i = 0; i < 16; ++i) {
    std::vector<SignalId> terms;
    for (int k = 0; k < 4; ++k) {
      terms.push_back((i >> k) & 1 ? sel[static_cast<std::size_t>(k)]
                                   : nsel[static_cast<std::size_t>(k)]);
    }
    terms.push_back(en);
    n.mark_output(n.nand_tree(terms));  // active-low outputs
  }
  b.toggle_input = 0;
  b.base_vector = {false, false, false, false, false, false};
  b.observe_output = 0;  // Y0 rises when s0 leaves minterm 0
  return b;
}

// ---- 74LS47: BCD to 7-segment decoder ----------------------------------------

LogicBenchmark make_74ls47() {
  LogicBenchmark b;
  b.name = "74LS47";
  b.paper_junctions = 448;
  GateNetlist& n = b.netlist;
  // Inputs A (LSB) .. D (MSB); segment outputs a..g, active high here.
  const SignalId a = n.add_input("A");
  const SignalId bb = n.add_input("B");
  const SignalId c = n.add_input("C");
  const SignalId d = n.add_input("D");
  const SignalId na = n.add(Op::kInv, a);
  const SignalId nb = n.add(Op::kInv, bb);
  const SignalId nc = n.add(Op::kInv, c);

  // Standard minimized segment equations for BCD 0-9.
  const SignalId seg_a =
      n.or_tree({d, bb, n.add(Op::kAnd2, a, c), n.add(Op::kAnd2, na, nc)});
  const SignalId seg_b =
      n.or_tree({nb, n.add(Op::kAnd2, na, nc), n.add(Op::kAnd2, a, c)});
  const SignalId seg_c = n.or_tree({bb, na, c});
  const SignalId seg_d = n.or_tree({d, n.and_tree({na, nb, nc}),
                                    n.and_tree({na, bb, c}),
                                    n.and_tree({a, bb, nc}),
                                    n.and_tree({a, nb, c})});
  const SignalId seg_e =
      n.add(Op::kOr2, n.add(Op::kAnd2, na, nb), n.add(Op::kAnd2, na, c));
  const SignalId seg_f = n.or_tree({d, n.add(Op::kAnd2, nb, nc),
                                    n.add(Op::kAnd2, na, nb),
                                    n.add(Op::kAnd2, na, c)});
  const SignalId seg_g = n.or_tree({d, n.add(Op::kAnd2, bb, nc),
                                    n.add(Op::kAnd2, na, bb),
                                    n.add(Op::kAnd2, a, c)});
  for (const SignalId s : {seg_a, seg_b, seg_c, seg_d, seg_e, seg_f, seg_g}) {
    n.mark_output(n.add(Op::kBuf, s));
  }
  b.toggle_input = 0;  // A: displaying 0 -> 1 turns segment a off
  b.base_vector = {false, false, false, false};
  b.observe_output = 0;
  return b;
}

// ---- 74LS280: 9-bit parity generator/checker ----------------------------------

LogicBenchmark make_74ls280() {
  LogicBenchmark b;
  b.name = "74LS280";
  b.paper_junctions = 484;
  GateNetlist& n = b.netlist;
  std::vector<SignalId> in;
  for (int i = 0; i < 9; ++i) in.push_back(n.add_input(std::string("i") + std::to_string(i)));
  const SignalId odd = n.xor_tree(in);
  const SignalId even = n.add(Op::kInv, odd);
  n.mark_output(n.add(Op::kBuf, even));
  n.mark_output(n.add(Op::kBuf, odd));
  b.toggle_input = 0;
  b.base_vector = std::vector<bool>(9, false);
  b.observe_output = 1;  // odd output rises
  return b;
}

// ---- 54LS181: 4-bit ALU ---------------------------------------------------------

LogicBenchmark make_54ls181() {
  LogicBenchmark b;
  b.name = "54LS181";
  b.paper_junctions = 944;
  GateNetlist& n = b.netlist;
  std::vector<SignalId> a, bs, s;
  for (int i = 0; i < 4; ++i) a.push_back(n.add_input(std::string("a") + std::to_string(i)));
  for (int i = 0; i < 4; ++i) bs.push_back(n.add_input(std::string("b") + std::to_string(i)));
  for (int i = 0; i < 4; ++i) s.push_back(n.add_input(std::string("s") + std::to_string(i)));
  const SignalId m = n.add_input("m");
  const SignalId cn = n.add_input("cn");
  const SignalId nm = n.add(Op::kInv, m);

  SignalId carry = n.add(Op::kAnd2, nm, cn);
  std::vector<SignalId> f;
  for (int i = 0; i < 4; ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    const SignalId nb = n.add(Op::kInv, bs[ii]);
    // '181 internal propagate/generate style terms.
    const SignalId t1 = n.add(Op::kAnd2, bs[ii], s[0]);
    const SignalId t2 = n.add(Op::kAnd2, nb, s[1]);
    const SignalId x = n.add(Op::kInv, n.or_tree({a[ii], t1, t2}));
    const SignalId t3 = n.and_tree({a[ii], nb, s[2]});
    const SignalId t4 = n.and_tree({a[ii], bs[ii], s[3]});
    const SignalId y = n.add(Op::kInv, n.add(Op::kOr2, t3, t4));
    const SignalId p = n.add(Op::kXor2, x, y);
    const SignalId cmask = n.add(Op::kAnd2, nm, carry);
    f.push_back(n.add(Op::kXor2, p, cmask));
    carry = n.add(Op::kOr2, n.add(Op::kInv, y),
                  n.add(Op::kAnd2, n.add(Op::kInv, x), carry));
  }
  for (const SignalId fi : f) n.mark_output(fi);
  n.mark_output(carry);                 // Cn+4
  n.mark_output(n.and_tree(f));         // A=B
  b.toggle_input = 0;  // a0 with S=0000, M=0: F = NOT A ... f0 follows a0
  b.base_vector = std::vector<bool>(14, false);
  b.observe_output = 0;
  return b;
}

// ---- s208-1: 8-bit counter core + comparator + latches ---------------------------

LogicBenchmark make_s208() {
  LogicBenchmark b;
  b.name = "s208-1";
  b.paper_junctions = 1344;
  GateNetlist& n = b.netlist;
  const SignalId en = n.add_input("en");
  const SignalId clk = n.add_input("clk");
  std::vector<SignalId> q;
  for (int i = 0; i < 8; ++i) q.push_back(n.add_input(std::string("q") + std::to_string(i)));

  SignalId carry = en;
  std::vector<SignalId> t;
  for (int i = 0; i < 8; ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    t.push_back(n.add(Op::kXor2, q[ii], carry));
    carry = n.add(Op::kAnd2, carry, q[ii]);
  }
  // Overflow compare: next == current detector chain.
  std::vector<SignalId> eqs;
  for (int i = 0; i < 8; ++i) {
    eqs.push_back(n.add(Op::kXnor2, t[static_cast<std::size_t>(i)],
                        q[static_cast<std::size_t>(i)]));
  }
  const SignalId hold = n.and_tree(eqs);
  n.mark_output(hold);
  for (int i = 0; i < 8; ++i) {
    n.mark_output(n.d_latch(t[static_cast<std::size_t>(i)], clk));
  }
  n.mark_output(carry);
  b.toggle_input = 2;  // q0 with en=1: t0 = ~q0
  b.base_vector = {true, true, false, false, false, false, false, false, false, false};
  b.observe_output = 1;  // latched t0
  return b;
}

// ---- ISCAS'85 stand-ins ------------------------------------------------------------

LogicBenchmark make_iscas_standin(const std::string& name,
                                  std::size_t junctions, std::uint64_t seed) {
  LogicBenchmark b;
  b.name = name;
  b.paper_junctions = junctions;
  RandomLogicSpec spec;
  spec.target_junctions = junctions;
  spec.seed = seed;
  spec.n_inputs = 32;
  spec.chain_length = 12;
  b.netlist = make_random_logic(spec);
  b.toggle_input = 0;
  b.base_vector = std::vector<bool>(32, false);
  b.observe_output = 0;  // end of the embedded inverter chain
  return b;
}

}  // namespace

bool is_sensitized(const LogicBenchmark& b) {
  const auto& outs = b.netlist.outputs();
  if (b.observe_output >= outs.size()) return false;
  std::vector<bool> v0 = b.base_vector;
  std::vector<bool> v1 = b.base_vector;
  v1[b.toggle_input] = !v1[b.toggle_input];
  const SignalId out = outs[b.observe_output];
  const bool y0 = b.netlist.evaluate(v0)[static_cast<std::size_t>(out)];
  const bool y1 = b.netlist.evaluate(v1)[static_cast<std::size_t>(out)];
  return y0 != y1;
}

std::vector<LogicBenchmark> make_all_benchmarks() {
  std::vector<LogicBenchmark> all;
  all.push_back(make_dec2to10());
  all.push_back(make_full_adder());
  all.push_back(make_74ls138());
  all.push_back(make_74ls153());
  all.push_back(make_s27a());
  all.push_back(make_74148());
  all.push_back(make_74154());
  all.push_back(make_74ls47());
  all.push_back(make_74ls280());
  all.push_back(make_54ls181());
  all.push_back(make_s208());
  all.push_back(make_iscas_standin("c432", 2072, 432));
  all.push_back(make_iscas_standin("c1355", 4616, 1355));
  all.push_back(make_iscas_standin("c499", 5608, 499));
  all.push_back(make_iscas_standin("c1908", 6988, 1908));
  return all;
}

LogicBenchmark make_benchmark(const std::string& name) {
  for (LogicBenchmark& b : make_all_benchmarks()) {
    if (b.name == name) return std::move(b);
  }
  throw Error("unknown benchmark: " + name);
}

}  // namespace semsim
