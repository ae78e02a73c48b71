// Tests for the RunRequest -> run() -> RunResult facade (analysis/api.h)
// and the JSON layer underneath it (io/json.h): writer/parser round trips,
// strict rejection of malformed documents, facade equivalence with the
// driver it wraps, and the lead-to-lead potential-update accounting fix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "analysis/api.h"
#include "base/error.h"
#include "base/random.h"
#include "io/json.h"
#include "netlist/parser.h"

namespace semsim {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, WriterParserRoundTrip) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "semsim");
  w.field("pi", 3.141592653589793);
  w.field("tenth", 0.1);
  w.field("big", std::uint64_t{1234567890123456789ULL});
  w.field("neg", std::int64_t{-42});
  w.field("flag", true);
  w.key("nothing").null();
  w.key("list").begin_array();
  w.value(1).value(2.5).value(false);
  w.end_array();
  w.key("nested").begin_object();
  w.field("escaped", "a\"b\\c\n\t\x01!");
  w.end_object();
  w.end_object();

  const JsonValue doc = JsonValue::parse(w.str());
  EXPECT_EQ(doc.at("name").as_string(), "semsim");
  // %.17g printing makes the parse-back reproduce the exact double bits.
  EXPECT_EQ(doc.at("pi").as_number(), 3.141592653589793);
  EXPECT_EQ(doc.at("tenth").as_number(), 0.1);
  EXPECT_EQ(doc.at("big").as_number(), 1234567890123456789.0);
  EXPECT_EQ(doc.at("neg").as_number(), -42.0);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_EQ(doc.at("nothing").kind(), JsonValue::Kind::kNull);
  ASSERT_EQ(doc.at("list").items().size(), 3u);
  EXPECT_EQ(doc.at("list").items()[1].as_number(), 2.5);
  EXPECT_FALSE(doc.at("list").items()[2].as_bool());
  EXPECT_EQ(doc.at("nested").at("escaped").as_string(), "a\"b\\c\n\t\x01!");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object();
  w.field("nan", std::nan(""));
  w.field("inf", HUGE_VAL);
  w.end_object();
  const JsonValue doc = JsonValue::parse(w.str());
  EXPECT_EQ(doc.at("nan").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(doc.at("inf").kind(), JsonValue::Kind::kNull);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const JsonValue doc = JsonValue::parse("\"\\u0041\\u00e9\\u2192\"");
  EXPECT_EQ(doc.as_string(), "A\xc3\xa9\xe2\x86\x92");
}

TEST(Json, MalformedDocumentsThrow) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1,]",        // trailing comma
      "tru",         // truncated keyword
      "\"abc",       // unterminated string
      "1 2",         // trailing garbage
      "{\"a\":}",    // missing value
      "{\"a\" 1}",   // missing colon
      "\"\\x\"",     // bad escape
      "\"\\ud800\"", // lone surrogate
      "nan",         // not a JSON literal
  };
  for (const char* text : bad) {
    EXPECT_THROW(JsonValue::parse(text), Error) << "accepted: " << text;
  }
}

TEST(Json, FindAndAtAgreeOnMissingKeys) {
  const JsonValue doc = JsonValue::parse("{\"a\": 1}");
  EXPECT_EQ(doc.find("b"), nullptr);
  EXPECT_THROW(doc.at("b"), Error);
  EXPECT_EQ(doc.at("a").as_number(), 1.0);
}

// -------------------------------------------------------------- facade --

/// The paper's Example Input File 1 with a small fixed event budget.
const char* kSetInput = R"(
junc 1 1 4 1meg 1e-18
junc 2 4 2 1meg 1e-18
cap 3 4 3e-18
charge 4 0.0
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
num j 2
num ext 3
num nodes 4
temp 5
record 1 2
jumps 2000 2
)";

TEST(RunFacade, MatchesDriverBitwise) {
  RunRequest req;
  req.input = parse_simulation_input(std::string(kSetInput));
  req.seed = 11;
  const RunResult res = run(req);

  const DriverResult ref = run_simulation(req.input, req.driver_options());
  ASSERT_TRUE(res.driver.current.has_value());
  ASSERT_TRUE(ref.current.has_value());
  EXPECT_EQ(res.driver.current->mean, ref.current->mean);
  EXPECT_EQ(res.driver.current->stderr_mean, ref.current->stderr_mean);
  EXPECT_EQ(res.driver.events, ref.events);
  EXPECT_EQ(res.fingerprint, run_fingerprint(req.input, req.driver_options()));
  EXPECT_EQ(res.fingerprint, req.fingerprint());
  EXPECT_EQ(res.spec.seed, 11u);
}

TEST(RunFacade, ToJsonRoundTripsThroughParser) {
  RunRequest req;
  req.input = parse_simulation_input(std::string(kSetInput));
  req.seed = 5;
  const RunResult res = run(req);

  const JsonValue doc = JsonValue::parse(res.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), RunResult::kJsonSchema);
  EXPECT_EQ(doc.at("seed").as_number(), 5.0);
  EXPECT_TRUE(doc.at("adaptive").as_bool());
  // The fingerprint travels as a 16-hex-digit string (JSON numbers cannot
  // carry 64 bits exactly).
  const std::string& fp = doc.at("fingerprint").as_string();
  ASSERT_EQ(fp.size(), 16u);
  EXPECT_EQ(std::strtoull(fp.c_str(), nullptr, 16), res.fingerprint);
  // Doubles survive the trip bit-for-bit.
  ASSERT_TRUE(res.driver.current.has_value());
  EXPECT_EQ(doc.at("current").at("mean_A").as_number(),
            res.driver.current->mean);
  EXPECT_EQ(doc.at("events").as_number(),
            static_cast<double>(res.driver.events));
  EXPECT_GT(doc.at("stats").at("rate_evaluations").as_number(), 0.0);
  EXPECT_GT(doc.at("counters").at("units").as_number(), 0.0);
}

TEST(RunFacade, SweepDocumentsCarryEverySolverCounter) {
  // A sweep document's stats object sums every unit's SolverStats field by
  // field, like every other run shape; the counters' rate total is all
  // three evaluation kinds.
  const auto document = [](const std::string& text) {
    RunRequest req;
    req.input = parse_simulation_input(text);
    req.seed = 7;
    req.threads = 2;
    return JsonValue::parse(run(req).to_json(/*canonical=*/true));
  };
  const auto expect_total = [](const JsonValue& doc) {
    const JsonValue& s = doc.at("stats");
    EXPECT_EQ(doc.at("counters").at("rate_evaluations").as_number(),
              s.at("rate_evaluations").as_number() +
                  s.at("cp_rate_evaluations").as_number() +
                  s.at("cot_rate_evaluations").as_number());
  };
  const std::string set_body =
      "num ext 3\nnum nodes 4\njunc 1 1 4 1meg 1a\njunc 2 4 2 1meg 1a\n"
      "cap 3 4 3a\nvdc 3 0\nsymm 2\nrecord 1 2\n";

  const JsonValue adaptive =
      document(set_body + "temp 5\njumps 2000\nsweep 1 0.01 0.002\n");
  const JsonValue& as = adaptive.at("stats");
  EXPECT_GT(as.at("junctions_flagged").as_number(), 0.0);
  EXPECT_GE(as.at("junctions_tested").as_number(),
            as.at("junctions_flagged").as_number());
  expect_total(adaptive);

  const JsonValue sset = document(
      set_body + "temp 0.05\nsuper 0.2 1.2\njumps 500\nsweep 1 0.05 0.1\n");
  EXPECT_GT(sset.at("stats").at("cp_rate_evaluations").as_number(), 0.0);
  expect_total(sset);
}

TEST(RunFacade, MakeUnitEngineMatchesManualSeeding) {
  const SimulationInput input =
      parse_simulation_input(std::string(kSetInput));
  const EngineOptions base = engine_options_for(input, DriverOptions{});

  Engine a(input.circuit, unit_engine_options(base, 42, 3));
  EngineOptions manual = base;
  manual.seed = derive_stream_seed(42, 3);
  Engine b(input.circuit, manual);

  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(a.step());
    ASSERT_TRUE(b.step());
  }
  EXPECT_EQ(a.time(), b.time());
  EXPECT_EQ(a.event_count(), b.event_count());
}

// --------------------------------------------- stats accounting fix --

/// A junction directly between two leads moves no island charge, so it must
/// not count island potential updates. The circuit keeps one capacitor-only
/// island so that there are island potentials the engine could (wrongly)
/// claim to refresh per event: before the fix every lead-to-lead event
/// added island_count() to potential_node_updates.
TEST(EngineStats, LeadToLeadMovesTouchNoIslandPotentials) {
  Circuit c;
  const NodeId vp = c.add_external("vp");
  const NodeId vn = c.add_external("vn");
  c.set_source(vp, Waveform::dc(0.02));
  c.set_source(vn, Waveform::dc(-0.02));
  c.add_junction(vp, vn, 1e6, 1e-18);
  const NodeId isl = c.add_island();
  c.add_capacitor(isl, Circuit::kGroundNode, 20e-18);
  const double n_isl = 1.0;

  for (const bool adaptive : {true, false}) {
    EngineOptions o;
    o.temperature = 0.0;
    o.adaptive.enabled = adaptive;
    Engine e(c, o);
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(e.step());
    const SolverStats& s = e.stats();
    EXPECT_EQ(s.events, 200u);
    // Every island-potential update must come from a full_update(); none
    // from the 200 lead-to-lead tunnel events. In adaptive mode the
    // periodic refresh is the only full_update (so updates == islands x
    // refreshes); in non-adaptive mode full_refreshes counts the per-event
    // rate recomputes, which touch no island potentials — only the
    // constructor's initial full_update does.
    if (adaptive) {
      EXPECT_EQ(static_cast<double>(s.potential_node_updates),
                n_isl * static_cast<double>(s.full_refreshes));
    } else {
      EXPECT_EQ(static_cast<double>(s.potential_node_updates), n_isl);
    }
  }
}

}  // namespace
}  // namespace semsim
