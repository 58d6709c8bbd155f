// Edge-case tests for the key=value parsing surfaces: trailing garbage,
// whitespace, hex/inf/nan spellings, sign and range violations must throw
// std::invalid_argument naming the offending key — never silently coerce.
#include <gtest/gtest.h>

#include "venn/venn.h"

namespace venn {
namespace {

void expect_rejected(const std::string& key, const std::string& value) {
  ScenarioSpec sc;
  PolicySpec pol;
  try {
    if (!sc.try_set(key, value)) pol.set(key, value);
    FAIL() << key << "=" << value << " must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << "error must name the key: " << e.what();
  }
}

TEST(KeyValueParsing, TrailingGarbageRejected) {
  expect_rejected("jobs", "50x");
  expect_rejected("devices", "7000 devices");
  expect_rejected("seed", "42,");
  expect_rejected("horizon-days", "28.0.0");
  expect_rejected("epsilon", "2.0x");
  expect_rejected("min-rounds", "3-5");
}

TEST(KeyValueParsing, EmptyAndWhitespaceRejected) {
  expect_rejected("jobs", "");
  expect_rejected("jobs", " 50");
  expect_rejected("jobs", "50 ");
  expect_rejected("horizon-days", "\t7");
}

TEST(KeyValueParsing, ExoticNumericSpellingsRejected) {
  expect_rejected("jobs", "0x32");
  expect_rejected("horizon-days", "0x1p4");
  expect_rejected("horizon-days", "inf");
  expect_rejected("horizon-days", "nan");
  expect_rejected("epsilon", "1e999");  // overflows to inf
}

TEST(KeyValueParsing, SignAndRangeViolationsRejected) {
  expect_rejected("jobs", "-5");
  expect_rejected("devices", "-1");
  expect_rejected("seed", "-42");
  expect_rejected("min-demand", "99999999999999999999");
  expect_rejected("max-rounds", "2147483648");  // INT_MAX + 1
}

TEST(KeyValueParsing, ValidValuesStillParse) {
  ScenarioSpec sc;
  sc.set("jobs", "50");
  EXPECT_EQ(sc.num_jobs, 50u);
  sc.set("horizon-days", "3.5");
  EXPECT_DOUBLE_EQ(sc.horizon, 3.5 * kDay);
  sc.set("seed", "18446744073709551615");  // UINT64_MAX
  EXPECT_EQ(sc.seed, 18446744073709551615ull);
  PolicySpec pol;
  pol.set("epsilon", "2.5");
  EXPECT_DOUBLE_EQ(pol.params.venn.epsilon, 2.5);
}

TEST(KeyValueParsing, UnknownKeysThrow) {
  ScenarioSpec sc;
  EXPECT_FALSE(sc.try_set("not-a-key", "1"));
  EXPECT_THROW(sc.set("not-a-key", "1"), std::invalid_argument);
  EXPECT_THROW(ExperimentBuilder().set("not-a-key", "1"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentBuilder().override_kv("no-equals-sign"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentBuilder().override_kv("=value"),
               std::invalid_argument);
}

TEST(KeyValueParsing, GeneratorKeysValidateEagerly) {
  ScenarioSpec sc;
  // Unknown generator names throw at set() time, listing alternatives.
  EXPECT_THROW(sc.set("arrival", "fibonacci"), std::invalid_argument);
  EXPECT_THROW(sc.set("mix", "nope"), std::invalid_argument);
  EXPECT_THROW(sc.set("churn", "nope"), std::invalid_argument);
  // Dotted params are collected on the spec...
  sc.set("arrival", "poisson");
  sc.set("arrival.interarrival-min", "15");
  EXPECT_EQ(sc.arrival_gen.name, "poisson");
  EXPECT_EQ(sc.arrival_gen.params.kv.at("interarrival-min"), "15");
  // ...and a key the generator does not accept fails at build time.
  sc.set("arrival.bogus-knob", "1");
  EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
}

TEST(KeyValueParsing, OrphanedDottedKnobsRejectedAtBuild) {
  // A dotted knob without its family name configured would otherwise be
  // silently dropped (e.g. `--churn.up-scale-h=4` with `--churn=weibull`
  // forgotten).
  ScenarioSpec sc;
  sc.set("churn.up-scale-h", "4");
  try {
    (void)api::build_inputs(sc);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("churn.up-scale-h"), std::string::npos) << msg;
    EXPECT_NE(msg.find("churn=<name>"), std::string::npos) << msg;
  }
  sc.set("churn", "weibull");
  EXPECT_NO_THROW((void)api::build_inputs(sc));
}

TEST(KeyValueParsing, GeneratorParamValuesValidateAtBuild) {
  ScenarioSpec sc;
  sc.num_devices = 10;
  sc.num_jobs = 1;
  sc.set("arrival", "poisson");
  sc.set("arrival.interarrival-min", "30x");  // trailing garbage
  EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
  sc.set("arrival.interarrival-min", "-30");  // must be positive
  EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
  sc.set("arrival.interarrival-min", "30");
  EXPECT_NO_THROW((void)api::build_inputs(sc));
}

TEST(KeyValueParsing, ProtocolKeysValidateEagerly) {
  ScenarioSpec sc;
  sc.num_devices = 10;
  sc.num_jobs = 1;
  // Unknown protocol names throw at set() time, listing alternatives.
  try {
    sc.set("protocol", "quorum");
    FAIL() << "unknown protocol accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overcommit"), std::string::npos)
        << e.what();
  }
  // Dotted params are collected on the spec...
  sc.set("protocol", "overcommit");
  sc.set("protocol.overcommit", "1.5");
  EXPECT_EQ(sc.protocol_gen.name, "overcommit");
  EXPECT_EQ(sc.protocol_gen.params.kv.at("overcommit"), "1.5");
  // ...and a knob the protocol does not accept fails at experiment build,
  // naming the key.
  sc.set("protocol.bogus-knob", "1");
  try {
    (void)ExperimentBuilder().scenario(sc).build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus-knob"), std::string::npos)
        << e.what();
  }
}

TEST(KeyValueParsing, ConflictingProtocolValuesRejected) {
  // Overrides accumulate from several sources; two different aggregation
  // regimes in one scenario must fail loudly, not last-writer-win.
  ScenarioSpec sc;
  sc.set("protocol", "sync");
  EXPECT_NO_THROW(sc.set("protocol", "sync"));  // re-stating is idempotent
  try {
    sc.set("protocol", "async");
    FAIL() << "conflicting protocol accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("protocol"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sync"), std::string::npos) << msg;
    EXPECT_NE(msg.find("async"), std::string::npos) << msg;
  }
  EXPECT_EQ(sc.protocol_gen.name, "sync");  // first value stands
  EXPECT_THROW(ExperimentBuilder()
                   .set("protocol", "sync")
                   .set("protocol", "overcommit"),
               std::invalid_argument);
}

TEST(KeyValueParsing, OrphanedProtocolKnobRejectedAtBuild) {
  ScenarioSpec sc;
  sc.num_devices = 10;
  sc.num_jobs = 1;
  sc.set("protocol.buffer", "64");
  try {
    (void)api::build_inputs(sc);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("protocol.buffer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("protocol=<name>"), std::string::npos) << msg;
  }
  sc.set("protocol", "async");
  EXPECT_NO_THROW((void)ExperimentBuilder().scenario(sc).build());
}

TEST(KeyValueParsing, ProtocolKnobValuesValidateAtBuild) {
  ScenarioSpec sc;
  sc.num_devices = 10;
  sc.num_jobs = 1;
  sc.set("protocol", "overcommit");
  sc.set("protocol.overcommit", "0.5");  // under-selection is not a thing
  EXPECT_THROW((void)ExperimentBuilder().scenario(sc).build(),
               std::invalid_argument);
  sc.protocol_gen.params.kv["overcommit"] = "1.25";
  sc.set("protocol.report-fraction", "1.5");  // probability range
  EXPECT_THROW((void)ExperimentBuilder().scenario(sc).build(),
               std::invalid_argument);
  sc.protocol_gen.params.kv["report-fraction"] = "0.9";
  EXPECT_NO_THROW((void)ExperimentBuilder().scenario(sc).build());
}

// open-loop is a 0|1 flag; stream= is no key any more (churn sessions
// always stream), so it is rejected like any unknown key.
TEST(KeyValueParsing, OpenLoopAndStreamFlagsParse) {
  ScenarioSpec sc;
  sc.set("open-loop", "1");
  EXPECT_TRUE(sc.open_loop);
  sc.set("open-loop", "0");
  EXPECT_FALSE(sc.open_loop);
  expect_rejected("open-loop", "true");
  expect_rejected("stream", "1");
}

}  // namespace
}  // namespace venn
