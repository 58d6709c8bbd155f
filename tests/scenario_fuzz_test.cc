// Deterministic fuzz of the `key=value` ScenarioSpec parser.
//
// The parser is the shared front door of the CLI, benches, sweep grids and
// config files, and it grew a wide dotted-knob surface (arrival.* / mix.* /
// churn.* / protocol.* plus the execution knob shards=). This
// test throws a seeded random corpus at it and requires:
//
//   * no crash and no UB for ANY input — the only acceptable failure mode
//     is std::invalid_argument (std::exception for registry lookups);
//   * acceptance is all-or-nothing: if try_set returns true, the override
//     was applied; if it throws, the key was recognized but the value was
//     rejected;
//   * round-trip stability: replaying every accepted (key, value) pair
//     onto a fresh spec reproduces the same spec, field for field.
//
// The corpus is deterministic (fixed seeds), so a failure here is a
// reproducible regression, not flake.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "venn/venn.h"

namespace venn {
namespace {

const std::vector<std::string>& known_keys() {
  static const std::vector<std::string> keys = {
      "name",        "seed",         "devices",       "jobs",
      "workload",    "bias",         "horizon-days",  "min-rounds",
      "max-rounds",  "min-demand",   "max-demand",    "interarrival-min",
      "base-trace",  "task-s",       "task-cv",       "arrival",
      "mix",         "churn",        "protocol",      "open-loop",
      "shards",      "horizon-s",
      "interarrival-s",              "journal",       "journal.dir",
      "snapshot_every",              "snapshot-every",
      "journal.halt-after",          "topology",      "topo.regions",
      "topo.sync_latency",           "topo.phase_spread",
  };
  return keys;
}

const std::vector<std::string>& dotted_prefixes() {
  static const std::vector<std::string> prefixes = {
      "arrival.", "mix.", "churn.", "protocol.", "journal.", "topo."};
  return prefixes;
}

const std::vector<std::string>& value_pool() {
  static const std::vector<std::string> values = {
      "0",      "1",          "-1",       "42",     "1e9",    "0.5",
      "-3.25",  "999999999",  "1e308",    "1e-308", "inf",    "-inf",
      "nan",    "0x10",       "1x",       "",       " 1",     "1 ",
      "  ",     "poisson",    "weibull",  "even",   "sync",   "overcommit",
      "async",  "bursty",     "diurnal",  "static", "none",   "general",
      "compute", "memory",    "resource", "venn",   "small",  "large",
      "low",    "high",       "maybe",    "true",   "false",  "1.5.2",
      "18446744073709551615", "18446744073709551616", "-9223372036854775809",
      "65",     "64",         "63",       "\t1",    "1\n",    "é",
      "key=value",            "..",       "a b",    "\"1\"",  "hier",
      "flat",
  };
  return values;
}

std::string random_junk(Rng& rng) {
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz-._=0123456789ABCXYZ \t#?*";
  const std::size_t len = rng.index(12);
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.index(sizeof(alphabet) - 1)]);
  }
  return s;
}

std::string random_key(Rng& rng) {
  switch (rng.index(4)) {
    case 0:
      return known_keys()[rng.index(known_keys().size())];
    case 1:
      return dotted_prefixes()[rng.index(dotted_prefixes().size())] +
             random_junk(rng);
    case 2: {
      // Mutate a known key (prefix/suffix/truncate).
      std::string k = known_keys()[rng.index(known_keys().size())];
      if (!k.empty() && rng.index(2) == 0) k.pop_back();
      if (rng.index(2) == 0) k += random_junk(rng);
      return k;
    }
    default:
      return random_junk(rng);
  }
}

std::string random_value(Rng& rng) {
  if (rng.index(3) == 0) return random_junk(rng);
  return value_pool()[rng.index(value_pool().size())];
}

// Field-for-field equality over everything the parser can set.
void expect_specs_equal(const api::ScenarioSpec& a, const api::ScenarioSpec& b,
                        std::uint64_t seed) {
  EXPECT_EQ(a.name, b.name) << "corpus seed " << seed;
  EXPECT_EQ(a.seed, b.seed) << "corpus seed " << seed;
  EXPECT_EQ(a.num_devices, b.num_devices) << "corpus seed " << seed;
  EXPECT_EQ(a.num_jobs, b.num_jobs) << "corpus seed " << seed;
  EXPECT_EQ(a.workload, b.workload) << "corpus seed " << seed;
  EXPECT_EQ(a.bias.has_value(), b.bias.has_value()) << "corpus seed " << seed;
  if (a.bias && b.bias) EXPECT_EQ(*a.bias, *b.bias);
  EXPECT_EQ(a.horizon, b.horizon) << "corpus seed " << seed;
  EXPECT_EQ(a.job_trace.min_rounds, b.job_trace.min_rounds);
  EXPECT_EQ(a.job_trace.max_rounds, b.job_trace.max_rounds);
  EXPECT_EQ(a.job_trace.min_demand, b.job_trace.min_demand);
  EXPECT_EQ(a.job_trace.max_demand, b.job_trace.max_demand);
  EXPECT_EQ(a.job_trace.mean_interarrival, b.job_trace.mean_interarrival);
  EXPECT_EQ(a.job_trace.base_trace_size, b.job_trace.base_trace_size);
  EXPECT_EQ(a.job_trace.nominal_task_s, b.job_trace.nominal_task_s);
  EXPECT_EQ(a.job_trace.task_cv, b.job_trace.task_cv);
  EXPECT_EQ(a.arrival_gen.name, b.arrival_gen.name);
  EXPECT_EQ(a.arrival_gen.params.kv, b.arrival_gen.params.kv);
  EXPECT_EQ(a.mix_gen.name, b.mix_gen.name);
  EXPECT_EQ(a.mix_gen.params.kv, b.mix_gen.params.kv);
  EXPECT_EQ(a.churn_gen.name, b.churn_gen.name);
  EXPECT_EQ(a.churn_gen.params.kv, b.churn_gen.params.kv);
  EXPECT_EQ(a.protocol_gen.name, b.protocol_gen.name);
  EXPECT_EQ(a.protocol_gen.params.kv, b.protocol_gen.params.kv);
  EXPECT_EQ(a.open_loop, b.open_loop) << "corpus seed " << seed;
  EXPECT_EQ(a.shards, b.shards) << "corpus seed " << seed;
  EXPECT_EQ(a.topology, b.topology) << "corpus seed " << seed;
  EXPECT_EQ(a.topo_regions, b.topo_regions) << "corpus seed " << seed;
  EXPECT_EQ(a.topo_sync_latency, b.topo_sync_latency)
      << "corpus seed " << seed;
  EXPECT_EQ(a.topo_phase_spread, b.topo_phase_spread)
      << "corpus seed " << seed;
  EXPECT_EQ(a.journal_enabled, b.journal_enabled) << "corpus seed " << seed;
  EXPECT_EQ(a.journal_dir, b.journal_dir) << "corpus seed " << seed;
  EXPECT_EQ(a.snapshot_every, b.snapshot_every) << "corpus seed " << seed;
  EXPECT_EQ(a.journal_halt_after, b.journal_halt_after)
      << "corpus seed " << seed;
}

TEST(ScenarioFuzz, NoCrashAndRoundTripOverSeededCorpus) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(Rng::derive(9000, seed));
    api::ScenarioSpec spec;
    std::vector<std::pair<std::string, std::string>> accepted;

    const std::size_t ops = 60 + rng.index(60);
    for (std::size_t i = 0; i < ops; ++i) {
      const std::string key = random_key(rng);
      const std::string value = random_value(rng);
      try {
        if (spec.try_set(key, value)) accepted.emplace_back(key, value);
        // false = not a scenario key; both outcomes are fine.
      } catch (const std::exception&) {
        // Recognized key, rejected value (or a conflicting protocol=):
        // must leave the spec usable — keep fuzzing it.
      }
    }

    // Round trip: replaying the accepted overrides in order onto a fresh
    // spec lands on the same spec. (Later overrides may overwrite earlier
    // ones; replay order preserves that.)
    api::ScenarioSpec replay;
    for (const auto& [key, value] : accepted) {
      try {
        ASSERT_TRUE(replay.try_set(key, value))
            << "accepted key rejected on replay: " << key << "=" << value
            << " (corpus seed " << seed << ")";
      } catch (const std::exception& e) {
        // A `protocol=` conflict can re-throw on replay only if it threw
        // originally — but originally-throwing sets were never recorded.
        FAIL() << "accepted override threw on replay: " << key << "=" << value
               << ": " << e.what() << " (corpus seed " << seed << ")";
      }
    }
    expect_specs_equal(spec, replay, seed);
  }
}

// Directed edge cases the random corpus might miss: every known key fed
// every pool value. Nothing may crash; errors must be invalid_argument.
TEST(ScenarioFuzz, EveryKnownKeyAgainstEveryPoolValue) {
  for (const std::string& key : known_keys()) {
    for (const std::string& value : value_pool()) {
      api::ScenarioSpec spec;
      try {
        (void)spec.try_set(key, value);
      } catch (const std::invalid_argument&) {
        // expected failure mode
      } catch (const std::exception& e) {
        // Registry lookups may throw other std::exception subclasses;
        // anything non-std terminates the test process and fails loudly.
        SUCCEED() << key << "=" << value << ": " << e.what();
      }
    }
  }
}

// The durability knobs: parse-validated, aliases agree, raw paths kept.
TEST(ScenarioFuzz, JournalKnobParsing) {
  api::ScenarioSpec spec;
  EXPECT_FALSE(spec.journal_enabled);
  EXPECT_EQ(spec.snapshot_every, 0u);
  spec.set("journal", "1");
  EXPECT_TRUE(spec.journal_enabled);
  spec.set("journal", "0");
  EXPECT_FALSE(spec.journal_enabled);
  EXPECT_THROW(spec.set("journal", "yes"), std::invalid_argument);

  // journal.dir takes the value verbatim (it is a filesystem path).
  spec.set("journal.dir", "runs/j nl.d");
  EXPECT_EQ(spec.journal_dir, "runs/j nl.d");

  // snapshot_every accepts both spellings and they set the same field.
  spec.set("snapshot_every", "12");
  EXPECT_EQ(spec.snapshot_every, 12u);
  spec.set("snapshot-every", "7");
  EXPECT_EQ(spec.snapshot_every, 7u);
  EXPECT_THROW(spec.set("snapshot_every", "-2"), std::invalid_argument);
  EXPECT_THROW(spec.set("snapshot-every", "two"), std::invalid_argument);
  EXPECT_EQ(spec.snapshot_every, 7u);  // failed sets leave it untouched

  spec.set("journal.halt-after", "9");
  EXPECT_EQ(spec.journal_halt_after, 9u);
  EXPECT_THROW(spec.set("journal.halt-after", "x"), std::invalid_argument);
}

// Canonical kv round-trip: to_kv() replayed through set() reproduces the
// spec exactly — including exact-double keys (horizon-s, interarrival-s),
// which is what journal replay leans on.
TEST(ScenarioFuzz, CanonicalKvRoundTripsExactly) {
  api::ScenarioSpec spec;
  spec.set("seed", "97");
  spec.set("devices", "1234");
  spec.set("jobs", "17");
  spec.set("horizon-days", "2.7");  // lossy spelling in, exact -s out
  spec.set("interarrival-min", "95.3");
  spec.set("churn", "weibull");
  spec.set("shards", "4");
  spec.set("topology", "hier");
  spec.set("topo.regions", "5");
  spec.set("topo.sync_latency", "33.5");
  spec.set("topo.phase_spread", "7.25");
  spec.set("snapshot_every", "5");

  api::ScenarioSpec back;
  const std::string kv = spec.to_kv();
  std::size_t pos = 0;
  while (pos < kv.size()) {
    std::size_t nl = kv.find('\n', pos);
    if (nl == std::string::npos) nl = kv.size();
    const std::string line = kv.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    back.set(line.substr(0, eq), line.substr(eq + 1));
  }
  expect_specs_equal(spec, back, 0);
  EXPECT_EQ(back.to_kv(), kv);  // fixed point
}

// The shards knob specifically: range-validated, exact bounds.
TEST(ScenarioFuzz, ShardsKnobBounds) {
  api::ScenarioSpec spec;
  EXPECT_EQ(spec.shards, 1u);
  spec.set("shards", "64");
  EXPECT_EQ(spec.shards, 64u);
  spec.set("shards", "1");
  EXPECT_EQ(spec.shards, 1u);
  EXPECT_THROW(spec.set("shards", "0"), std::invalid_argument);
  EXPECT_THROW(spec.set("shards", "65"), std::invalid_argument);
  EXPECT_THROW(spec.set("shards", "-4"), std::invalid_argument);
  EXPECT_THROW(spec.set("shards", "eight"), std::invalid_argument);
  EXPECT_THROW(spec.set("shards", "8.5"), std::invalid_argument);
  EXPECT_EQ(spec.shards, 1u);  // failed sets leave the value untouched
}

// Retired keys are unknown keys like any other — not silently accepted —
// so a stale override or an old journal header fails loudly, naming the
// key:
//   index=  selected a full-fleet-scan fallback of the eligibility index;
//   stream= chose between replaying and streaming churn sessions, which
//           always stream now (every earlier journal header carries it).
TEST(ScenarioFuzz, RetiredKeysAreRejected) {
  for (const char* key : {"index", "stream"}) {
    for (const char* value : {"0", "1"}) {
      api::ScenarioSpec spec;
      EXPECT_FALSE(spec.try_set(key, value)) << key << "=" << value;
      try {
        spec.set(key, value);
        FAIL() << key << "=" << value << " should throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("\"" + std::string(key) + "\""),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// The topology knobs: mode-validated, range-validated, conflicts and
// unknown topo.* keys rejected with messages naming the offender.
TEST(ScenarioFuzz, TopologyKnobBounds) {
  api::ScenarioSpec spec;
  EXPECT_TRUE(spec.topology.empty());
  EXPECT_FALSE(spec.topo_regions.has_value());
  EXPECT_THROW(spec.set("topology", "ring"), std::invalid_argument);
  spec.set("topology", "hier");
  EXPECT_EQ(spec.topology, "hier");
  // Conflicting re-set names both values; same-value re-set is idempotent.
  try {
    spec.set("topology", "flat");
    FAIL() << "conflicting topology should throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flat"), std::string::npos) << msg;
  }
  EXPECT_NO_THROW(spec.set("topology", "hier"));

  spec.set("topo.regions", "2");
  EXPECT_EQ(*spec.topo_regions, 2u);
  spec.set("topo.regions", "64");
  EXPECT_EQ(*spec.topo_regions, 64u);
  EXPECT_THROW(spec.set("topo.regions", "1"), std::invalid_argument);
  EXPECT_THROW(spec.set("topo.regions", "65"), std::invalid_argument);
  EXPECT_THROW(spec.set("topo.regions", "four"), std::invalid_argument);
  EXPECT_EQ(*spec.topo_regions, 64u);  // failed sets leave it untouched

  spec.set("topo.sync_latency", "0");
  EXPECT_EQ(*spec.topo_sync_latency, 0.0);
  EXPECT_THROW(spec.set("topo.sync_latency", "-1"), std::invalid_argument);
  EXPECT_THROW(spec.set("topo.sync_latency", "nan"), std::invalid_argument);
  spec.set("topo.phase_spread", "8.5");
  EXPECT_EQ(*spec.topo_phase_spread, 8.5);
  EXPECT_THROW(spec.set("topo.phase_spread", "-0.1"), std::invalid_argument);
  EXPECT_THROW(spec.set("topo.phase_spread", "inf"), std::invalid_argument);

  // Unknown topo.* keys are recognized-but-rejected (not silently ignored
  // like foreign keys) and the message names the key.
  try {
    spec.set("topo.fanout", "2");
    FAIL() << "unknown topo.* key should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("topo.fanout"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace venn
