// Seeded mutation tests for the alert-rule grammar (obs/live/rules.hpp).
// Starting from the default rules and the README/DESIGN examples, bytes
// are flipped, inserted (biased towards the grammar's own punctuation and
// number syntax), deleted, truncated and spliced between specs; whatever the damage, the parser
// must either
//
//   - accept the spec, and then the rule's canonical to_string() must
//     re-parse to the very same rule (and render identically again); or
//   - reject it with a non-empty error.
//
// It must never crash or hang. Plain gtest with fixed seeds: every
// failure replays exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "obs/live/rules.hpp"

namespace realtor::obs::live {
namespace {

std::vector<std::string> seed_specs() {
  std::vector<std::string> specs = default_alert_rules();
  for (const char* spec :
       {"p99_deadline:episode_p99>5/60", "burn:admission_burn@0.95>2/100",
        "quorum:nodes_alive<=12", "storm:help_rate>3x/30",
        "backlog:open_episodes>=40", "chatter:message_rate>2.5e1/15",
        "refusals:rejection_rate>0.5x", "median:episode_p50<1e-3/10"}) {
    specs.emplace_back(spec);
  }
  return specs;
}

/// One random edit: flip a bit, insert a byte (mostly grammar syntax),
/// delete a byte, truncate, or splice in a slice of another corpus spec
/// (which moves whole tokens — @params, suffixes, windows — between
/// signals).
void mutate(std::string& spec, const std::vector<std::string>& corpus,
            std::mt19937_64& rng) {
  static const char kInserts[] = ":@<>=x/.-+eE0123456789_ nainfNAINF\n\"";
  const std::size_t pos = spec.empty() ? 0 : rng() % spec.size();
  switch (rng() % 5) {
    case 0:
      if (!spec.empty()) {
        spec[pos] = static_cast<char>(
            static_cast<unsigned char>(spec[pos]) ^ (1u << (rng() % 8)));
      }
      break;
    case 1: {
      const char byte = rng() % 8 == 0
                            ? static_cast<char>(rng() % 256)
                            : kInserts[rng() % (sizeof(kInserts) - 1)];
      spec.insert(spec.begin() + static_cast<std::ptrdiff_t>(pos), byte);
      break;
    }
    case 2:
      if (!spec.empty()) {
        spec.erase(spec.begin() + static_cast<std::ptrdiff_t>(pos));
      }
      break;
    case 3:
      spec.resize(pos);
      break;
    default: {
      const std::string& donor = corpus[rng() % corpus.size()];
      const std::size_t from = rng() % donor.size();
      const std::size_t length = 1 + rng() % (donor.size() - from);
      spec.insert(pos, donor, from, length);
      break;
    }
  }
}

bool same_number(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool same_rule(const AlertRule& a, const AlertRule& b) {
  return a.name == b.name && a.signal == b.signal && a.op == b.op &&
         same_number(a.bound, b.bound) && a.relative == b.relative &&
         same_number(a.param, b.param) && same_number(a.window, b.window);
}

TEST(RuleMutation, EveryMutantRoundTripsOrFailsWithAReason) {
  std::mt19937_64 rng(0x5eed'a1e7ULL);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const std::vector<std::string> corpus = seed_specs();
  for (const std::string& seed : corpus) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::string spec = seed;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) mutate(spec, corpus, rng);

      AlertRule rule;
      std::string error;
      if (!parse_alert_rule(spec, rule, &error)) {
        EXPECT_FALSE(error.empty()) << "silent rejection of '" << spec << "'";
        ++rejected;
        continue;
      }
      ++accepted;
      const std::string canonical = to_string(rule);
      AlertRule again;
      std::string again_error;
      ASSERT_TRUE(parse_alert_rule(canonical, again, &again_error))
          << "'" << spec << "' rendered as '" << canonical
          << "', which does not parse: " << again_error;
      EXPECT_TRUE(same_rule(rule, again))
          << "'" << spec << "' -> '" << canonical << "' -> '"
          << to_string(again) << "'";
      EXPECT_EQ(to_string(again), canonical);
    }
  }
  // The corpus must exercise both outcomes, or the test proves nothing.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// Specs the grammar documents as invalid, each a mutant's likely shape.
TEST(RuleMutation, DocumentedInvalidSpecsAreRejected) {
  for (const char* spec :
       {"", ":help_rate>3", "noexpr", "a:help_rate", "a:>3", "a:bogus>1",
        "a:help_rate>", "a:help_rate>3/", "a:help_rate>3/0",
        "a:help_rate>3/-5", "a:nodes_alive<3x", "a:admission_burn>2",
        "a:admission_burn@1.5>2", "a:help_rate@0.5>3", "a:help_rate>nan",
        "a:help_rate>3/inf", "a:admission_probability<0.9/nan",
        "a:admission_probability<0.9/1e30"}) {
    AlertRule rule;
    std::string error;
    EXPECT_FALSE(parse_alert_rule(spec, rule, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

}  // namespace
}  // namespace realtor::obs::live
