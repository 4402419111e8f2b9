// Self-tests of the benchmark's own instruments: the output check, the
// delivery reconstruction and the per-kind record counts.
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

namespace {

int report(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

/// A perturbed fingerprint, a truncated one and a missing reference all
/// fail the output check; the exact text passes.
int test_perturbed_fingerprint(const std::string& work_dir) {
  experiment::ScenarioConfig config = paper_config(kReferenceSeed);
  config.lambda = 8.0;
  const std::string fingerprint = run_simulation(config).fingerprint;
  const std::string path = work_dir + "/selftest.reference.txt";
  std::ofstream(path) << fingerprint;

  std::string perturbed = fingerprint;
  const std::size_t digit = perturbed.find_first_of("123456789");
  perturbed[digit] = perturbed[digit] == '9' ? '8' : '9';
  std::string why;
  int failures = 0;
  failures += report(matches_reference(path, fingerprint, why),
                     "exact fingerprint passes the output check");
  const bool perturbed_fails = !matches_reference(path, perturbed, why);
  failures += report(perturbed_fails,
                     "perturbed fingerprint fails the output check (" + why +
                         ")");
  failures += report(
      !matches_reference(path, fingerprint.substr(0, fingerprint.size() / 2),
                         why),
      "truncated fingerprint fails the output check");
  failures += report(!matches_reference(path + ".absent", fingerprint, why),
                     "missing reference fails the output check");
  std::remove(path.c_str());
  return failures;
}

/// On a kill-free run the deliveries the counting sink reconstructs from
/// send records equal what a SimTransport delivers when those sends are
/// replayed through it, and what the phase count of the run reports.
int test_deliveries() {
  int failures = 0;
  for (const proto::ProtocolKind kind :
       {proto::ProtocolKind::kRealtor, proto::ProtocolKind::kPurePush}) {
    experiment::ScenarioConfig config = paper_config(kReferenceSeed);
    config.protocol_kind = kind;
    config.lambda = 8.0;
    CountingSink sink(config.topology.node_count(), nullptr, 0,
                      /*record_sends=*/true);
    const SimRun run = run_simulation(
        config, [&](experiment::Simulation& s) { s.set_trace_sink(&sink); });
    const std::uint64_t replayed =
        replay_deliveries(config.topology, sink.sends());
    failures += report(
        sink.deliveries() == replayed && replayed == run.deliveries &&
            replayed > 0,
        std::string(proto::paper_label(kind)) + ": sink deliveries " +
            std::to_string(sink.deliveries()) + " = transport probe " +
            std::to_string(replayed) + " = phase count " +
            std::to_string(run.deliveries));
  }
  return failures;
}

/// Per-kind send records equal MessageLedger sends for every paper scheme
/// and for a run with an attack wave.
int test_kind_counts() {
  int failures = 0;
  std::vector<experiment::ScenarioConfig> configs;
  for (const proto::ProtocolKind kind : proto::kAllProtocolKinds) {
    experiment::ScenarioConfig config = paper_config(kReferenceSeed);
    config.protocol_kind = kind;
    config.lambda = 9.0;
    configs.push_back(config);
  }
  experiment::ScenarioConfig attacked = paper_config(kReferenceSeed);
  attacked.lambda = 9.0;
  attacked.attacks.push_back(experiment::AttackWave{300.0, 3, 2.0, 100.0});
  configs.push_back(attacked);

  for (const experiment::ScenarioConfig& config : configs) {
    CountingSink sink(config.topology.node_count());
    const SimRun run = run_simulation(
        config, [&](experiment::Simulation& s) { s.set_trace_sink(&sink); });
    const net::MessageLedger& ledger = run.metrics.ledger;
    const bool ok =
        sink.count(obs::EventKind::kHelpSent) ==
            ledger.sends(net::MessageKind::kHelp) &&
        sink.count(obs::EventKind::kPledgeSent) ==
            ledger.sends(net::MessageKind::kPledge) &&
        sink.count(obs::EventKind::kAdvertSent) ==
            ledger.sends(net::MessageKind::kPushAdvert) &&
        sink.deliveries() == run.deliveries;
    failures += report(
        ok, std::string(proto::paper_label(config.protocol_kind)) +
                (config.attacks.empty() ? "" : " with attack") +
                ": help/pledge/advert records = ledger sends (" +
                std::to_string(ledger.sends(net::MessageKind::kHelp)) + "/" +
                std::to_string(ledger.sends(net::MessageKind::kPledge)) + "/" +
                std::to_string(ledger.sends(net::MessageKind::kPushAdvert)) +
                ")");
  }
  return failures;
}

}  // namespace

int run_self_tests(const std::string& work_dir) {
  int failures = 0;
  failures += test_perturbed_fingerprint(work_dir);
  failures += test_deliveries();
  failures += test_kind_counts();
  std::printf("%d self-test failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
