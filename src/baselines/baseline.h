// Baseline fuzzers the paper compares against (sections 2.1, 5.1-5.3):
//
//   AFLNet          — sends packets over real sockets to a freshly restarted
//                     server each execution; fixed readiness sleeps, a
//                     user-written cleanup script, and response-code state
//                     machine feedback.
//   AFLNet-no-state — AFLNet without the state machine; in our model it also
//                     keeps the server process alive across executions (only
//                     the cleanup script runs), which is what let it trip
//                     pure-ftpd's internal allocation limit (Table 1 `*`).
//   AFLNwe          — AFLNet's network-replacement mode: same transport
//                     costs, no state machine.
//   AFL++ + desock  — LIBPREENY-style socket-to-stdin redirection: the whole
//                     input is one coalesced stream, packet boundaries are
//                     lost, and anything needing real socket semantics
//                     (multiple connections, UDP, fork servers) fails (the
//                     "n/a" rows of Tables 1-3).
//   IJON            — AFL with IJON's maximization feedback, fork-server
//                     restarts and pipe-fed input (the Super Mario baseline).
//
// All baselines run the *same* targets on the same substrate; only their
// transport/restart mechanics and cost models differ. The underlying VM
// snapshot is used as the mechanical implementation of "restart the
// process" — the virtual clock charges what the real restart would cost.

#ifndef SRC_BASELINES_BASELINE_H_
#define SRC_BASELINES_BASELINE_H_

#include <memory>
#include <set>
#include <string>

#include "src/fuzz/fuzzer.h"

namespace nyx {

enum class BaselineKind {
  kAflnet,
  kAflnetNoState,
  kAflnwe,
  kAflppDesock,
  kIjon,
};

const char* BaselineName(BaselineKind kind);

struct BaselineConfig {
  BaselineKind kind = BaselineKind::kAflnet;
  uint64_t seed = 1;
  // Extra virtual cost per delivered payload byte (IJON's pipe-fed frames).
  uint64_t per_byte_extra_ns = 0;
  // How often the no-state variant's server process is restarted anyway
  // (crash recovery); state accumulates in between.
  uint64_t no_state_restart_period = 4096;
};

class BaselineFuzzer {
 public:
  BaselineFuzzer(const EngineConfig& engine_config, TargetFactory factory, const Spec& spec,
                 const BaselineConfig& config);

  void AddSeed(Program seed);

  // Returns a result with supported() == false if this baseline cannot run
  // the target at all (desock vs. incompatible transports).
  CampaignResult Run(const CampaignLimits& limits);

  bool supported() const { return supported_; }

 private:
  ExecResult RunOneExec(const Program& input, CoverageMap& cov);
  bool AflnetStateFeedback();

  EngineConfig engine_config_;
  const Spec& spec_;
  BaselineConfig config_;
  VirtualClock clock_;
  std::unique_ptr<Vm> vm_;
  NetEmu net_;
  std::unique_ptr<Target> target_;
  TargetInfo target_info_;
  NetEmu::State boot_net_state_;
  bool supported_ = true;

  Corpus corpus_;
  Mutator mutator_;
  Rng noise_rng_{0x6e6f697365};
  GlobalCoverage global_cov_;
  CoverageMap trace_;
  Rng rng_;
  uint64_t execs_since_restart_ = 0;
  std::set<uint64_t> seen_state_sequences_;
  std::vector<int> exec_conns_;
  uint64_t last_exec_vtime_ = 0;
};

}  // namespace nyx

#endif  // SRC_BASELINES_BASELINE_H_
