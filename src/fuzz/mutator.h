// Mutation engine auto-derived from the spec (paper section 2.2: "The
// fuzzer auto-generates a bytecode format and a custom VM [...] as well as
// custom mutators").
//
// Two layers of mutation:
//   * packet-level structure: duplicate / drop / swap / truncate / splice
//     packets, append packets drawn from other corpus entries;
//   * byte-level havoc inside packet payloads: bit flips, arithmetic,
//     interesting values, block insert/delete/overwrite, cross-packet
//     copies.
//
// When the fuzzer reuses an incremental snapshot, only ops strictly after
// the snapshot point may change — the prefix must stay byte-identical so the
// engine can skip it. `first_mutable_op` enforces that.

#ifndef SRC_FUZZ_MUTATOR_H_
#define SRC_FUZZ_MUTATOR_H_

#include <vector>

#include "src/common/rng.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {

class Mutator {
 public:
  // `dictionary` enables the protocol-token alphabet (Nyx-Net's spec-aware
  // mutators know about separators; plain AFLNet-style havoc does not).
  // `faults` lets the structural mutator insert/mutate/delete fault-plan ops
  // (FuzzerConfig::fault_injection); off, existing fault ops are left alone
  // but no new ones appear.
  Mutator(const Spec& spec, uint64_t seed, bool dictionary = true, bool faults = false)
      : spec_(spec), rng_(seed), dictionary_(dictionary), faults_(faults) {}

  // Applies 1..n stacked mutations to `program`, never touching ops before
  // `first_mutable_op`. `corpus_donors` provides splice material (may be
  // empty). The result is always Repair()ed, so spec::Verify accepts it: a
  // mutant never outgrows kMaxProgramOps, whatever its base and donors.
  void Mutate(Program& program, const std::vector<const Program*>& corpus_donors,
              size_t first_mutable_op);

  Rng& rng() { return rng_; }

 private:
  void HavocBytes(Bytes& data);
  bool StructureMutation(Program& program, const std::vector<const Program*>& donors,
                         size_t first_mutable_op);
  bool FaultMutation(Program& program, size_t first_mutable_op);
  // Binds each operand of `op` (about to be inserted at position `at`) to a
  // uniformly-random value of the required edge type that is *live* at that
  // point (Program::LiveValues). Operands with no live candidate are left for
  // Repair. Landing on live connections by construction beats the old
  // zero-arg-then-Repair path, which always rebound to the latest value.
  void BindArgsLive(Op& op, const Program& program, size_t at);

  const Spec& spec_;
  Rng rng_;
  bool dictionary_;
  bool faults_;
};

}  // namespace nyx

#endif  // SRC_FUZZ_MUTATOR_H_
