#include "src/fuzz/trim.h"

#include <optional>
#include <vector>

#include "src/common/hash.h"

namespace nyx {
namespace {

// The trim oracle's notion of "same behaviour": coverage and observable
// outcome, nothing else. Deliberately narrower than the full audit
// fingerprint — trimming is allowed to drop packets and connections as long
// as the trace and outcome are identical.
struct CovFingerprint {
  uint64_t edge_hash = 0;
  uint64_t site_hash = 0;
  bool crashed = false;
  uint32_t crash_id = 0;
  uint64_t ijon_max = 0;

  bool operator==(const CovFingerprint& o) const {
    return edge_hash == o.edge_hash && site_hash == o.site_hash && crashed == o.crashed &&
           crash_id == o.crash_id && ijon_max == o.ijon_max;
  }
};

CovFingerprint Probe(NyxEngine& engine, const Program& p, CoverageMap& cov, TrimStats& stats) {
  cov.Reset();
  const ExecResult r = engine.Run(p, cov);
  stats.probe_execs++;
  CovFingerprint fp;
  fp.edge_hash = Fnv1a64(cov.map().data(), cov.map().size());
  fp.site_hash = Fnv1a64(cov.sites_hit().data(), cov.sites_hit().size());
  fp.crashed = r.crash.crashed;
  fp.crash_id = r.crash.crash_id;
  fp.ijon_max = r.ijon_max;
  return fp;
}

// A pass sweeps every candidate once; passes repeat until a fixpoint or
// this cap (removals can unlock further removals, e.g. a connection whose
// last packet was just removed).
constexpr size_t kMaxPasses = 8;

// Adds op `seed` and every op transitively using its outputs to `removed`
// (one flag per op of `p`) and returns `p` without the removed ops, args
// renumbered densely. Value ids are produced in op order and every use
// follows its def, so one forward pass finds the whole cone: an op goes
// when it is the seed or names a removed op's output. An id the input
// never produced is kept as-is.
Program RemoveCone(const Program& p, const Spec& spec, size_t seed, std::vector<bool>& removed) {
  removed[seed] = true;
  constexpr uint16_t kRemoved = 0xffff;
  std::vector<uint16_t> remap;  // old value id -> new value id
  uint16_t next_id = 0;
  Program out;
  for (size_t i = 0; i < p.ops.size(); i++) {
    const Op& op = p.ops[i];
    for (uint16_t arg : op.args) {
      if (arg < remap.size() && remap[arg] == kRemoved) {
        removed[i] = true;
      }
    }
    const size_t outputs =
        op.node_type < spec.node_type_count() ? spec.node_type(op.node_type).outputs.size() : 0;
    if (removed[i]) {
      remap.insert(remap.end(), outputs, kRemoved);
      continue;
    }
    Op kept = op;
    for (uint16_t& arg : kept.args) {
      if (arg < remap.size()) {
        arg = remap[arg];
      }
    }
    for (size_t o = 0; o < outputs; o++) {
      remap.push_back(next_id++);
    }
    out.ops.push_back(std::move(kept));
  }
  return out;
}

}  // namespace

Program TrimProgram(NyxEngine& engine, const Spec& spec, const Program& input,
                    TrimStats* stats) {
  TrimStats st;
  Program p = input;
  p.StripSnapshotMarkers();
  st.ops_before = p.ops.size();
  st.bytes_before = p.Serialize().size();

  const uint64_t divergences_before =
      engine.auditor() != nullptr ? engine.auditor()->stats().divergences : 0;

  CoverageMap cov;
  const CovFingerprint reference = Probe(engine, p, cov, st);

  for (size_t pass = 0; pass < kMaxPasses; pass++) {
    // Removals accepted this pass are flags over the pass-start program, so
    // the last accepted candidate is the pass result.
    std::vector<bool> removed(p.ops.size(), false);
    std::optional<Program> trimmed;
    for (size_t i = p.ops.size(); i-- > 0;) {
      if (removed[i]) {
        continue;
      }
      std::vector<bool> trial = removed;
      Program candidate = RemoveCone(p, spec, i, trial);
      if (Probe(engine, candidate, cov, st) == reference) {
        removed = std::move(trial);
        trimmed = std::move(candidate);
      }
    }
    if (!trimmed.has_value()) {
      break;
    }
    p = std::move(*trimmed);
  }

  st.ops_after = p.ops.size();
  st.bytes_after = p.Serialize().size();
  st.audit_divergences =
      (engine.auditor() != nullptr ? engine.auditor()->stats().divergences : 0) -
      divergences_before;
  if (stats != nullptr) {
    *stats = st;
  }
  return p;
}

}  // namespace nyx
