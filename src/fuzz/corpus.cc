#include "src/fuzz/corpus.h"

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/telemetry.h"
#include "src/spec/verify.h"

namespace nyx {
namespace {

// One past the last op that steps the target. Fault ops only arm netemu
// state for later steps, so a plan armed past this point is never
// consulted.
size_t StepsEnd(const Program& program, const Spec& spec) {
  for (size_t i = program.ops.size(); i-- > 0;) {
    const Op& op = program.ops[i];
    if (op.node_type >= spec.node_type_count() ||
        spec.node_type(op.node_type).semantic != NodeSemantic::kFault) {
      return i + 1;
    }
  }
  return 0;
}

}  // namespace

bool Corpus::Add(Program program, uint64_t vtime_ns, size_t packet_count, double found_at_vsec) {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  program.StripSnapshotMarkers();
  if (spec_ != nullptr) {
    telemetry::ScopedPhase phase(telemetry::Phase::kVerify);
    const spec::Result verdict = spec::Verify(program, *spec_);
    if (!NYX_EXPECT(verdict.ok())) {
      NYX_LOG_WARN << "corpus rejected ill-formed program: " << verdict.Summary();
      return false;
    }
    // The fuzzer only calls Add for inputs with new merged coverage, yet a
    // mutant that differs from a queued entry only in where its marker sat,
    // or in fault plans armed after its last step, can still report new
    // coverage.
    if (!seen_.insert(program.OpsHash(StepsEnd(program, *spec_))).second) {
      corpus_dupes_++;
      return false;
    }
  }
  CorpusEntry entry;
  entry.program = std::move(program);
  entry.vtime_ns = vtime_ns;
  entry.packet_count = packet_count;
  entry.found_at_vsec = found_at_vsec;
  entry.weight = EntryWeight(entry);
  weight_sum_ += entry.weight;
  entries_.push_back(std::move(entry));
  return true;
}

double Corpus::EntryWeight(const CorpusEntry& e) {
  // Lower is better: heavily picked or slow entries lose. The time term is
  // scaled so a ~10 ms execution weighs like one extra pick — favoring
  // fast, small entries keeps throughput high (AFL's favored-entry logic).
  return static_cast<double>(e.picks) + static_cast<double>(e.vtime_ns) * 1e-7;
}

CorpusEntry& Corpus::Pick(Rng& rng) {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  // Tournament selection over the cached weights: sample a few candidates,
  // keep the best-scoring.
  size_t best = rng.Below(entries_.size());
  for (int i = 0; i < 2; i++) {
    const size_t cand = rng.Below(entries_.size());
    if (entries_[cand].weight < entries_[best].weight) {
      best = cand;
    }
  }
  entries_[best].picks++;
  entries_[best].weight += 1.0;  // one pick costs exactly one weight unit
  weight_sum_ += 1.0;
  return entries_[best];
}

void Corpus::SetVtime(size_t i, uint64_t vtime_ns) {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  CorpusEntry& e = entries_[i];
  e.vtime_ns = vtime_ns;
  const double fresh = EntryWeight(e);
  weight_sum_ += fresh - e.weight;
  e.weight = fresh;
}

std::vector<const Program*> Corpus::Donors() const {
  std::vector<const Program*> out;
  out.reserve(entries_.size());
  for (const CorpusEntry& e : entries_) {
    out.push_back(&e.program);
  }
  return out;
}

}  // namespace nyx
