// Input corpus / queue management.
//
// Follows AFL's shape: entries that produced new coverage join the queue;
// scheduling favors fast, small, rarely-picked entries. Each entry carries
// the aggressive-policy cursor (paper: the cursor cycles per input).

#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sync.h"
#include "src/fuzz/policy.h"
#include "src/spec/program.h"

namespace nyx {

struct CorpusEntry {
  Program program;  // snapshot markers stripped
  uint64_t vtime_ns = 0;
  size_t packet_count = 0;
  uint64_t picks = 0;
  double found_at_vsec = 0.0;
  AggressiveCursor cursor;
  // Cached schedule weight (lower is better): picks + vtime_ns * 1e-7.
  // Maintained incrementally by Corpus (Add/Pick/SetVtime) so scheduling
  // never recomputes weights over entries. Mutate vtime_ns/picks only
  // through Corpus so the cache and the corpus-wide sum stay consistent.
  double weight = 0.0;
};

class Corpus {
 public:
  // When a spec is attached, Add() statically verifies every incoming
  // program (spec/verify.h) and rejects ill-formed ones, so a buggy mutator
  // or corrupt seed cannot poison the queue. The spec must outlive the
  // corpus. The default-constructed corpus skips verification (tests that
  // hand-craft programs).
  Corpus() = default;
  explicit Corpus(const Spec* spec) : spec_(spec) {}

  // Returns false (and drops the program) if verification rejects it, or,
  // with a spec attached, if an equal program is already queued. Programs
  // are compared with their snapshot markers stripped and up to their last
  // op that steps the target, so a mutant that only moved the marker of a
  // queued entry, or appended fault plans nothing consults, is a duplicate.
  // Coverage has already been merged globally by the time Add runs, so
  // dropping a duplicate loses nothing.
  bool Add(Program program, uint64_t vtime_ns, size_t packet_count, double found_at_vsec);

  // Duplicates rejected so far (campaign stats).
  uint64_t corpus_dupes() const { return corpus_dupes_; }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Weighted pick: newer, faster and less-picked entries are preferred.
  CorpusEntry& Pick(Rng& rng);

  // Records the measured execution time of entry `i`, updating its cached
  // schedule weight (call this instead of writing entry(i).vtime_ns).
  void SetVtime(size_t i, uint64_t vtime_ns);

  // Sum of all cached entry weights, maintained incrementally.
  double WeightSum() const { return weight_sum_; }

  CorpusEntry& entry(size_t i) { return entries_[i]; }
  const CorpusEntry& entry(size_t i) const { return entries_[i]; }

  // Donor views for splicing. Entries live in a deque, so these pointers
  // (and references returned by Pick/entry) stay valid across Add().
  std::vector<const Program*> Donors() const;

 private:
  static double EntryWeight(const CorpusEntry& e);

  const Spec* spec_ = nullptr;
  std::deque<CorpusEntry> entries_;
  double weight_sum_ = 0.0;
  // Ops hashes of every queued entry up to its last step (spec attached
  // only).
  std::unordered_set<uint64_t> seen_;
  uint64_t corpus_dupes_ = 0;
  // The queue is worker-owned, never locked: one NyxFuzzer mutates it on
  // one thread start-to-finish (DESIGN.md §8.1). Frontier imports happen on
  // that same thread after ExchangeSync returns. Debug builds verify the
  // single-thread claim on every mutating entry point.
  ThreadChecker thread_checker_;
};

}  // namespace nyx

#endif  // SRC_FUZZ_CORPUS_H_
