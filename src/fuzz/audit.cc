#include "src/fuzz/audit.h"

#include "src/common/log.h"
#include "src/vm/page.h"

namespace nyx {

DivergenceAuditor::DivergenceAuditor()
    : pages_counter_(telemetry::MetricRegistry::Global().RegisterCounter("audit.pages_compared")),
      divergences_counter_(telemetry::MetricRegistry::Global().RegisterCounter("audit.divergences")),
      programs_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("audit.programs_audited")) {}

void DivergenceAuditor::Note(std::vector<Divergence>& out, std::string source,
                             std::string owner, uint64_t page) {
  stats_.divergences++;
  divergences_counter_->Add(1);
  Divergence d{std::move(source), std::move(owner), page};
  // Cap the per-comparison report; the counters and log_ keep the tally.
  if (out.size() < 16) {
    NYX_LOG_WARN << "snapshot divergence (" << comparing_ << "): " << d.source
                 << " owned by " << d.owner
                 << (d.source == "guest-page" ? " page " + std::to_string(page) : "");
    out.push_back(d);
  }
  log_.push_back(std::move(d));
}

void DivergenceAuditor::CompareState(const StateFingerprint& a, const StateFingerprint& b,
                                     const SnapshotStateRegistry& registry,
                                     std::vector<Divergence>& out) {
  // Guest memory: the page-granular walk IS the bisection — every diverging
  // page is attributed to the guest region that owns it.
  const size_t pages = a.page_hashes.size() < b.page_hashes.size() ? a.page_hashes.size()
                                                                   : b.page_hashes.size();
  stats_.pages_audited += pages;
  pages_counter_->Add(pages);
  for (size_t p = 0; p < pages; p++) {
    if (a.page_hashes[p] != b.page_hashes[p]) {
      Note(out, "guest-page", registry.GuestOwner(p * kPageSize), p);
    }
  }

  for (size_t i = 0; i < a.device_hashes.size() && i < b.device_hashes.size(); i++) {
    if (a.device_hashes[i] != b.device_hashes[i]) {
      Note(out, "device", a.device_hashes[i].first);
    }
  }

  if (a.disk_hash != b.disk_hash) {
    Note(out, "disk", "vm.block_device");
  }

  // Registered host state, by entry name. An entry present on one side only
  // means the registration set itself changed mid-run — report it as the
  // entry's own divergence.
  size_t i = 0, j = 0;
  while (i < a.host_hashes.size() || j < b.host_hashes.size()) {
    if (i < a.host_hashes.size() && j < b.host_hashes.size() &&
        a.host_hashes[i].first == b.host_hashes[j].first) {
      if (a.host_hashes[i].second != b.host_hashes[j].second) {
        Note(out, "host-state", a.host_hashes[i].first);
      }
      i++;
      j++;
    } else {
      Note(out, "host-state",
           i < a.host_hashes.size() ? a.host_hashes[i].first : b.host_hashes[j].first);
      break;
    }
  }
}

std::vector<DivergenceAuditor::Divergence> DivergenceAuditor::CompareReplay(
    const StateFingerprint& a, const StateFingerprint& b,
    const SnapshotStateRegistry& registry) {
  stats_.programs_audited++;
  programs_counter_->Add(1);
  comparing_ = "replay";
  std::vector<Divergence> out;
  CompareState(a, b, registry, out);

  // Every exec reseeds from the campaign seed, so a replay's per-exec RNG
  // end state must match too. Cross-restore runs draw a different number of
  // values (the resumed run skips the prefix), so only the replay path
  // checks this.
  if (a.rng_hash != b.rng_hash) {
    Note(out, "rng", "engine.exec_rng");
  }

  // Identical path + identical start state: coverage and observable results
  // must match exactly. A mismatch here with all registered state equal is
  // the signature of host state the registry never heard of.
  const bool state_clean = out.empty();
  if (a.edge_hash != b.edge_hash || a.sites != b.sites) {
    Note(out, "coverage", state_clean ? SnapshotStateRegistry::kUnregistered : "see-state");
  }
  if (a.crashed != b.crashed || a.crash_id != b.crash_id ||
      a.packets_delivered != b.packets_delivered || a.ijon_max != b.ijon_max) {
    Note(out, "result", state_clean ? SnapshotStateRegistry::kUnregistered : "see-state");
  }
  return out;
}

void DivergenceAuditor::ReportEphemeralFailures(const std::vector<std::string>& failed) {
  comparing_ = "ephemeral";
  std::vector<Divergence> scratch;
  for (const std::string& name : failed) {
    Note(scratch, "ephemeral", name);
  }
}

std::vector<DivergenceAuditor::Divergence> DivergenceAuditor::CompareCrossRestore(
    const StateFingerprint& full, const StateFingerprint& resumed,
    const SnapshotStateRegistry& registry) {
  stats_.cross_audits++;
  comparing_ = "cross-restore";
  std::vector<Divergence> out;
  CompareState(full, resumed, registry, out);

  // The resumed run skipped the prefix, so totals differ; but it must not
  // reach a site the full run never reached, and must end the same way.
  if (full.sites.size() == resumed.sites.size()) {
    for (size_t b = 0; b < resumed.sites.size(); b++) {
      if ((resumed.sites[b] & ~full.sites[b]) != 0) {
        Note(out, "coverage", SnapshotStateRegistry::kUnregistered);
        break;
      }
    }
  }
  if (full.crashed != resumed.crashed || full.crash_id != resumed.crash_id) {
    Note(out, "result", out.empty() ? SnapshotStateRegistry::kUnregistered : "see-state");
  }
  return out;
}

}  // namespace nyx
