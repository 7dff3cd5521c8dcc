// On-disk campaign state, AFL-style:
//
//   <workdir>/queue/id_000042.nyx     bytecode corpus entries
//   <workdir>/crashes/<id>_<kind>.nyx crash reproducers
//   <workdir>/stats.txt               final campaign statistics (text)
//   <workdir>/metrics.json            same statistics, machine-readable,
//                                     plus the process-wide metric registry
//                                     (phase histograms when telemetry is on)
//   <workdir>/plot_data               per-campaign time series CSV
//                                     (vtime, execs, branch coverage)
//
// The stats files are written via tmp+fsync+rename, so readers never observe
// a truncated file even if the run is killed mid-write.
//
// The wire format is the Program serialization (src/spec/program.h), so
// corpus entries can be copied between campaigns, hand-edited via the
// Builder, or replayed with the nyx-net-repro tool.

#ifndef SRC_FUZZ_WORKDIR_H_
#define SRC_FUZZ_WORKDIR_H_

#include <optional>
#include <string>
#include <vector>

#include "src/fuzz/fuzzer.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {

class Workdir {
 public:
  // Creates <path>, <path>/queue and <path>/crashes if missing.
  static std::optional<Workdir> Open(const std::string& path);

  const std::string& path() const { return path_; }

  // Queue persistence.
  bool SaveQueueEntry(const Program& program, size_t index) const;
  std::vector<Program> LoadQueue(const Spec& spec) const;

  // Crash persistence.
  bool SaveCrash(uint32_t crash_id, const std::string& kind, const Program& reproducer) const;
  std::vector<std::pair<std::string, Program>> LoadCrashes(const Spec& spec) const;

  // Writes the whole campaign result: queue, crashes and stats.txt.
  bool SaveCampaign(const CampaignResult& result, const Corpus& corpus) const;

  // Single-file helpers. ReadProgram decodes with Program::Parse; a file
  // it rejects is logged as a warning, or, when `verdict` is given, left
  // for the caller to report from the diagnostics (an unreadable file
  // leaves `verdict` empty).
  static bool WriteProgram(const std::string& file, const Program& program);
  static std::optional<Program> ReadProgram(const std::string& file, const Spec& spec,
                                            spec::Result* verdict = nullptr);
  // Files in `dir` whose names end in `suffix`, sorted; empty when `dir`
  // cannot be read.
  static std::vector<std::string> ListFiles(const std::string& dir, const std::string& suffix);

 private:
  explicit Workdir(std::string path) : path_(std::move(path)) {}

  std::string path_;
};

}  // namespace nyx

#endif  // SRC_FUZZ_WORKDIR_H_
