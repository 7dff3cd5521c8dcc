// Importing PCAP captures as seed inputs (paper section 4.4).
//
// "Dumping network traffic is easy. As such, loading seed inputs adds
// tremendous value to fuzzing campaigns."
//
// This example synthesizes a capture of an FTP session (as Wireshark would
// have recorded it), converts it into bytecode seeds with the CRLF packet
// dissector, and fuzzes the proftpd target with them — eventually finding
// the dangling-cwd crash that only snapshot-grade throughput reaches.

#include <cstdio>

#include "src/fuzz/fuzzer.h"
#include "src/spec/pcap.h"
#include "src/targets/registry.h"

int main() {
  using namespace nyx;

  // A capture: client 10.0.0.1 talks to the FTP server 10.0.0.2:2122.
  // Note the deliberately messy segmentation — one command split across two
  // TCP segments, a retransmission — which reassembly must fix.
  const uint32_t client = 0x0a000001;
  const uint32_t server = 0x0a000002;
  std::vector<PcapPacket> packets;
  auto add = [&](uint32_t seq, const char* payload) {
    PcapPacket pkt;
    pkt.ts_sec = static_cast<uint32_t>(1000 + packets.size());
    pkt.frame = BuildTcpFrame(client, server, 40000, 2122, seq, ToBytes(payload));
    packets.push_back(std::move(pkt));
  };
  add(1, "USER anonymous\r\n");
  add(17, "PASS guest\r\nMKD ");  // command split mid-line...
  add(33, "files\r\n");           // ...finished in the next segment
  add(17, "PASS guest\r\nMKD ");  // retransmission (duplicate)
  add(40, "CWD files\r\nRMD files\r\nLIST\r\nQUIT\r\n");
  const Bytes capture = PcapFile::Write(packets);
  printf("synthesized capture: %zu bytes, %zu frames\n", capture.size(), packets.size());

  // Convert: client->server payloads, reassembled and split at CRLF.
  auto reg = FindTarget("proftpd");
  Spec spec = reg->make_spec();
  auto seed = ProgramFromPcap(spec, capture, 2122, SplitStrategy::kCrlf);
  if (!seed.has_value()) {
    printf("conversion failed\n");
    return 1;
  }
  std::vector<size_t> pkt_idx;
  seed->PacketOpIndices(spec, pkt_idx);
  printf("converted to a %zu-op bytecode seed (%zu logical packets):\n", seed->ops.size(),
         pkt_idx.size());
  for (size_t i : pkt_idx) {
    std::string line = ToString(seed->ops[i].data);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    printf("  pkt: %s\n", line.c_str());
  }

  // Fuzz with the imported seed.
  EngineConfig engine_cfg;
  engine_cfg.vm.mem_pages = 1024;
  FuzzerConfig fuzz_cfg;
  fuzz_cfg.policy = PolicyMode::kBalanced;
  fuzz_cfg.seed = 7;
  NyxFuzzer fuzzer(engine_cfg, reg->factory, spec, fuzz_cfg);
  fuzzer.AddSeed(std::move(*seed));

  CampaignLimits limits;
  limits.vtime_seconds = 7200.0;
  limits.wall_seconds = 60.0;
  limits.stop_on_crash = true;
  limits.stop_on_crash_id = kCrashProftpdMkdNull;
  printf("\nfuzzing proftpd with the PCAP seed (up to 2 virtual hours)...\n");
  CampaignResult result = fuzzer.Run(limits);
  printf("executions: %lu, coverage: %zu\n", static_cast<unsigned long>(result.execs),
         result.branch_coverage);
  if (result.FoundCrash(kCrashProftpdMkdNull)) {
    const auto& rec = result.crashes.at(kCrashProftpdMkdNull);
    printf("CRASH reproduced: %s (first seen after %.0f virtual seconds)\n",
           rec.kind.c_str(), rec.first_seen_vsec);
  } else {
    printf("no crash within this budget — re-run with a different seed or more time\n");
  }
  return 0;
}
