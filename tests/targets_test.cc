// Tests for the protocol targets: boot/seed smoke tests across the whole
// registry (parameterized), determinism, and one directed reproducer per
// seeded bug verifying the exact crash id from Table 1 / the case studies.

#include <gtest/gtest.h>

#include "src/fuzz/engine.h"
#include "src/spec/builder.h"
#include "src/spec/verify.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

EngineConfig SmallEngineConfig() {
  EngineConfig cfg;
  cfg.vm.mem_pages = 512;
  cfg.vm.disk_sectors = 256;
  return cfg;
}

class AllTargetsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllTargetsTest, BootsAndBlocksOnInput) {
  auto reg = FindTarget(GetParam());
  ASSERT_TRUE(reg.has_value());
  Spec spec = reg->make_spec();
  NyxEngine engine(SmallEngineConfig(), reg->factory, spec);
  engine.Boot();
  EXPECT_TRUE(engine.vm().has_root());
  EXPECT_TRUE(engine.net().blocked_on_input());
  EXPECT_FALSE(engine.net().consumed_input());
}

TEST_P(AllTargetsTest, SeedsRunCleanAndProduceCoverage) {
  auto reg = FindTarget(GetParam());
  ASSERT_TRUE(reg.has_value());
  Spec spec = reg->make_spec();
  NyxEngine engine(SmallEngineConfig(), reg->factory, spec);
  engine.Boot();
  const auto seeds = reg->make_seeds(spec);
  ASSERT_FALSE(seeds.empty());
  GlobalCoverage global;
  for (const Program& seed : seeds) {
    ASSERT_TRUE(spec::Verify(seed, spec).ok());
    CoverageMap cov;
    ExecResult r = engine.Run(seed, cov);
    EXPECT_FALSE(r.crash.crashed)
        << GetParam() << " seed crashed: " << r.crash.kind;
    EXPECT_GT(r.packets_delivered, 0u) << GetParam();
    global.MergeAndCheckNew(cov);
  }
  // Valid seeds must exercise a meaningful slice of the parser.
  EXPECT_GE(global.SiteCount(), 10u) << GetParam();
}

TEST_P(AllTargetsTest, SeedsAreDeterministic) {
  auto reg = FindTarget(GetParam());
  ASSERT_TRUE(reg.has_value());
  Spec spec = reg->make_spec();
  NyxEngine engine(SmallEngineConfig(), reg->factory, spec);
  engine.Boot();
  const Program seed = reg->make_seeds(spec)[0];
  CoverageMap warm;
  engine.Run(seed, warm);
  CoverageMap a;
  CoverageMap b;
  ExecResult ra = engine.Run(seed, a);
  ExecResult rb = engine.Run(seed, b);
  EXPECT_EQ(a.map(), b.map()) << GetParam();
  EXPECT_EQ(ra.vtime_ns, rb.vtime_ns) << GetParam();
}

std::vector<std::string> TargetNames() {
  std::vector<std::string> names;
  for (const auto& t : AllTargets()) {
    names.push_back(t.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, AllTargetsTest, ::testing::ValuesIn(TargetNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(RegistryTest, LookupAndCrashLists) {
  EXPECT_EQ(AllTargets().size(), 16u);
  EXPECT_FALSE(FindTarget("nope").has_value());
  auto exim = FindTarget("exim");
  ASSERT_TRUE(exim.has_value());
  ASSERT_EQ(exim->known_crashes.size(), 1u);
  EXPECT_EQ(exim->known_crashes[0], kCrashEximHeaderOverflow);
  size_t profuzz = 0;
  for (const auto& t : AllTargets()) {
    profuzz += t.in_profuzzbench ? 1 : 0;
  }
  EXPECT_EQ(profuzz, 13u);  // the ProFuzzBench suite
}

// ---- Directed reproducers for every seeded bug ----

ExecResult RunRaw(const std::string& target, std::initializer_list<Bytes> packets,
                  bool asan = false, uint64_t seed = 1) {
  auto reg = FindTarget(target);
  Spec spec = reg->make_spec();
  EngineConfig cfg = SmallEngineConfig();
  cfg.asan = asan;
  cfg.seed = seed;
  NyxEngine engine(cfg, reg->factory, spec);
  engine.Boot();
  Builder b(spec);
  ValueRef con = b.Connection();
  for (const Bytes& p : packets) {
    b.Packet(con, p);
  }
  CoverageMap cov;
  return engine.Run(*b.Build(), cov);
}

TEST(BugReproTest, DnsmasqCompressionPointerOob) {
  // Query whose name starts with a valid pointer that targets a second
  // pointer pointing past the end of the datagram.
  Bytes q = {0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  q.push_back(0xc0);
  q.push_back(14);  // pointer to offset 14 (the next two bytes)
  q.push_back(0xc0);
  q.push_back(0xff);  // nested pointer past the end -> OOB read
  ExecResult r = RunRaw("dnsmasq", {q});
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashDnsmasqOobRead);
}

TEST(BugReproTest, TinyDtlsFragmentLengthOob) {
  // Handshake record whose fragment_length exceeds the record body.
  Bytes hs = {1, 0, 4, 0, 0, 0, 0, 0, 0, 0, 2, 0};  // msg_len 1024, frag_len 512
  Bytes rec = {22, 0xfe, 0xfd, 0, 0, 0, 0, 0, 0, 0, 0};
  PutBe16(rec, static_cast<uint16_t>(hs.size()));
  Append(rec, hs);
  ExecResult r = RunRaw("tinydtls", {rec});
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashTinyDtlsFragLen);
}

TEST(BugReproTest, Live555RangeWithoutSession) {
  ExecResult r = RunRaw(
      "live555", {ToBytes("PLAY rtsp://h/s RTSP/1.0\r\nCSeq: 1\r\nRange: npt=-\r\n\r\n")});
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashLive555RangeNull);
}

TEST(BugReproTest, EximLongHeaderAfterFullSession) {
  std::string long_header = "X-Envelope-To: *";
  long_header.append(100, 'A');
  long_header += "@*.example.com";
  ExecResult r = RunRaw("exim", {ToBytes("EHLO h\r\n"), ToBytes("MAIL FROM:<a@b>\r\n"),
                                 ToBytes("RCPT TO:<c@d>\r\n"), ToBytes("DATA\r\n"),
                                 ToBytes(long_header + "\r\n")});
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashEximHeaderOverflow);
}

TEST(BugReproTest, EximShortHeaderIsSafe) {
  ExecResult r = RunRaw("exim", {ToBytes("EHLO h\r\n"), ToBytes("MAIL FROM:<a@b>\r\n"),
                                 ToBytes("RCPT TO:<c@d>\r\n"), ToBytes("DATA\r\n"),
                                 ToBytes("X-Short: ok\r\n"), ToBytes(".\r\n")});
  EXPECT_FALSE(r.crash.crashed);
}

TEST(BugReproTest, ProftpdDanglingCwd) {
  ExecResult r = RunRaw(
      "proftpd", {ToBytes("USER u\r\n"), ToBytes("PASS p\r\n"), ToBytes("MKD a/b/c/d\r\n"),
                  ToBytes("CWD a/b/c/d\r\n"), ToBytes("RMD a/b/c/d\r\n"), ToBytes("LIST\r\n")});
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashProftpdMkdNull);
}

TEST(BugReproTest, ProftpdShallowRmdIsSafe) {
  ExecResult r = RunRaw(
      "proftpd", {ToBytes("USER u\r\n"), ToBytes("PASS p\r\n"), ToBytes("MKD a\r\n"),
                  ToBytes("CWD a\r\n"), ToBytes("RMD a\r\n"), ToBytes("LIST\r\n")});
  EXPECT_FALSE(r.crash.crashed);
}

TEST(BugReproTest, LighttpdNegativeContentLength) {
  ExecResult r = RunRaw(
      "lighttpd",
      {ToBytes("POST /up HTTP/1.1\r\nHost: x\r\nContent-Length: -7\r\n\r\n")});
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashLighttpdAllocUnderflow);
}

TEST(BugReproTest, MysqlClientTooManyColumns) {
  auto pkt = [](uint8_t seq, Bytes payload) {
    Bytes p = {static_cast<uint8_t>(payload.size()),
               static_cast<uint8_t>(payload.size() >> 8),
               static_cast<uint8_t>(payload.size() >> 16), seq};
    Append(p, payload);
    return p;
  };
  Bytes greeting;
  greeting.push_back(10);
  Append(greeting, "8.0");
  greeting.push_back(0);
  greeting.resize(32, 0x5a);
  std::vector<Bytes> packets;
  packets.push_back(pkt(0, greeting));
  packets.push_back(pkt(2, {0x00, 0x00, 0x00, 0x02, 0x00, 0x00}));  // OK
  packets.push_back(pkt(1, {0xfc, 0x40, 0x00}));  // column count: 64
  for (uint8_t i = 0; i < 18; i++) {
    packets.push_back(pkt(static_cast<uint8_t>(2 + i), ToBytes("coldef")));
  }
  auto reg = FindTarget("mysql-client");
  Spec spec = reg->make_spec();
  NyxEngine engine(SmallEngineConfig(), reg->factory, spec);
  engine.Boot();
  Builder b(spec);
  ValueRef con = b.Connection();
  for (const Bytes& p : packets) {
    b.Packet(con, p);
  }
  CoverageMap cov;
  ExecResult r = engine.Run(*b.Build(), cov);
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashMysqlClientOobRead);
}

TEST(BugReproTest, FirefoxIpcMessageToDeadActor) {
  auto msg = [](uint32_t actor, uint32_t type, Bytes payload) {
    Bytes m;
    PutLe32(m, actor);
    PutLe32(m, type);
    PutLe32(m, static_cast<uint32_t>(payload.size()));
    Append(m, payload);
    return m;
  };
  auto reg = FindTarget("firefox-ipc");
  Spec spec = reg->make_spec();
  NyxEngine engine(SmallEngineConfig(), reg->factory, spec);
  engine.Boot();
  Builder b(spec);
  ValueRef c1 = b.Connection();
  b.Packet(c1, msg(0, 1, {4}));                  // construct PWindow -> actor 1
  b.Packet(c1, msg(1, 2, {}));                   // __delete__ actor 1
  b.Packet(c1, msg(1, 4, ToBytes("nav:boom")));  // message to dead actor
  CoverageMap cov;
  ExecResult r = engine.Run(*b.Build(), cov);
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashFirefoxIpcNullDeref);
}

Bytes DcmtkAssociate() {
  Bytes body;
  PutBe16(body, 1);
  PutBe16(body, 0);
  for (int i = 0; i < 32; i++) {
    body.push_back('A');
  }
  body.resize(68, 0);
  body.push_back(0x20);  // presentation context
  body.push_back(0);
  PutBe16(body, 4);
  PutBe32(body, 0);
  Bytes pdu = {0x01, 0};
  PutBe32(pdu, static_cast<uint32_t>(body.size()));
  Append(pdu, body);
  return pdu;
}

Bytes DcmtkElement(uint16_t declared_len, uint16_t actual_len) {
  Bytes pdv = {0x08, 0x00, 0x16, 0x00, static_cast<uint8_t>(declared_len),
               static_cast<uint8_t>(declared_len >> 8)};
  pdv.resize(pdv.size() + actual_len, 0x42);
  Bytes body;
  PutBe32(body, static_cast<uint32_t>(pdv.size()) + 2);
  body.push_back(1);
  body.push_back(2);
  Append(body, pdv);
  Bytes pdu = {0x04, 0};
  PutBe32(pdu, static_cast<uint32_t>(body.size()));
  Append(pdu, body);
  return pdu;
}

TEST(BugReproTest, DcmtkOverflowImmediateWithAsan) {
  // 300 bytes into a 128-byte buffer: instant ASan report.
  ExecResult r = RunRaw("dcmtk", {DcmtkAssociate(), DcmtkElement(300, 300)}, /*asan=*/true);
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashDcmtkOobWrite);
}

TEST(BugReproTest, DcmtkLatentWithoutAsanDependsOnLayout) {
  // Without ASan the same overflow is silent until the release path frees
  // the neighbouring allocation — and only if the campaign's heap layout
  // put the neighbour within reach. Across seeds, both outcomes must occur.
  Bytes release = {0x05, 0, 0, 0, 0, 4, 0, 0, 0, 0};
  int crashed = 0;
  int survived = 0;
  for (uint64_t seed = 1; seed <= 12; seed++) {
    auto reg = FindTarget("dcmtk");
    Spec spec = reg->make_spec();
    EngineConfig cfg = SmallEngineConfig();
    cfg.asan = false;
    cfg.seed = seed;
    NyxEngine engine(cfg, reg->factory, spec);
    engine.Boot();
    Builder b(spec);
    ValueRef con = b.Connection();
    b.Packet(con, DcmtkAssociate());
    b.Packet(con, DcmtkElement(700, 700));
    b.Packet(con, release);
    CoverageMap cov;
    ExecResult r = engine.Run(*b.Build(), cov);
    if (r.crash.crashed) {
      EXPECT_EQ(r.crash.crash_id, kCrashDcmtkLateHeap);
      crashed++;
    } else {
      survived++;
    }
  }
  EXPECT_GT(crashed, 0);
  EXPECT_GT(survived, 0);
}

TEST(BugReproTest, PureFtpdArenaSurvivesSnapshotResets) {
  // Snapshot-reset fuzzing can never accumulate enough leaked session state
  // to hit the internal cap: hundreds of executions stay clean.
  auto reg = FindTarget("pure-ftpd");
  Spec spec = reg->make_spec();
  NyxEngine engine(SmallEngineConfig(), reg->factory, spec);
  engine.Boot();
  const Program seed = reg->make_seeds(spec)[0];
  for (int i = 0; i < 300; i++) {
    CoverageMap cov;
    ExecResult r = engine.Run(seed, cov);
    ASSERT_FALSE(r.crash.crashed) << "exec " << i;
  }
}

}  // namespace
}  // namespace nyx
