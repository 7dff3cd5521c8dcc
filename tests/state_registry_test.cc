// Tests of what replaced the snapshot-state registry: the divergence
// auditor's host-state comparison (NetEmu state and interpreter state, by
// value, each named by its owner), its guest-region naming, and the names of
// the per-exec ephemeral checks (src/fuzz/audit.h).

#include <gtest/gtest.h>

#include "src/fuzz/audit.h"

namespace nyx {
namespace {

// A fingerprint with one page, one device and a NetEmu that holds a
// listener with one accepted connection.
StateFingerprint BaseFingerprint() {
  StateFingerprint fp;
  fp.page_hashes = {1, 2, 3};
  fp.device_hashes = {{"serial", 7}};
  NetEmu net;
  const int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 21);
  net.Listen(lfd, 4);
  net.QueueConnection(21);
  net.Accept(lfd);
  fp.net = net.state();
  fp.interp.value_conns = {1};
  fp.interp.connection_ops_seen = 1;
  return fp;
}

// Runs both comparisons of `a` against `b` on a fresh auditor and returns
// every divergence they recorded.
std::vector<DivergenceAuditor::Divergence> CompareBoth(const StateFingerprint& a,
                                                       const StateFingerprint& b) {
  DivergenceAuditor auditor;
  auditor.CompareReplay(a, b);
  auditor.CompareCrossRestore(a, b);
  return auditor.divergences();
}

TEST(HostStateAuditTest, EqualHostStateIsClean) {
  EXPECT_TRUE(CompareBoth(BaseFingerprint(), BaseFingerprint()).empty());
}

TEST(HostStateAuditTest, NetEmuDifferenceIsNamedSocketTable) {
  const StateFingerprint a = BaseFingerprint();
  // Each kind of NetEmu difference: a queued packet, a queued fault, and a
  // field outside the sockets.
  std::vector<StateFingerprint> variants(3, a);
  variants[0].net.sockets[1].rx.Push(ToBytes("pending"));
  variants[1].net.sockets[1].faults.Push({FaultPlan{FaultKind::kEagain, 2, 0}, 2});
  variants[2].net.next_process++;
  for (const StateFingerprint& b : variants) {
    const auto found = CompareBoth(a, b);
    ASSERT_EQ(found.size(), 2u);  // once per comparison
    for (const auto& d : found) {
      EXPECT_EQ(d.source, "host-state");
      EXPECT_EQ(d.owner, "netemu.socket_table");
    }
  }
}

TEST(HostStateAuditTest, InterpreterDifferenceIsNamedEngineInterp) {
  const StateFingerprint a = BaseFingerprint();
  std::vector<StateFingerprint> variants(2, a);
  variants[0].interp.value_conns.push_back(-1);
  variants[1].interp.connection_ops_seen++;
  for (const StateFingerprint& b : variants) {
    const auto found = CompareBoth(a, b);
    ASSERT_EQ(found.size(), 2u);
    for (const auto& d : found) {
      EXPECT_EQ(d.source, "host-state");
      EXPECT_EQ(d.owner, "engine.interp");
    }
  }
}

TEST(HostStateAuditTest, HostStateDivergenceIsNotUnregistered) {
  // A coverage mismatch that comes with a host-state mismatch points at the
  // state ("see-state"); UNREGISTERED is kept for behaviour-only leaks.
  const StateFingerprint a = BaseFingerprint();
  StateFingerprint b = a;
  b.net.sockets[1].peer_closed = true;
  b.edge_hash = a.edge_hash + 1;
  DivergenceAuditor auditor;
  const auto found = auditor.CompareReplay(a, b);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].owner, "netemu.socket_table");
  EXPECT_EQ(found[1].source, "coverage");
  EXPECT_EQ(found[1].owner, "see-state");

  StateFingerprint c = a;
  c.edge_hash = a.edge_hash + 1;
  const auto leak = auditor.CompareReplay(a, c);
  ASSERT_EQ(leak.size(), 1u);
  EXPECT_EQ(leak[0].owner, DivergenceAuditor::kUnregistered);
}

TEST(HostStateAuditTest, GuestOwnerAttributesOffsets) {
  DivergenceAuditor auditor;
  auditor.AddGuestRegion("low", 0, 4096);
  auditor.AddGuestRegion("high", 8192, 4096);
  EXPECT_EQ(auditor.GuestOwner(0), "low");
  EXPECT_EQ(auditor.GuestOwner(4095), "low");
  EXPECT_EQ(auditor.GuestOwner(8192), "high");
  // The gap between regions and anything past the end are unregistered.
  EXPECT_EQ(auditor.GuestOwner(4096), DivergenceAuditor::kUnregistered);
  EXPECT_EQ(auditor.GuestOwner(1 << 20), DivergenceAuditor::kUnregistered);

  // A diverging page is reported under the region that holds it.
  const StateFingerprint a = BaseFingerprint();
  StateFingerprint b = a;
  b.page_hashes[2] = 99;
  const auto found = auditor.CompareReplay(a, b);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].source, "guest-page");
  EXPECT_EQ(found[0].owner, "high");
  EXPECT_EQ(found[0].page, 2u);
}

TEST(HostStateAuditTest, EphemeralFailuresAreNamed) {
  DivergenceAuditor auditor;
  auditor.CheckEphemerals(true, true);
  EXPECT_TRUE(auditor.divergences().empty());
  auditor.CheckEphemerals(false, true);
  auditor.CheckEphemerals(true, false);
  const auto& found = auditor.divergences();
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].source, "ephemeral");
  EXPECT_EQ(found[0].owner, "guest.fault_jmp");
  EXPECT_EQ(found[1].source, "ephemeral");
  EXPECT_EQ(found[1].owner, "telemetry.phase_timers");
  EXPECT_EQ(auditor.stats().divergences, 2u);
}

}  // namespace
}  // namespace nyx
