// Property tests for the network emulation layer: codec robustness against
// fuzzed blobs, snapshot-restore equivalence under random operation
// sequences (by-value restore and the codec), and conservation of delivered
// bytes.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"
#include "src/netemu/netemu.h"

namespace nyx {
namespace {

class NetEmuPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// One call of a replayed tail: its return value, the bytes it read, and the
// faulted bytes gained since the tail began (faulted_bytes() is a counter
// outside NetEmu::State, so only its growth is comparable).
struct TailStep {
  int ret = 0;
  Bytes data;
  uint64_t faulted = 0;
  bool operator==(const TailStep&) const = default;
};
using Tail = std::vector<TailStep>;

TailStep RecvStep(NetEmu& net, int fd, size_t len, uint64_t faulted_base) {
  uint8_t buf[32] = {};
  const int r = net.Recv(fd, buf, len);
  return TailStep{r, Bytes(buf, buf + (r > 0 ? r : 0)), net.faulted_bytes() - faulted_base};
}

TEST_P(NetEmuPropertyTest, FuzzedSnapshotsNeverCrashDeserialize) {
  Rng rng(GetParam());
  NetEmu net;
  for (int i = 0; i < 300; i++) {
    Bytes junk;
    const uint64_t len = rng.Below(512);
    for (uint64_t j = 0; j < len; j++) {
      junk.push_back(rng.NextByte());
    }
    NetEmu victim;
    victim.Deserialize(junk);  // must not crash; result may be false
  }
}

TEST_P(NetEmuPropertyTest, TruncatedRealSnapshotsNeverCrash) {
  Rng rng(GetParam());
  NetEmu net;
  int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 4);
  int conn = net.QueueConnection(80);
  int cfd = net.Accept(lfd);
  net.DeliverPacket(conn, ToBytes("payload-bytes"));
  net.Send(cfd, "resp", 4);
  const Bytes blob = net.Serialize();
  for (int i = 0; i < 200; i++) {
    Bytes cut(blob.begin(), blob.begin() + static_cast<long>(rng.Below(blob.size() + 1)));
    NetEmu victim;
    victim.Deserialize(cut);
  }
}

TEST_P(NetEmuPropertyTest, SerializeRoundTripPreservesBehaviour) {
  // Drive a random operation sequence on one instance; snapshot it by value
  // and through the codec; drive the SAME remaining reads on the original,
  // on the original restored, and on the decoded copy — the results must be
  // identical.
  Rng rng(GetParam());
  NetEmu original;
  int lfd = original.Socket(SockKind::kStream);
  original.Bind(lfd, 80);
  original.Listen(lfd, 8);

  std::vector<int> conns;
  std::vector<int> fds;
  for (int step = 0; step < 60; step++) {
    switch (rng.Below(4)) {
      case 0: {
        int c = original.QueueConnection(80);
        int fd = original.Accept(lfd);
        if (c >= 0 && fd >= 0) {
          conns.push_back(c);
          fds.push_back(fd);
        }
        break;
      }
      case 1:
        if (!conns.empty()) {
          Bytes data;
          const uint64_t n = 1 + rng.Below(32);
          for (uint64_t i = 0; i < n; i++) {
            data.push_back(rng.NextByte());
          }
          original.DeliverPacket(rng.Choice(conns), std::move(data));
        }
        break;
      case 2:
        if (!fds.empty()) {
          uint8_t buf[16];
          original.Recv(rng.Choice(fds), buf, rng.Below(sizeof(buf)) + 1);
        }
        break;
      case 3:
        if (!fds.empty()) {
          original.Send(rng.Choice(fds), "ok", 2);
        }
        break;
    }
  }

  // The same reads, replayed three ways: straight through, on the original
  // after the by-value restore every exec takes, and on a codec copy.
  auto read_tail = [&](NetEmu& net) {
    Rng tail_rng(GetParam() ^ 0x7461696cull);
    Tail tail;
    for (int step = 0; step < 40 && !fds.empty(); step++) {
      const int fd = tail_rng.Choice(fds);
      tail.push_back(RecvStep(net, fd, tail_rng.Below(24) + 1, 0));
    }
    return tail;
  };
  const NetEmu::State saved = original.state();
  NetEmu decoded;
  ASSERT_TRUE(decoded.Deserialize(original.Serialize()));
  const Tail straight = read_tail(original);
  original.Restore(saved);
  EXPECT_EQ(read_tail(original), straight);
  EXPECT_EQ(read_tail(decoded), straight);
}

TEST_P(NetEmuPropertyTest, DeliveredBytesAreConserved) {
  // Every byte delivered is either read by the target or still undelivered;
  // nothing is duplicated or lost.
  Rng rng(GetParam());
  NetEmu net;
  int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 4);
  const int conn = net.QueueConnection(80);
  const int cfd = net.Accept(lfd);
  ASSERT_GE(cfd, 0);

  size_t delivered = 0;
  size_t consumed = 0;
  for (int step = 0; step < 400; step++) {
    if (rng.Chance(1, 2)) {
      const uint64_t n = 1 + rng.Below(64);
      delivered += n;
      net.DeliverPacket(conn, Bytes(n, 0xab));
    } else {
      uint8_t buf[48];
      const int r = net.Recv(cfd, buf, rng.Below(sizeof(buf)) + 1);
      if (r > 0) {
        consumed += static_cast<size_t>(r);
      }
    }
    ASSERT_EQ(consumed + net.UndeliveredBytes(), delivered) << "step " << step;
  }
}

TEST_P(NetEmuPropertyTest, DeliveredBytesAreConservedUnderFaults) {
  // With random fault injection in the mix the ledger gains one more column:
  // every delivered byte is consumed, still queued, or dropped by a fault
  // (connection reset). The three must always sum to the deliveries.
  Rng rng(GetParam());
  NetEmu net;
  int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 8);

  std::vector<int> conns;
  std::vector<int> fds;
  auto fresh_conn = [&]() {
    int c = net.QueueConnection(80);
    int fd = net.Accept(lfd);
    if (c >= 0 && fd >= 0) {
      conns.push_back(c);
      fds.push_back(fd);
    }
  };
  fresh_conn();
  ASSERT_FALSE(fds.empty());

  size_t delivered = 0;
  size_t consumed = 0;
  for (int step = 0; step < 500; step++) {
    switch (rng.Below(5)) {
      case 0:
        if (conns.size() < 6) {
          fresh_conn();
        }
        break;
      case 1: {
        const uint64_t n = 1 + rng.Below(64);
        if (net.DeliverPacket(rng.Choice(conns), Bytes(n, 0xcd))) {
          delivered += n;
        }
        break;
      }
      case 2: {
        uint8_t buf[48];
        const int r = net.Recv(rng.Choice(fds), buf, rng.Below(sizeof(buf)) + 1);
        if (r > 0) {
          consumed += static_cast<size_t>(r);
        }
        break;
      }
      case 3:
        net.Send(rng.Choice(fds), "reply", 5);
        break;
      case 4: {
        FaultPlan plan;
        plan.kind = static_cast<FaultKind>(rng.Below(kFaultKindCount));
        plan.count = static_cast<uint8_t>(1 + rng.Below(kMaxFaultBurst));
        plan.arg = static_cast<uint16_t>(rng.Below(64));
        net.QueueFault(rng.Choice(conns), plan);
        break;
      }
    }
    ASSERT_EQ(consumed + net.UndeliveredBytes() + net.faulted_bytes(), delivered)
        << "step " << step;
  }
}

TEST_P(NetEmuPropertyTest, SnapshotMidBurstEqualsUninterrupted) {
  // Core determinism property for fault replay: running a faulted operation
  // sequence straight through must be indistinguishable from snapshotting
  // the emulator mid-burst, restoring it and running the rest again. Drives
  // the same random tail on every instance and compares every return value,
  // byte and faulted-byte count.
  Rng setup_rng(GetParam());
  NetEmu original;
  int lfd = original.Socket(SockKind::kStream);
  original.Bind(lfd, 80);
  original.Listen(lfd, 8);
  const int conn = original.QueueConnection(80);
  const int cfd = original.Accept(lfd);
  ASSERT_GE(cfd, 0);

  // Arm a pile of faults and burn a random prefix of them so the snapshot
  // lands mid-burst, then top up rx so the tail has bytes to fight over.
  for (int i = 0; i < 8; i++) {
    FaultPlan plan;
    plan.kind = static_cast<FaultKind>(setup_rng.Below(kFaultKindCount));
    plan.count = static_cast<uint8_t>(1 + setup_rng.Below(kMaxFaultBurst));
    plan.arg = static_cast<uint16_t>(1 + setup_rng.Below(16));
    original.QueueFault(conn, plan);
  }
  original.DeliverPacket(conn, Bytes(64, 0x5a));
  const uint64_t prefix = setup_rng.Below(6);
  for (uint64_t i = 0; i < prefix; i++) {
    uint8_t buf[8];
    original.Recv(cfd, buf, sizeof(buf));
  }
  original.DeliverPacket(conn, Bytes(32, 0xa5));

  // The tail interleaves deliveries and reads; it runs straight through,
  // again on the original after the by-value restore every exec takes, and
  // on a codec copy.
  auto run_tail = [&](NetEmu& net) {
    Rng tail_rng(GetParam() ^ 0x7461696cull);
    const uint64_t faulted_base = net.faulted_bytes();
    Tail tail;
    for (int step = 0; step < 60; step++) {
      if (tail_rng.Chance(1, 4)) {
        const Bytes pkt(1 + tail_rng.Below(16), 0x33);
        const bool ok = net.DeliverPacket(conn, pkt);
        tail.push_back(TailStep{ok ? 1 : 0, {}, net.faulted_bytes() - faulted_base});
        continue;
      }
      tail.push_back(RecvStep(net, cfd, 1 + tail_rng.Below(24), faulted_base));
    }
    return tail;
  };
  const NetEmu::State saved = original.state();
  NetEmu decoded;
  ASSERT_TRUE(decoded.Deserialize(original.Serialize()));
  const Tail straight = run_tail(original);
  original.Restore(saved);
  EXPECT_EQ(run_tail(original), straight);
  EXPECT_EQ(run_tail(decoded), straight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetEmuPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace nyx
