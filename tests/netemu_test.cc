// Tests for the selective network emulation layer: socket lifecycle, packet
// boundary semantics, fd sharing across fork, by-value state restore, and
// the byte codec.

#include <gtest/gtest.h>

#include <cstring>

#include "src/netemu/netemu.h"

namespace nyx {
namespace {

// Builds a server-side listener and one queued connection; returns
// {listener_fd, conn_handle, accepted_fd}.
struct ServerSetup {
  NetEmu net;
  int listener_fd;
  int conn;
  int conn_fd;

  ServerSetup() : net() {
    listener_fd = net.Socket(SockKind::kStream);
    EXPECT_EQ(net.Bind(listener_fd, 8080), 0);
    EXPECT_EQ(net.Listen(listener_fd, 16), 0);
    conn = net.QueueConnection(8080);
    EXPECT_GE(conn, 0);
    conn_fd = net.Accept(listener_fd);
    EXPECT_GE(conn_fd, 0);
  }
};

TEST(NetEmuTest, AcceptBlocksWithoutPendingConnection) {
  NetEmu net;
  int fd = net.Socket(SockKind::kStream);
  net.Bind(fd, 21);
  net.Listen(fd, 1);
  EXPECT_EQ(net.Accept(fd), kErrAgain);
  EXPECT_TRUE(net.blocked_on_input());
}

TEST(NetEmuTest, QueueConnectionNeedsListener) {
  NetEmu net;
  EXPECT_EQ(net.QueueConnection(80), -1);
  int fd = net.Socket(SockKind::kStream);
  net.Bind(fd, 80);
  EXPECT_EQ(net.QueueConnection(80), -1);  // bound but not listening
  net.Listen(fd, 1);
  EXPECT_GE(net.QueueConnection(80), 0);
  EXPECT_EQ(net.QueueConnection(9999), -1);  // wrong port
}

TEST(NetEmuTest, RecvPreservesPacketBoundaries) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("AAAA"));
  s.net.DeliverPacket(s.conn, ToBytes("BB"));
  char buf[16];
  // A large read returns only the first packet: "a single call to recv()
  // will never return data from more than one packet".
  int n = s.net.Recv(s.conn_fd, buf, sizeof(buf));
  ASSERT_EQ(n, 4);
  EXPECT_EQ(0, memcmp(buf, "AAAA", 4));
  n = s.net.Recv(s.conn_fd, buf, sizeof(buf));
  ASSERT_EQ(n, 2);
  EXPECT_EQ(0, memcmp(buf, "BB", 2));
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, sizeof(buf)), kErrAgain);
  EXPECT_TRUE(s.net.consumed_input());
}

TEST(NetEmuTest, ShortReadsResumeWithinPacket) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("HELLO"));
  char buf[3];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 2), 2);
  EXPECT_EQ(0, memcmp(buf, "HE", 2));
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 2), 2);
  EXPECT_EQ(0, memcmp(buf, "LL", 2));
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 2), 1);
  EXPECT_EQ(buf[0], 'O');
}

TEST(NetEmuTest, CoalescingModeDrainsAcrossPackets) {
  NetEmu::Config cfg;
  cfg.preserve_packet_boundaries = false;
  NetEmu net(cfg);
  int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 1);
  int conn = net.QueueConnection(80);
  int cfd = net.Accept(lfd);
  net.DeliverPacket(conn, ToBytes("AB"));
  net.DeliverPacket(conn, ToBytes("CD"));
  char buf[8];
  EXPECT_EQ(net.Recv(cfd, buf, 3), 3);
  EXPECT_EQ(0, memcmp(buf, "ABC", 3));
}

TEST(NetEmuTest, DatagramTruncationAndBoundaries) {
  NetEmu net;
  int fd = net.Socket(SockKind::kDgram);
  net.Bind(fd, 53);
  // For UDP the bound socket is itself the attack surface.
  net.DeliverPacket(0, ToBytes("LONGDATAGRAM"));
  net.DeliverPacket(0, ToBytes("x"));
  char buf[4];
  EXPECT_EQ(net.Recv(fd, buf, 4), 4);  // truncated, rest discarded
  EXPECT_EQ(net.Recv(fd, buf, 4), 1);
  EXPECT_EQ(buf[0], 'x');
}

TEST(NetEmuTest, PeerCloseYieldsEof) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("A"));
  s.net.PeerClose(s.conn);
  char buf[4];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), 1);  // data before EOF
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), 0);  // then orderly EOF
}

TEST(NetEmuTest, SendRecordsResponses) {
  ServerSetup s;
  s.net.Send(s.conn_fd, "220 ready\r\n", 11);
  s.net.Send(s.conn_fd, "500 no\r\n", 8);
  const auto& sent = s.net.Sent(s.conn);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(ToString(sent[0]), "220 ready\r\n");
  EXPECT_EQ(ToString(sent[1]), "500 no\r\n");
}

TEST(NetEmuTest, BadFdErrors) {
  NetEmu net;
  char buf[1];
  EXPECT_EQ(net.Recv(99, buf, 1), kErrBadf);
  EXPECT_EQ(net.Send(99, "x", 1), kErrBadf);
  EXPECT_EQ(net.Close(99), kErrBadf);
  EXPECT_EQ(net.Accept(99), kErrBadf);
  EXPECT_EQ(net.Listen(99, 1), kErrBadf);
}

TEST(NetEmuTest, RecvOnListenerIsInvalid) {
  ServerSetup s;
  char buf[1];
  EXPECT_EQ(s.net.Recv(s.listener_fd, buf, 1), kErrInval);
}

TEST(NetEmuTest, ForkSharesStreamPosition) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("ONE"));
  s.net.DeliverPacket(s.conn, ToBytes("TWO"));
  const int child = s.net.ForkFdTable();
  char buf[8];
  // Parent reads the first packet.
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 3);
  EXPECT_EQ(0, memcmp(buf, "ONE", 3));
  // Child's view of the shared socket continues where the parent left off:
  // "This library also ensures that packets are consumed correctly across
  // multiple processes."
  s.net.SetCurrentProcess(child);
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 3);
  EXPECT_EQ(0, memcmp(buf, "TWO", 3));
  // Parent exit must not kill the socket while the child holds a reference.
  s.net.ExitProcess(0);
  EXPECT_TRUE(s.net.ValidConn(s.conn));
  s.net.ExitProcess(child);
  EXPECT_FALSE(s.net.ValidConn(s.conn));
}

TEST(NetEmuTest, ClientConnectBecomesAttackSurface) {
  NetEmu net;
  int fd = net.Socket(SockKind::kStream);
  EXPECT_EQ(net.Connect(fd, 3306), 0);
  ASSERT_EQ(net.ClientConnections().size(), 1u);
  const int conn = net.ClientConnections()[0];
  net.DeliverPacket(conn, ToBytes("server-greeting"));
  char buf[32];
  EXPECT_EQ(net.Recv(fd, buf, 32), 15);
  EXPECT_TRUE(net.consumed_input());
}

TEST(NetEmuTest, SendAfterPeerFinStillSucceeds) {
  // Error-path consistency: a peer FIN half-closes the stream. The target
  // can still send (TCP delivers post-FIN data to the peer's socket until
  // it resets); only a reset makes Send fail.
  ServerSetup s;
  s.net.PeerClose(s.conn);
  EXPECT_EQ(s.net.Send(s.conn_fd, "late", 4), 4);
  char buf[4];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), 0);  // EOF after FIN, rx empty
}

TEST(NetEmuTest, FdExhaustion) {
  NetEmu::Config cfg;
  cfg.max_fds = 4;
  cfg.max_sockets = 8;
  NetEmu net(cfg);
  int a = net.Socket(SockKind::kStream);
  int b = net.Socket(SockKind::kStream);
  int c = net.Socket(SockKind::kStream);
  int d = net.Socket(SockKind::kStream);
  EXPECT_GE(d, 0);
  EXPECT_EQ(net.Socket(SockKind::kStream), kErrMfile);
  net.Close(b);
  EXPECT_GE(net.Socket(SockKind::kStream), 0);  // slot reused
  (void)a;
  (void)c;
}

TEST(NetEmuTest, UndeliveredBytesCountsQueuedInput) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("AAAA"));
  s.net.DeliverPacket(s.conn, ToBytes("BB"));
  EXPECT_EQ(s.net.UndeliveredBytes(), 6u);
  char buf[8];
  s.net.Recv(s.conn_fd, buf, 8);
  EXPECT_EQ(s.net.UndeliveredBytes(), 2u);
}

TEST(NetEmuTest, SerializeDeserializeRoundTrip) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("PENDING"));
  s.net.Send(s.conn_fd, "SENT", 4);
  char tmp[3];
  s.net.Recv(s.conn_fd, tmp, 3);  // partial consume: offset must survive

  Bytes blob = s.net.Serialize();
  NetEmu restored;
  ASSERT_TRUE(restored.Deserialize(blob));

  // The restored instance continues mid-packet.
  char buf[8];
  EXPECT_EQ(restored.Recv(s.conn_fd, buf, 8), 4);
  EXPECT_EQ(0, memcmp(buf, "DING", 4));
  EXPECT_EQ(ToString(restored.Sent(s.conn)[0]), "SENT");
  EXPECT_TRUE(restored.consumed_input());
}

TEST(NetEmuTest, ForkFdTableSurvivesSnapshotRestore) {
  // A forked server is mid-handoff when the fuzzer snapshots: the child's
  // duplicated fd table, the shared socket refcounts, and the
  // current-process selector must all come back, or a resumed run
  // double-frees sockets the pre-snapshot run still held. Checked for the
  // by-value restore every exec takes and for the codec.
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("ONE"));
  s.net.DeliverPacket(s.conn, ToBytes("TWO"));
  const int child = s.net.ForkFdTable();
  ASSERT_GT(child, 0);
  char buf[8];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 3);  // parent consumes "ONE"
  s.net.SetCurrentProcess(child);

  const NetEmu::State saved = s.net.state();
  const Bytes blob = s.net.Serialize();
  NetEmu decoded;
  ASSERT_TRUE(decoded.Deserialize(blob));

  // Runs the tail: the child reads "TWO", both processes exit, and a fork
  // after the restore must mint a process id the snapshot never used.
  auto tail = [&](NetEmu& net) {
    // The restore lands in the child process with the stream position intact.
    EXPECT_EQ(net.current_process(), child);
    EXPECT_EQ(net.Recv(s.conn_fd, buf, 8), 3);
    EXPECT_EQ(0, memcmp(buf, "TWO", 3));
    // Refcounts were restored too: the parent's exit must not tear down the
    // connection while the child's duplicated fd still references it.
    net.ExitProcess(0);
    EXPECT_TRUE(net.ValidConn(s.conn));
    net.ExitProcess(child);
    EXPECT_FALSE(net.ValidConn(s.conn));
    EXPECT_GT(net.ForkFdTable(), child);
  };
  tail(s.net);
  s.net.Restore(saved);
  tail(s.net);
  tail(decoded);
}

TEST(NetEmuTest, DeserializeRejectsGarbage) {
  NetEmu net;
  EXPECT_FALSE(net.Deserialize(ToBytes("not a snapshot")));
  EXPECT_FALSE(net.Deserialize({}));
}

TEST(NetEmuTest, ClockCharges) {
  NetEmu net;
  VirtualClock clock;
  CostModel cost;
  net.AttachClock(&clock, &cost);
  int fd = net.Socket(SockKind::kStream);
  net.Bind(fd, 1);
  EXPECT_EQ(clock.now_ns(), 2 * cost.emulated_call_ns);
  EXPECT_EQ(net.calls(), 2u);
}

// ---- deterministic fault injection ---------------------------------------

TEST(NetEmuFaultTest, ErrNameCoversTheTable) {
  EXPECT_STREQ(ErrName(kErrAgain), "EAGAIN");
  EXPECT_STREQ(ErrName(kErrConnReset), "ECONNRESET");
  EXPECT_STREQ(ErrName(kErrPipe), "EPIPE");
  EXPECT_STREQ(ErrName(kErrIntr), "EINTR");
  EXPECT_STREQ(ErrName(kErrTimedOut), "ETIMEDOUT");
  EXPECT_STREQ(ErrName(0), "OK");
  EXPECT_STREQ(ErrName(-12345), "E?");
}

TEST(NetEmuFaultTest, ShortReadCapsBurstThenNormal) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("ABCDEFGH"));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kShortRead, 2, 3}));
  char buf[8];
  // Two faulted calls serve at most 3 bytes each, then the cap is gone.
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 3);
  EXPECT_EQ(0, memcmp(buf, "ABC", 3));
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 3);
  EXPECT_EQ(0, memcmp(buf, "DEF", 3));
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 2);
  EXPECT_EQ(0, memcmp(buf, "GH", 2));
  EXPECT_EQ(s.net.faults_injected(), 2u);
}

TEST(NetEmuFaultTest, EagainAndIntrBurstsPassThenClear) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("DATA"));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kEagain, 2, 0}));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kIntr, 1, 0}));
  char buf[4];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), kErrAgain);
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), kErrAgain);
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), kErrIntr);
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), 4);
  EXPECT_EQ(s.net.faults_injected(), 3u);
}

TEST(NetEmuFaultTest, ConnResetDropsRxThenSendIsPipe) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("NEVER-READ"));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kConnReset, 1, 0}));
  char buf[8];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), kErrConnReset);
  // The reset is reported exactly once; afterwards reads are EOF and writes
  // are EPIPE, and the queued bytes moved to faulted_bytes.
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 0);
  EXPECT_EQ(s.net.Send(s.conn_fd, "x", 1), kErrPipe);
  EXPECT_EQ(s.net.faulted_bytes(), 10u);
  EXPECT_EQ(s.net.UndeliveredBytes(), 0u);
}

TEST(NetEmuFaultTest, DeliverToResetConnIsCountedFaulted) {
  ServerSetup s;
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kConnReset, 1, 0}));
  char buf[1];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 1), kErrConnReset);
  EXPECT_TRUE(s.net.DeliverPacket(s.conn, ToBytes("DROPPED")));
  EXPECT_EQ(s.net.faulted_bytes(), 7u);
  EXPECT_EQ(s.net.UndeliveredBytes(), 0u);
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 1), 0);  // still EOF, nothing queued
}

TEST(NetEmuFaultTest, PeerCloseMidMessageKeepsDataReadable) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("TAIL"));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kPeerClose, 1, 0}));
  char buf[4];
  // The FIN arrives, but queued data drains first — then EOF.
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), 4);
  EXPECT_EQ(0, memcmp(buf, "TAIL", 4));
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 4), 0);
  EXPECT_EQ(s.net.faulted_bytes(), 0u);  // nothing dropped
}

TEST(NetEmuFaultTest, ShortWriteCapsSend) {
  ServerSetup s;
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kShortWrite, 1, 2}));
  EXPECT_EQ(s.net.Send(s.conn_fd, "LONG-REPLY", 10), 2);
  ASSERT_EQ(s.net.Sent(s.conn).size(), 1u);
  EXPECT_EQ(s.net.Sent(s.conn)[0].size(), 2u);  // only the accepted prefix
  EXPECT_EQ(s.net.Send(s.conn_fd, "OK", 2), 2);
}

TEST(NetEmuFaultTest, TimeoutAdvancesClockAndExpiresRecv) {
  ServerSetup s;
  VirtualClock clock;
  CostModel cost;
  s.net.AttachClock(&clock, &cost);
  s.net.DeliverPacket(s.conn, ToBytes("READY"));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kTimeout, 1, 250}));
  char buf[8];
  const uint64_t before = clock.now_ns();
  // Data is queued, but the timeout fault expires the read anyway. The
  // clock moves by the plan's 250 ms plus the call's own charge.
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, sizeof(buf)), kErrTimedOut);
  EXPECT_EQ(clock.now_ns() - before, 250ull * 1000000ull + cost.emulated_call_ns);
  // Not a real blocking point: the root-snapshot placement signal stays off.
  EXPECT_FALSE(s.net.blocked_on_input());
  // The fault is spent: the next read gets the data.
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, sizeof(buf)), 5);
  EXPECT_EQ(0, memcmp(buf, "READY", 5));
}

TEST(NetEmuFaultTest, AcceptSeesBacklogConnAbort) {
  NetEmu net;
  int listener = net.Socket(SockKind::kStream);
  net.Bind(listener, 8080);
  net.Listen(listener, 16);
  const int conn = net.QueueConnection(8080);
  ASSERT_GE(conn, 0);
  net.DeliverPacket(conn, ToBytes("EARLY"));
  ASSERT_TRUE(net.QueueFault(conn, FaultPlan{FaultKind::kConnReset, 1, 0}));
  // The queued connection aborts while sitting in the backlog; its early
  // data is accounted as faulted and the slot is gone.
  EXPECT_EQ(net.Accept(listener), kErrConnReset);
  EXPECT_EQ(net.faulted_bytes(), 5u);
  EXPECT_FALSE(net.ValidConn(conn));
  EXPECT_EQ(net.Accept(listener), kErrAgain);  // backlog is empty again
}

TEST(NetEmuFaultTest, ConnectTimeoutFault) {
  NetEmu net;
  int fd = net.Socket(SockKind::kStream);
  // Queue the fault directly on the socket before the connect attempt. The
  // fd maps straight onto its socket index here (first allocation).
  ASSERT_TRUE(net.QueueFault(0, FaultPlan{FaultKind::kTimeout, 1, 30000}));
  EXPECT_EQ(net.Connect(fd, 443), kErrTimedOut);
  EXPECT_TRUE(net.ClientConnections().empty());
  EXPECT_EQ(net.Connect(fd, 443), 0);  // retry succeeds
  EXPECT_EQ(net.ClientConnections().size(), 1u);
}

TEST(NetEmuFaultTest, QueueFaultRejectsInvalidPlanAndConn) {
  ServerSetup s;
  FaultPlan bad_kind{static_cast<FaultKind>(99), 1, 0};
  EXPECT_FALSE(s.net.QueueFault(s.conn, bad_kind));
  FaultPlan bad_burst{FaultKind::kEagain, 0, 0};
  EXPECT_FALSE(s.net.QueueFault(s.conn, bad_burst));
  FaultPlan over_burst{FaultKind::kEagain, static_cast<uint8_t>(kMaxFaultBurst + 1), 0};
  EXPECT_FALSE(s.net.QueueFault(s.conn, over_burst));
  EXPECT_FALSE(s.net.QueueFault(-1, FaultPlan{FaultKind::kEagain, 1, 0}));
  EXPECT_EQ(s.net.faults_injected(), 0u);
}

TEST(NetEmuFaultTest, FaultQueueIsStrictFifo) {
  // A front short-write waits for a Send; it does not leak into Recv.
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("ABCDEFGH"));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kShortWrite, 1, 1}));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kShortRead, 1, 2}));
  char buf[8];
  // Recv ignores the queued short-write (front of queue) — full read.
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 8);
  // Send consumes the short-write; the short-read now fronts the queue.
  EXPECT_EQ(s.net.Send(s.conn_fd, "XY", 2), 1);
  s.net.DeliverPacket(s.conn, ToBytes("WXYZ"));
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), 2);
}

TEST(NetEmuFaultTest, FaultQueueSurvivesSerializeMidBurst) {
  ServerSetup s;
  s.net.DeliverPacket(s.conn, ToBytes("ABCDEF"));
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kEagain, 3, 0}));
  char buf[8];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 8), kErrAgain);  // burn 1 of 3

  Bytes blob = s.net.Serialize();
  NetEmu restored;
  ASSERT_TRUE(restored.Deserialize(blob));
  // Both instances replay the remaining two applications identically.
  for (NetEmu* net : {&s.net, &restored}) {
    EXPECT_EQ(net->Recv(s.conn_fd, buf, 8), kErrAgain);
    EXPECT_EQ(net->Recv(s.conn_fd, buf, 8), kErrAgain);
    EXPECT_EQ(net->Recv(s.conn_fd, buf, 8), 6);
  }
}

TEST(NetEmuFaultTest, ResetFlagSurvivesSerialize) {
  ServerSetup s;
  ASSERT_TRUE(s.net.QueueFault(s.conn, FaultPlan{FaultKind::kConnReset, 1, 0}));
  char buf[1];
  EXPECT_EQ(s.net.Recv(s.conn_fd, buf, 1), kErrConnReset);
  Bytes blob = s.net.Serialize();
  NetEmu restored;
  ASSERT_TRUE(restored.Deserialize(blob));
  EXPECT_EQ(restored.Send(s.conn_fd, "x", 1), kErrPipe);
  EXPECT_EQ(restored.Recv(s.conn_fd, buf, 1), 0);
}

}  // namespace
}  // namespace nyx
