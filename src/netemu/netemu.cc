#include "src/netemu/netemu.h"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>

#include "src/common/check.h"

namespace nyx {

NetEmu::NetEmu() : NetEmu(Config()) {}

NetEmu::NetEmu(Config config)
    : config_(config),
      conns_queued_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("netemu.connections_queued")),
      packets_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("netemu.packets_delivered")),
      bytes_counter_(telemetry::MetricRegistry::Global().RegisterCounter("netemu.bytes_delivered")) {
  for (size_t k = 0; k < kFaultKindCount; k++) {
    fault_counters_[k] = telemetry::MetricRegistry::Global().RegisterCounter(
        std::string("netemu.faults_injected.") + FaultKindName(static_cast<FaultKind>(k)));
  }
  state_.sockets.reserve(config_.max_sockets);
  state_.fds.reserve(config_.max_fds);
  spare_.reserve(config_.max_sockets);
}

bool PacketQueue::operator==(const PacketQueue& other) const {
  if (size() != other.size() || bytes() != other.bytes()) {
    return false;
  }
  const size_t base = head_ == 0 ? 0 : ends_[head_ - 1];
  const size_t other_base = other.head_ == 0 ? 0 : other.ends_[other.head_ - 1];
  for (size_t i = 0; i < size(); i++) {
    if (ends_[head_ + i] - base != other.ends_[other.head_ + i] - other_base) {
      return false;
    }
  }
  return std::equal(bytes_.begin() + static_cast<long>(base), bytes_.end(),
                    other.bytes_.begin() + static_cast<long>(other_base));
}

void NetEmu::Sock::Clear() {
  PacketQueue rx_storage = std::move(rx);
  PacketQueue tx_storage = std::move(tx);
  Fifo<int> accept_storage = std::move(pending_accept);
  Fifo<FaultEntry> fault_storage = std::move(faults);
  *this = Sock{};
  rx = std::move(rx_storage);
  rx.Clear();
  tx = std::move(tx_storage);
  tx.Clear();
  pending_accept = std::move(accept_storage);
  pending_accept.Clear();
  faults = std::move(fault_storage);
  faults.Clear();
}

void NetEmu::Restore(const State& state) {
  std::vector<Sock>& sockets = state_.sockets;
  while (sockets.size() > state.sockets.size()) {
    spare_.push_back(std::move(sockets.back()));
    sockets.pop_back();
  }
  while (sockets.size() < state.sockets.size()) {
    AppendSocket();
  }
  for (size_t i = 0; i < sockets.size(); i++) {
    sockets[i] = state.sockets[i];
  }
  state_.fds = state.fds;
  state_.client_conns = state.client_conns;
  state_.current_process = state.current_process;
  state_.next_process = state.next_process;
  state_.consumed_input = state.consumed_input;
  blocked_on_input_ = false;
}

std::optional<FaultPlan> NetEmu::TakeFault(Sock& s, std::initializer_list<FaultKind> kinds) {
  if (s.faults.empty()) {
    return std::nullopt;
  }
  FaultEntry& front = s.faults.front();
  bool applies = false;
  for (FaultKind k : kinds) {
    if (front.plan.kind == k) {
      applies = true;
      break;
    }
  }
  if (!applies) {
    return std::nullopt;
  }
  const FaultPlan plan = front.plan;
  // One-shot kinds retire the whole entry (a connection dies once); burst
  // kinds count down one application per matching call.
  const bool one_shot =
      plan.kind == FaultKind::kConnReset || plan.kind == FaultKind::kPeerClose;
  if (one_shot || --front.remaining == 0) {
    s.faults.PopFront();
  }
  faults_injected_++;
  fault_counters_[static_cast<size_t>(plan.kind)]->Add(1);
  return plan;
}

void NetEmu::ResetSock(Sock& s) {
  // Queued-but-unread fuzz input dies with the connection; account for it
  // separately so throughput numbers stay honest.
  size_t dropped = s.rx.bytes();
  if (!s.rx.empty() && s.rx_front_consumed < s.rx.front().size()) {
    dropped -= s.rx_front_consumed;
  }
  faulted_bytes_ += dropped;
  s.rx.Clear();
  s.rx_front_consumed = 0;
  s.reset = true;
  s.peer_closed = true;
}

void NetEmu::AppendSocket() {
  if (spare_.empty()) {
    state_.sockets.emplace_back();
  } else {
    state_.sockets.push_back(std::move(spare_.back()));
    spare_.pop_back();
  }
}

int NetEmu::AllocSocket() {
  for (size_t i = 0; i < state_.sockets.size(); i++) {
    if (!state_.sockets[i].live) {
      state_.sockets[i].Clear();
      state_.sockets[i].live = true;
      return static_cast<int>(i);
    }
  }
  if (state_.sockets.size() >= config_.max_sockets) {
    return -1;
  }
  AppendSocket();
  state_.sockets.back().Clear();  // a parked socket still holds its last exec's data
  state_.sockets.back().live = true;
  return static_cast<int>(state_.sockets.size() - 1);
}

int NetEmu::AllocFd(int sock) {
  NYX_DCHECK_GE(sock, 0);
  NYX_DCHECK_LT(static_cast<size_t>(sock), state_.sockets.size());
  for (size_t i = 0; i < state_.fds.size(); i++) {
    if (!state_.fds[i].open) {
      state_.fds[i] = FdEntry{sock, state_.current_process, true};
      state_.sockets[sock].refcount++;
      return static_cast<int>(i);
    }
  }
  if (state_.fds.size() >= config_.max_fds) {
    return kErrMfile;
  }
  state_.fds.push_back(FdEntry{sock, state_.current_process, true});
  state_.sockets[sock].refcount++;
  return static_cast<int>(state_.fds.size() - 1);
}

NetEmu::Sock* NetEmu::SockForFd(int fd) {
  if (fd < 0 || fd >= static_cast<int>(state_.fds.size()) || !state_.fds[fd].open) {
    return nullptr;
  }
  return &state_.sockets[state_.fds[fd].sock];
}

void NetEmu::DropSocketRef(int sock) {
  NYX_DCHECK_GE(sock, 0);
  NYX_DCHECK_LT(static_cast<size_t>(sock), state_.sockets.size());
  Sock& s = state_.sockets[sock];
  NYX_DCHECK_GT(s.refcount, 0);
  if (--s.refcount <= 0) {
    s.live = false;
    s.rx.Clear();
    s.tx.Clear();
    s.pending_accept.Clear();
    s.faults.Clear();
  }
}

int NetEmu::Socket(SockKind kind) {
  Charge();
  const int sock = AllocSocket();
  if (sock < 0) {
    return kErrMfile;
  }
  state_.sockets[sock].kind = kind;
  const int fd = AllocFd(sock);
  if (fd < 0) {
    state_.sockets[sock].live = false;
  }
  return fd;
}

int NetEmu::Bind(int fd, uint16_t port) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  s->port = port;
  // A bound UDP socket is directly part of the attack surface.
  if (s->kind == SockKind::kDgram) {
    s->attack_surface = true;
  }
  return 0;
}

int NetEmu::Listen(int fd, int backlog) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (s->kind != SockKind::kListener && s->kind != SockKind::kStream) {
    return kErrInval;
  }
  s->kind = SockKind::kListener;
  s->listening = true;
  return 0;
}

int NetEmu::Accept(int fd) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (!s->listening) {
    return kErrInval;
  }
  if (s->pending_accept.empty()) {
    blocked_on_input_ = true;
    return kErrAgain;
  }
  // The connection at the head of the backlog may carry a fault: the peer
  // can abort (RST while queued) or the accept itself can be interrupted.
  if (auto f = TakeFault(state_.sockets[s->pending_accept.front()],
                         {FaultKind::kConnReset, FaultKind::kIntr, FaultKind::kEagain})) {
    switch (f->kind) {
      case FaultKind::kConnReset: {
        const int aborted = s->pending_accept.front();
        s->pending_accept.PopFront();
        ResetSock(state_.sockets[aborted]);
        DropSocketRef(aborted);
        return kErrConnReset;
      }
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kEagain:
        return kErrAgain;
      case FaultKind::kShortRead:
      case FaultKind::kShortWrite:
      case FaultKind::kPeerClose:
      case FaultKind::kTimeout:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  blocked_on_input_ = false;
  const int conn = s->pending_accept.front();
  s->pending_accept.PopFront();
  const int conn_fd = AllocFd(conn);
  if (conn_fd >= 0) {
    // The backlog's reference is transferred to the new fd.
    state_.sockets[conn].refcount--;
  } else {
    DropSocketRef(conn);
  }
  return conn_fd;
}

int NetEmu::Connect(int fd, uint16_t port) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (auto f = TakeFault(*s, {FaultKind::kTimeout, FaultKind::kConnReset, FaultKind::kIntr})) {
    switch (f->kind) {
      case FaultKind::kTimeout:
        if (clock_ != nullptr) {
          clock_->Advance(static_cast<uint64_t>(f->arg) * 1000000ull);
        }
        return kErrTimedOut;
      case FaultKind::kConnReset:
        return kErrConnReset;
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kShortRead:
      case FaultKind::kShortWrite:
      case FaultKind::kEagain:
      case FaultKind::kPeerClose:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  s->port = port;
  s->attack_surface = true;
  state_.client_conns.push_back(state_.fds[fd].sock);
  return 0;
}

int NetEmu::Recv(int fd, void* buf, size_t len) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (s->kind == SockKind::kListener) {
    return kErrInval;
  }
  if (auto f = TakeFault(*s, {FaultKind::kShortRead, FaultKind::kEagain, FaultKind::kIntr,
                              FaultKind::kConnReset, FaultKind::kPeerClose,
                              FaultKind::kTimeout})) {
    switch (f->kind) {
      case FaultKind::kShortRead:
        // Cap this read; the normal path below serves at most `arg` bytes.
        len = std::min(len, static_cast<size_t>(f->arg > 0 ? f->arg : 1));
        break;
      case FaultKind::kEagain:
        // Spurious would-block despite queued data. Not a real blocking
        // point, so blocked_on_input_ stays untouched.
        return kErrAgain;
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kConnReset:
        ResetSock(*s);
        return kErrConnReset;
      case FaultKind::kPeerClose:
        // FIN mid-message: queued data stays readable, EOF once drained —
        // exactly the half-closed stream a real kernel presents.
        s->peer_closed = true;
        break;
      case FaultKind::kTimeout:
        if (clock_ != nullptr) {
          clock_->Advance(static_cast<uint64_t>(f->arg) * 1000000ull);
        }
        return kErrTimedOut;
      case FaultKind::kShortWrite:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  if (s->rx.empty()) {
    if (s->peer_closed) {
      return 0;  // orderly EOF
    }
    if (s->attack_surface) {
      blocked_on_input_ = true;
    }
    return kErrAgain;
  }
  blocked_on_input_ = false;
  if (s->attack_surface) {
    state_.consumed_input = true;
  }

  size_t out = 0;
  if (s->kind == SockKind::kDgram) {
    // One datagram per call; excess bytes are discarded (truncation), like
    // recvfrom on a SOCK_DGRAM socket.
    const PacketQueue::Packet pkt = s->rx.front();
    out = pkt.size() < len ? pkt.size() : len;
    if (out > 0) {  // empty datagram: data() may be null
      memcpy(buf, pkt.data(), out);
    }
    s->rx.PopFront();
    s->rx_front_consumed = 0;
    return static_cast<int>(out);
  }

  if (config_.preserve_packet_boundaries) {
    // At most one packet per call — the emulation the paper argues for.
    const PacketQueue::Packet pkt = s->rx.front();
    const size_t avail = pkt.size() - s->rx_front_consumed;
    out = avail < len ? avail : len;
    if (out > 0) {  // empty packet: data() may be null
      memcpy(buf, pkt.data() + s->rx_front_consumed, out);
    }
    s->rx_front_consumed += out;
    if (s->rx_front_consumed >= pkt.size()) {
      s->rx.PopFront();
      s->rx_front_consumed = 0;
    }
    return static_cast<int>(out);
  }

  // Coalescing mode (desock-style): drain as much as fits.
  uint8_t* dst = static_cast<uint8_t*>(buf);
  while (out < len && !s->rx.empty()) {
    const PacketQueue::Packet pkt = s->rx.front();
    const size_t avail = pkt.size() - s->rx_front_consumed;
    const size_t take = avail < len - out ? avail : len - out;
    if (take > 0) {  // empty packet: data() may be null
      memcpy(dst + out, pkt.data() + s->rx_front_consumed, take);
    }
    out += take;
    s->rx_front_consumed += take;
    if (s->rx_front_consumed >= pkt.size()) {
      s->rx.PopFront();
      s->rx_front_consumed = 0;
    }
  }
  return static_cast<int>(out);
}

int NetEmu::Send(int fd, const void* data, size_t len) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (s->kind == SockKind::kListener) {
    return kErrInval;
  }
  // Error-path consistency (matching a real kernel): writing after the
  // connection was reset is EPIPE — the reset itself was reported exactly
  // once as ECONNRESET. Writing after a plain peer FIN (peer_closed) still
  // succeeds: TCP lets the first post-FIN send through.
  if (s->reset) {
    return kErrPipe;
  }
  if (auto f = TakeFault(*s, {FaultKind::kShortWrite, FaultKind::kEagain, FaultKind::kIntr,
                              FaultKind::kConnReset})) {
    switch (f->kind) {
      case FaultKind::kShortWrite:
        len = std::min(len, static_cast<size_t>(f->arg > 0 ? f->arg : 1));
        break;
      case FaultKind::kEagain:
        return kErrAgain;
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kConnReset:
        ResetSock(*s);
        return kErrConnReset;
      case FaultKind::kShortRead:
      case FaultKind::kPeerClose:
      case FaultKind::kTimeout:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  s->tx.Push(PacketQueue::Packet(static_cast<const uint8_t*>(data), len));
  return static_cast<int>(len);
}

int NetEmu::Close(int fd) {
  Charge();
  if (fd < 0 || fd >= static_cast<int>(state_.fds.size()) || !state_.fds[fd].open) {
    return kErrBadf;
  }
  const int sock = state_.fds[fd].sock;
  state_.fds[fd].open = false;
  DropSocketRef(sock);
  return 0;
}

int NetEmu::ForkFdTable() {
  Charge();
  const int child = state_.next_process++;
  const size_t n = state_.fds.size();
  for (size_t i = 0; i < n; i++) {
    if (state_.fds[i].open && state_.fds[i].process == state_.current_process) {
      state_.fds.push_back(FdEntry{state_.fds[i].sock, child, true});
      state_.sockets[state_.fds[i].sock].refcount++;
    }
  }
  return child;
}

void NetEmu::ExitProcess(int process) {
  for (auto& fd : state_.fds) {
    if (fd.open && fd.process == process) {
      fd.open = false;
      DropSocketRef(fd.sock);
    }
  }
}

int NetEmu::QueueConnection(uint16_t port) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  // Find the listener (first listening socket, matching port if given).
  int listener = -1;
  for (size_t i = 0; i < state_.sockets.size(); i++) {
    if (state_.sockets[i].live && state_.sockets[i].listening &&
        (port == 0 || state_.sockets[i].port == port)) {
      listener = static_cast<int>(i);
      break;
    }
  }
  if (listener == -1) {
    return -1;
  }
  const int conn = AllocSocket();
  if (conn < 0) {
    return -1;
  }
  state_.sockets[conn].kind = SockKind::kStream;
  state_.sockets[conn].attack_surface = true;
  state_.sockets[conn].port = state_.sockets[listener].port;
  // The connection is owned by its fd once accepted; keep it alive while it
  // sits in the backlog.
  state_.sockets[conn].refcount = 1;
  state_.sockets[listener].pending_accept.Push(conn);
  conns_queued_counter_->Add(1);
  return conn;
}

int NetEmu::FindDgramSocket(uint16_t port) const {
  for (size_t i = 0; i < state_.sockets.size(); i++) {
    if (state_.sockets[i].live && state_.sockets[i].kind == SockKind::kDgram &&
        (port == 0 || state_.sockets[i].port == port)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool NetEmu::DeliverPacket(int conn, std::span<const uint8_t> data) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  // A dead connection id here means the interpreter's view of the socket
  // table diverged from ours — count it instead of dropping silently.
  if (!NYX_EXPECT(ValidConn(conn))) {
    return false;
  }
  packets_counter_->Add(1);
  bytes_counter_->Add(data.size());
  if (state_.sockets[conn].reset) {
    // A reset connection drops deliveries on the floor, like a kernel
    // discarding segments for a dead socket. The bytes count as delivered
    // (the fuzzer spent them) and as faulted (the target never saw them).
    faulted_bytes_ += data.size();
    return true;
  }
  state_.sockets[conn].rx.Push(data);
  return true;
}

bool NetEmu::QueueFault(int conn, const FaultPlan& plan) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  if (!NYX_EXPECT(ValidConn(conn)) || !plan.Valid()) {
    return false;
  }
  state_.sockets[conn].faults.Push(FaultEntry{plan, plan.count});
  return true;
}

void NetEmu::PeerClose(int conn) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  if (NYX_EXPECT(ValidConn(conn))) {
    state_.sockets[conn].peer_closed = true;
  }
}

const PacketQueue& NetEmu::Sent(int conn) const {
  static const PacketQueue kEmpty;
  if (!ValidConn(conn)) {
    return kEmpty;
  }
  return state_.sockets[conn].tx;
}

size_t NetEmu::UndeliveredBytes() const {
  size_t n = 0;
  for (const Sock& s : state_.sockets) {
    if (!s.live || !s.attack_surface) {
      continue;
    }
    n += s.rx.bytes();
    // A partially read front packet: the consumed prefix is no longer
    // "undelivered" (the pop-when-drained invariant keeps the offset
    // strictly inside the front packet).
    if (!s.rx.empty() && s.rx_front_consumed < s.rx.front().size()) {
      n -= s.rx_front_consumed;
    }
  }
  return n;
}

Bytes NetEmu::Serialize() const {
  Bytes out;
  PutLe32(out, 0x4e455433);  // "NET3"
  PutLe32(out, static_cast<uint32_t>(state_.sockets.size()));
  for (const Sock& s : state_.sockets) {
    out.push_back(s.live ? 1 : 0);
    out.push_back(static_cast<uint8_t>(s.kind));
    PutLe16(out, s.port);
    out.push_back(s.listening ? 1 : 0);
    out.push_back(s.attack_surface ? 1 : 0);
    out.push_back(s.peer_closed ? 1 : 0);
    PutLe32(out, static_cast<uint32_t>(s.refcount));
    PutLe64(out, s.rx_front_consumed);
    PutLe32(out, static_cast<uint32_t>(s.rx.size()));
    for (PacketQueue::Packet pkt : s.rx) {
      PutLe32(out, static_cast<uint32_t>(pkt.size()));
      Append(out, pkt);
    }
    PutLe32(out, static_cast<uint32_t>(s.pending_accept.size()));
    for (int c : s.pending_accept) {
      PutLe32(out, static_cast<uint32_t>(c));
    }
    PutLe32(out, static_cast<uint32_t>(s.tx.size()));
    for (PacketQueue::Packet pkt : s.tx) {
      PutLe32(out, static_cast<uint32_t>(pkt.size()));
      Append(out, pkt);
    }
    out.push_back(s.reset ? 1 : 0);
    // Fault queues are part of State: a restore mid-burst must replay the
    // remaining applications bit-identically.
    PutLe32(out, static_cast<uint32_t>(s.faults.size()));
    for (const FaultEntry& e : s.faults) {
      out.push_back(static_cast<uint8_t>(e.plan.kind));
      out.push_back(e.remaining);
      PutLe16(out, e.plan.arg);
    }
  }
  PutLe32(out, static_cast<uint32_t>(state_.fds.size()));
  for (const FdEntry& fd : state_.fds) {
    PutLe32(out, static_cast<uint32_t>(fd.sock));
    PutLe32(out, static_cast<uint32_t>(fd.process));
    out.push_back(fd.open ? 1 : 0);
  }
  PutLe32(out, static_cast<uint32_t>(state_.client_conns.size()));
  for (int c : state_.client_conns) {
    PutLe32(out, static_cast<uint32_t>(c));
  }
  PutLe32(out, static_cast<uint32_t>(state_.current_process));
  PutLe32(out, static_cast<uint32_t>(state_.next_process));
  out.push_back(state_.consumed_input ? 1 : 0);
  return out;
}

bool NetEmu::Deserialize(const Bytes& blob) {
  size_t off = 0;
  auto u8 = [&]() -> uint8_t { return off < blob.size() ? blob[off++] : 0; };
  auto u16 = [&]() {
    uint16_t v = ReadLe16(blob, off);
    off += 2;
    return v;
  };
  auto u32 = [&]() {
    uint32_t v = ReadLe32(blob, off);
    off += 4;
    return v;
  };
  auto u64 = [&]() -> uint64_t {
    uint64_t lo = u32();
    uint64_t hi = u32();
    return lo | (hi << 32);
  };
  // The next n bytes, or an empty packet when the blob is shorter.
  auto bytes = [&](size_t n) {
    PacketQueue::Packet b;
    if (off + n <= blob.size()) {
      b = PacketQueue::Packet(blob.data() + off, n);
    }
    off += n;
    return b;
  };

  if (u32() != 0x4e455433) {
    return false;
  }
  const uint32_t nsock = u32();
  if (nsock > config_.max_sockets) {
    return false;
  }
  state_.sockets.clear();
  state_.sockets.resize(nsock);
  for (Sock& s : state_.sockets) {
    s.live = u8() != 0;
    s.kind = static_cast<SockKind>(u8());
    s.port = u16();
    s.listening = u8() != 0;
    s.attack_surface = u8() != 0;
    s.peer_closed = u8() != 0;
    s.refcount = static_cast<int>(u32());
    s.rx_front_consumed = u64();
    const uint32_t nrx = u32();
    for (uint32_t i = 0; i < nrx && off <= blob.size(); i++) {
      const uint32_t len = u32();
      s.rx.Push(bytes(len));
    }
    const uint32_t nacc = u32();
    for (uint32_t i = 0; i < nacc; i++) {
      s.pending_accept.Push(static_cast<int>(u32()));
    }
    const uint32_t ntx = u32();
    for (uint32_t i = 0; i < ntx && off <= blob.size(); i++) {
      const uint32_t len = u32();
      s.tx.Push(bytes(len));
    }
    s.reset = u8() != 0;
    const uint32_t nfault = u32();
    for (uint32_t i = 0; i < nfault && off <= blob.size(); i++) {
      // Clamp against fuzzed blobs: an out-of-range kind or burst must not
      // become an out-of-range switch or an unbounded countdown.
      FaultEntry e;
      e.plan.kind = static_cast<FaultKind>(u8() % kFaultKindCount);
      e.remaining = u8();
      e.plan.arg = u16();
      if (e.remaining == 0 || e.remaining > kMaxFaultBurst) {
        continue;
      }
      e.plan.count = e.remaining;
      s.faults.Push(e);
    }
  }
  const uint32_t nfds = u32();
  if (nfds > config_.max_fds) {
    return false;
  }
  state_.fds.assign(nfds, FdEntry{});
  for (FdEntry& fd : state_.fds) {
    fd.sock = static_cast<int>(u32());
    fd.process = static_cast<int>(u32());
    fd.open = u8() != 0;
  }
  state_.client_conns.clear();
  const uint32_t nclient = u32();
  for (uint32_t i = 0; i < nclient; i++) {
    state_.client_conns.push_back(static_cast<int>(u32()));
  }
  state_.current_process = static_cast<int>(u32());
  state_.next_process = static_cast<int>(u32());
  state_.consumed_input = u8() != 0;
  blocked_on_input_ = false;
  return off <= blob.size();
}

void PrintTo(const NetEmu::State& state, std::ostream* os) {
  static const char* const kKindNames[] = {"listener", "stream", "dgram"};
  *os << "{";
  for (size_t i = 0; i < state.sockets.size(); i++) {
    const NetEmu::Sock& s = state.sockets[i];
    if (!s.live) {
      continue;
    }
    *os << "sock" << i << "=" << kKindNames[static_cast<size_t>(s.kind)] << ":" << s.port
        << " ref " << s.refcount << " rx " << s.rx.size() << "p/" << s.rx.bytes() << "B";
    if (s.rx_front_consumed != 0) {
      *os << "@" << s.rx_front_consumed;
    }
    *os << " tx " << s.tx.size() << "p/" << s.tx.bytes() << "B faults " << s.faults.size();
    if (s.listening) {
      *os << " backlog " << s.pending_accept.size();
    }
    if (s.peer_closed) {
      *os << (s.reset ? " reset" : " peer-closed");
    }
    *os << "; ";
  }
  *os << "open fds [";
  const char* sep = "";
  for (size_t fd = 0; fd < state.fds.size(); fd++) {
    if (state.fds[fd].open) {
      *os << sep << fd << "->sock" << state.fds[fd].sock << "/p" << state.fds[fd].process;
      sep = " ";
    }
  }
  *os << "] process " << state.current_process << " next " << state.next_process
      << (state.consumed_input ? " consumed" : "") << "}";
}

}  // namespace nyx
