// Selective network emulation (paper sections 3.3 and 4.1).
//
// Nyx-Net injects an LD_PRELOAD library into the target that hooks ~30 libc
// networking functions. The hooks track which file descriptors belong to the
// external attack surface and serve fuzzer-generated packets directly from
// the input bytecode — no kernel network stack is involved, packet
// boundaries are preserved ("a frightening amount of servers assume that a
// single call to recv() will never return data from more than one packet"),
// and the right place for the root snapshot is found automatically (the
// first time the target would consume attacker data).
//
// This class is the emulated-kernel side of those hooks. Targets call the
// libc-shaped methods below; the fuzzer-facing methods queue connections and
// packets. Everything a restore must bring back is one copyable State: the
// engine keeps a copy beside each VM snapshot and assigns it back, so fd
// tables, queues and stream positions return exactly.

#ifndef SRC_NETEMU_NETEMU_H_
#define SRC_NETEMU_NETEMU_H_

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/telemetry.h"
#include "src/common/vclock.h"
#include "src/netemu/errno_table.h"
#include "src/spec/fault_plan.h"

namespace nyx {

enum class SockKind : uint8_t {
  kListener,
  kStream,  // TCP / Unix stream: packet-chunked byte stream
  kDgram,   // UDP: datagram boundaries are semantic
};

class NetEmu {
 public:
  struct Config {
    size_t max_fds = 128;
    size_t max_sockets = 128;
    // Whether a Recv on a stream socket may return at most one queued packet
    // (Nyx-Net behaviour) or coalesces everything available (what a
    // stdin-redirection layer like desock effectively does).
    bool preserve_packet_boundaries = true;
  };

  NetEmu();
  explicit NetEmu(Config config);

  void AttachClock(VirtualClock* clock, const CostModel* cost) {
    clock_ = clock;
    cost_ = cost;
  }

  // ---- Target-facing API (the hooked libc surface) ----

  int Socket(SockKind kind);
  int Bind(int fd, uint16_t port);
  int Listen(int fd, int backlog);
  // Accepts a queued connection; kErrAgain if none pending.
  int Accept(int fd);
  // Outbound connection (client targets): the resulting socket is part of
  // the attack surface — the fuzzer plays the remote server.
  int Connect(int fd, uint16_t port);
  // Packet-boundary-preserving receive; kErrAgain when no data is queued,
  // 0 on orderly peer close.
  int Recv(int fd, void* buf, size_t len);
  int Send(int fd, const void* data, size_t len);
  int Close(int fd);
  // fork() support: duplicates the fd table for a child process id. Sockets
  // are shared (refcounted), so packet consumption stays synchronized across
  // processes — "forking network servers will usually inherit a recently
  // opened socket from the main process".
  int ForkFdTable();
  // Closes every fd owned by `process`.
  void ExitProcess(int process);
  // Switches which process's fd table the libc-shaped calls use.
  void SetCurrentProcess(int process) { state_.current_process = process; }
  int current_process() const { return state_.current_process; }

  // ---- Fuzzer-facing API (driven by the bytecode interpreter) ----

  // Queues a new inbound connection on the listener bound to `port` (or the
  // only listener if port is 0). Returns a connection handle, or -1.
  int QueueConnection(uint16_t port);
  // Finds the bound datagram socket for `port` (0 = any); UDP "connections"
  // deliver straight to it. Returns a connection handle, or -1.
  int FindDgramSocket(uint16_t port) const;
  // Appends one packet to a connection's receive queue. The handle comes
  // from QueueConnection() or from ClientConnections(). Returns true when
  // the bytes entered the emulator (a reset connection accepts-and-drops
  // them into faulted_bytes(), like a kernel dropping onto a dead socket).
  bool DeliverPacket(int conn, Bytes data);
  void PeerClose(int conn);
  // Queues one deterministic fault plan on a connection. Plans are strictly
  // FIFO per socket: the front plan is consulted by the libc-shaped call it
  // applies to and passes through calls it does not (a short-write queued
  // before a short-read simply waits for the next Send). Driven by the
  // NodeSemantic::kFault opcode; see src/spec/fault_plan.h.
  bool QueueFault(int conn, const FaultPlan& plan);
  // Everything the target sent on this connection, packet boundaries as sent.
  const std::vector<Bytes>& Sent(int conn) const;
  // Connection handles created by the target via Connect().
  const std::vector<int>& ClientConnections() const { return state_.client_conns; }

  // True when the last blocking call (Accept/Recv) blocked waiting for
  // attack-surface input — the auto-placement point for the root snapshot
  // ("directly before the first byte of input data is passed").
  bool blocked_on_input() const { return blocked_on_input_; }
  // True once the target has consumed at least one attacker-controlled byte.
  bool consumed_input() const { return state_.consumed_input; }

  // Bytes of fuzz input still queued but never read by the target.
  size_t UndeliveredBytes() const;
  // Bytes dropped by injected faults (connection resets discarding queued
  // packets, deliveries onto reset sockets). Conservation invariant:
  //   consumed + UndeliveredBytes() + faulted_bytes() == delivered.
  uint64_t faulted_bytes() const { return faulted_bytes_; }
  // Total fault applications (per-kind breakdown is in the metric registry
  // under netemu.faults_injected.<kind>).
  uint64_t faults_injected() const { return faults_injected_; }

  // ---- Snapshot support ----

  // One queued fault application: the plan plus how many calls it still
  // fires on (burst countdown). Part of State, so a restore mid-burst
  // replays the remaining applications exactly.
  struct FaultEntry {
    FaultPlan plan;
    uint8_t remaining = 0;
    bool operator==(const FaultEntry&) const = default;
  };

  struct Sock {
    bool live = false;
    SockKind kind = SockKind::kStream;
    uint16_t port = 0;
    bool listening = false;
    bool attack_surface = false;
    bool peer_closed = false;
    bool reset = false;             // killed by a kConnReset fault
    int refcount = 0;
    std::deque<Bytes> rx;           // queued packets, boundaries preserved
    size_t rx_front_consumed = 0;   // partial read offset into rx.front()
    std::deque<int> pending_accept; // queued connection socket indices
    std::vector<Bytes> tx;
    std::deque<FaultEntry> faults;  // FIFO fault queue (see QueueFault)
    bool operator==(const Sock&) const = default;
  };

  struct FdEntry {
    int sock = -1;       // index into sockets
    int process = -1;    // owning process id
    bool open = false;
    bool operator==(const FdEntry&) const = default;
  };

  // Everything a snapshot restore brings back. Counters (calls(),
  // faults_injected(), faulted_bytes()), config and clock stay outside, so
  // a restore never rewinds them.
  struct State {
    std::vector<Sock> sockets;
    std::vector<FdEntry> fds;
    std::vector<int> client_conns;
    int current_process = 0;
    int next_process = 1;
    bool consumed_input = false;
    bool operator==(const State&) const = default;
  };

  const State& state() const { return state_; }
  // Assigns `state` back and clears blocked_on_input(): a restored target
  // has not blocked yet.
  void Restore(const State& state) {
    state_ = state;
    blocked_on_input_ = false;
  }

  // A byte codec of State. Nothing on an exec path uses it; the wall-clock
  // benchmark's codec probe (bench/wallclock) still times it and checks
  // that it round-trips.
  Bytes Serialize() const;
  bool Deserialize(const Bytes& blob);

  // ---- Introspection ----
  uint64_t calls() const { return calls_; }
  bool ValidConn(int conn) const {
    return conn >= 0 && conn < static_cast<int>(state_.sockets.size()) &&
           state_.sockets[conn].live;
  }

 private:
  int AllocSocket();
  int AllocFd(int sock);
  Sock* SockForFd(int fd);
  void DropSocketRef(int sock);
  // If the front of the socket's fault queue matches one of `kinds`,
  // consumes one application (pops one-shot kinds whole) and returns the
  // plan; otherwise leaves the queue untouched and returns nullopt.
  std::optional<FaultPlan> TakeFault(Sock& s, std::initializer_list<FaultKind> kinds);
  // kConnReset application: queued-but-unread rx bytes move to
  // faulted_bytes_ and the socket goes dead-to-the-peer.
  void ResetSock(Sock& s);
  void Charge() {
    calls_++;
    if (clock_ != nullptr) {
      clock_->Advance(cost_->emulated_call_ns);
    }
  }

  Config config_;
  State state_;
  bool blocked_on_input_ = false;
  uint64_t calls_ = 0;
  // Observational (like calls_): deliberately outside State, so audit
  // fingerprints stay identical across replays that re-apply the faults.
  uint64_t faults_injected_ = 0;
  uint64_t faulted_bytes_ = 0;
  VirtualClock* clock_ = nullptr;
  const CostModel* cost_ = nullptr;
  // Registry counters, resolved once at construction; the per-call overhead
  // is one relaxed fetch_add each.
  telemetry::Counter* conns_queued_counter_;
  telemetry::Counter* packets_counter_;
  telemetry::Counter* bytes_counter_;
  telemetry::Counter* fault_counters_[kFaultKindCount];
};

}  // namespace nyx

#endif  // SRC_NETEMU_NETEMU_H_
