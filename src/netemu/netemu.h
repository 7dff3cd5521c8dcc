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

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
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

// A FIFO over one vector and a head index: popping advances the head, and
// popping the last element empties the vector. A queue that is drained as
// it fills never grows, and Clear() keeps the capacity, so steady-state
// traffic allocates nothing (a std::deque allocates a map and a node even
// when empty). Equality compares the queued elements, not the storage.
template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  void Push(const T& item) { items_.push_back(item); }
  void PopFront() {
    if (++head_ == items_.size()) {
      Clear();
    }
  }
  void Clear() {
    items_.clear();
    head_ = 0;
  }
  typename std::vector<T>::const_iterator begin() const { return items_.begin() + head_; }
  typename std::vector<T>::const_iterator end() const { return items_.end(); }
  bool operator==(const Fifo& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;
};

// A FIFO of packets in one byte buffer: the packets lie back to back in
// `bytes_`, `ends_[i]` is where packet i ends, and packets before `head_`
// are popped. Like Fifo, popping the last packet empties the storage and
// Clear() keeps the capacity. Equality compares the queued packets,
// boundaries included, not the storage.
class PacketQueue {
 public:
  using Packet = std::span<const uint8_t>;

  class Iterator {
   public:
    Iterator(const PacketQueue* q, size_t i) : q_(q), i_(i) {}
    Packet operator*() const { return (*q_)[i_]; }
    Iterator& operator++() {
      i_++;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const PacketQueue* q_;
    size_t i_;
  };

  bool empty() const { return head_ == ends_.size(); }
  // Queued packets.
  size_t size() const { return ends_.size() - head_; }
  // Packet i counted from the front.
  Packet operator[](size_t i) const {
    const size_t n = head_ + i;
    const size_t begin = n == 0 ? 0 : ends_[n - 1];
    return Packet(bytes_.data() + begin, ends_[n] - begin);
  }
  Packet front() const { return (*this)[0]; }
  // Bytes in the queued packets.
  size_t bytes() const { return bytes_.size() - (head_ == 0 ? 0 : ends_[head_ - 1]); }
  void Push(Packet packet) {
    Append(bytes_, packet);
    ends_.push_back(bytes_.size());
  }
  void PopFront() {
    if (++head_ == ends_.size()) {
      Clear();
    }
  }
  void Clear() {
    bytes_.clear();
    ends_.clear();
    head_ = 0;
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }
  bool operator==(const PacketQueue& other) const;

 private:
  Bytes bytes_;
  std::vector<size_t> ends_;
  size_t head_ = 0;
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
  bool DeliverPacket(int conn, std::span<const uint8_t> data);
  void PeerClose(int conn);
  // Queues one deterministic fault plan on a connection. Plans are strictly
  // FIFO per socket: the front plan is consulted by the libc-shaped call it
  // applies to and passes through calls it does not (a short-write queued
  // before a short-read simply waits for the next Send). Driven by the
  // NodeSemantic::kFault opcode; see src/spec/fault_plan.h.
  bool QueueFault(int conn, const FaultPlan& plan);
  // Everything the target sent on this connection, packet boundaries as sent.
  const PacketQueue& Sent(int conn) const;
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
    PacketQueue rx;                 // queued packets, boundaries preserved
    size_t rx_front_consumed = 0;   // partial read offset into rx.front()
    Fifo<int> pending_accept;       // queued connection socket indices
    PacketQueue tx;                 // everything sent, never popped
    Fifo<FaultEntry> faults;        // FIFO fault queue (see QueueFault)
    bool operator==(const Sock&) const = default;
    // Resets every field to a new socket's value; the queues keep their
    // storage.
    void Clear();
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
  // has not blocked yet. Sockets are assigned one by one, and the sockets
  // past the end of `state` are parked in a spare list for AllocSocket, so
  // every queue keeps its storage across restores.
  void Restore(const State& state);

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
  // Appends a socket to the table: a parked one from spare_ if there is
  // one, so its queues keep their storage, else a new one.
  void AppendSocket();
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
  // Sockets cut off by Restore, cleared on reuse. Outside State: they hold
  // only storage, so no restore or comparison sees them.
  std::vector<Sock> spare_;
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

// gtest prints a failing State comparison through this: each live socket's
// kind, port, refcount, queued packets and bytes and fault-queue length,
// then the open fds.
void PrintTo(const NetEmu::State& state, std::ostream* os);

}  // namespace nyx

#endif  // SRC_NETEMU_NETEMU_H_
