// Seed builder (paper section 4.4, Listing 2).
//
// Nyx-Net's Python library creates one function per spec node; calling the
// functions records a graph of invocations whose build() serializes to flat
// bytecode. This is the C++ analogue:
//
//   Builder b(spec);
//   auto con = b.Connection();
//   b.Packet(con, "HTTP/1.1 200 OK");
//   Program seed = b.Build();

#ifndef SRC_SPEC_BUILDER_H_
#define SRC_SPEC_BUILDER_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {

// A tracked value: remembers which call produced it, so later calls can
// reference it ("calls that use those tracking objects as input can track
// where the values they use were created").
struct ValueRef {
  uint16_t id = 0;
  int edge_type = -1;
};

class Builder {
 public:
  explicit Builder(const Spec& spec) : spec_(spec) {}

  // Generic node invocation by name. Returns the first output value (if the
  // node produces one). Invalid usage is recorded and surfaced by Build().
  std::optional<ValueRef> Node(const std::string& name, const std::vector<ValueRef>& args = {},
                               Bytes data = {});

  // Conveniences for the standard network specs.
  ValueRef Connection();
  void Packet(ValueRef conn, std::string_view payload);
  void Packet(ValueRef conn, Bytes payload);
  void Close(ValueRef conn);

  // Serializes the recorded call graph into a flat bytecode program. Returns
  // nullopt if any recorded call was invalid (unknown node, wrong arity) or
  // the result fails spec::Verify (spec/verify.h: type errors, use after
  // consume, oversize payloads); error() then carries the diagnostics.
  std::optional<Program> Build() const;

  const std::string& error() const { return error_; }

 private:
  const Spec& spec_;
  Program program_;
  uint16_t next_value_ = 0;
  // Also set by Build() (a const summary step), hence mutable.
  mutable std::string error_;
};

}  // namespace nyx

#endif  // SRC_SPEC_BUILDER_H_
