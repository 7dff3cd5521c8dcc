#include "src/spec/builder.h"

#include "src/spec/verify.h"

namespace nyx {

std::optional<ValueRef> Builder::Node(const std::string& name, const std::vector<ValueRef>& args,
                                      Bytes data) {
  auto node_id = spec_.FindNodeType(name);
  if (!node_id.has_value()) {
    error_ = "unknown node type: " + name;
    return std::nullopt;
  }
  const NodeTypeDef& node = spec_.node_type(*node_id);
  if (args.size() != node.borrows.size() + node.consumes.size()) {
    error_ = "arity mismatch for node: " + name;
    return std::nullopt;
  }
  Op op;
  op.node_type = static_cast<uint8_t>(*node_id);
  for (const ValueRef& arg : args) {
    op.args.push_back(arg.id);
  }
  op.data = std::move(data);
  program_.ops.push_back(std::move(op));

  std::optional<ValueRef> first_output;
  for (int edge : node.outputs) {
    ValueRef ref{next_value_++, edge};
    if (!first_output.has_value()) {
      first_output = ref;
    }
  }
  return first_output.has_value() ? first_output : std::optional<ValueRef>(ValueRef{});
}

ValueRef Builder::Connection() {
  auto ref = Node("connection");
  return ref.value_or(ValueRef{});
}

void Builder::Packet(ValueRef conn, std::string_view payload) {
  Packet(conn, ToBytes(payload));
}

void Builder::Packet(ValueRef conn, Bytes payload) {
  Node("pkt", {conn}, std::move(payload));
}

void Builder::Close(ValueRef conn) { Node("close", {conn}); }

std::optional<Program> Builder::Build() const {
  if (!error_.empty()) {
    return std::nullopt;
  }
  // Static verification catches what the builder API cannot prevent: type
  // errors and use after consume, and oversize payloads fed through
  // Packet() that would not survive a wire round trip.
  const spec::Result verdict = spec::Verify(program_, spec_);
  if (!verdict.ok()) {
    error_ = verdict.Summary();
    return std::nullopt;
  }
  return program_;
}

}  // namespace nyx
