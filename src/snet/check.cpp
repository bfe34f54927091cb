#include "snet/check.hpp"

#include <algorithm>

#include "snet/verify.hpp"

namespace snet {

bool accepts_variant(const MultiType& input, const RecordType& produced) {
  return std::any_of(input.variants().begin(), input.variants().end(),
                     [&](const RecordType& w) { return w.included_in(produced); });
}

MultiType required_input(const Net& n) {
  if (!n) {
    throw TypeCheckError("null network expression");
  }
  switch (n->kind) {
    case NetNode::Kind::Box:
      return n->sig.input_type();
    case NetNode::Kind::Filter:
      return MultiType({n->filter->pattern().type});
    case NetNode::Kind::Serial:
      return required_input(n->left);
    case NetNode::Kind::Parallel:
      return required_input(n->left).union_with(required_input(n->right));
    case NetNode::Kind::Star: {
      // The declared input is the replica's input. Records that already
      // match the exit pattern are tapped out before the first replica at
      // run time whatever their type, but declaring the bare exit type as
      // an *input variant* would manufacture record types (e.g. a board-less
      // `{<done>}`) that downstream components cannot be expected to accept.
      return required_input(n->child);
    }
    case NetNode::Kind::Split: {
      std::vector<RecordType> in;
      const MultiType child_in = required_input(n->child);
      for (auto v : child_in.variants()) {
        v.add(n->split_tag);
        in.push_back(std::move(v));
      }
      return MultiType(std::move(in));
    }
    case NetNode::Kind::Sync: {
      MultiType in;
      for (const auto& p : n->sync_patterns) {
        in.add(p.type);
      }
      return in;
    }
  }
  throw TypeCheckError("corrupt network node");
}

MultiType propagate(const Net& net, const MultiType& incoming) {
  if (!net) {
    throw TypeCheckError("null network expression");
  }
  detail::ShapeFlow flow = detail::shape_flow(net, incoming, VerifyOptions{});
  if (flow.type_error) {
    throw TypeCheckError(*flow.type_error);
  }
  return std::move(flow.output);
}

NetSignature infer(const Net& net) {
  MultiType in = required_input(net);
  return NetSignature{in, propagate(net, in)};
}

}  // namespace snet
