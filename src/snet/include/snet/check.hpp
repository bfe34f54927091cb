#ifndef SNETSAC_SNET_CHECK_HPP
#define SNETSAC_SNET_CHECK_HPP

/// \file check.hpp
/// Static signature inference over network topologies. "Each network is
/// associated with a type signature. However, unlike box signatures they
/// are inferred by the compiler." (paper, §4).
///
/// Inference combines two walks:
///
///  * `required_input` — bottom-up: the label sets a network needs on
///    incoming records (used both for checking and for best-match routing
///    at parallel combinators).
///  * `propagate` — forward: starting from the network's own input
///    variants, the (lower-bound) types of records each component can
///    produce, *including flow inheritance* — excess labels of an input
///    record re-appear on outputs. This is what makes the paper's Fig. 2
///    filter `[{} -> {<k>=1}]` check out against a downstream `!!<k>` even
///    though `board`/`opts` "do not occur in the filter".
///
/// The forward walk is the shape-flow verifier's (verify.hpp); `propagate`
/// and `infer` are its fail-fast view and raise TypeCheckError with the
/// verifier's first Error diagnostic. Output types are lower bounds: by
/// record subtyping, actual records may always carry additional labels.

#include <stdexcept>
#include <string>

#include "snet/net.hpp"
#include "snet/rtypes.hpp"

namespace snet {

class TypeCheckError : public std::runtime_error {
 public:
  explicit TypeCheckError(const std::string& what) : std::runtime_error(what) {}
};

struct NetSignature {
  MultiType input;
  MultiType output;

  std::string to_string() const {
    return input.to_string() + " -> " + output.to_string();
  }
};

/// Infers the full signature of \p net (required input, propagated to the
/// output), checking combinator compatibility. Throws TypeCheckError with
/// the offending subexpression.
NetSignature infer(const Net& net);

/// The input variants \p net accepts.
MultiType required_input(const Net& net);

/// Output variants produced when \p incoming variants are fed in (none
/// for an empty \p incoming). Throws TypeCheckError when a variant cannot
/// be handled or a serial replication cannot make progress.
MultiType propagate(const Net& net, const MultiType& incoming);

/// True when a record of (lower-bound) type \p produced is accepted by a
/// network with input multitype \p input: some input variant's labels are
/// all guaranteed present.
bool accepts_variant(const MultiType& input, const RecordType& produced);

}  // namespace snet

#endif
