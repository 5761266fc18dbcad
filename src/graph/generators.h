#ifndef RANDRANK_GRAPH_GENERATORS_H_
#define RANDRANK_GRAPH_GENERATORS_H_

#include <cstddef>

#include "graph/csr.h"
#include "util/rng.h"

namespace randrank {

/// Barabasi-Albert preferential attachment: nodes arrive one at a time and
/// attach `edges_per_node` out-links to existing nodes with probability
/// proportional to (in-degree + 1). Produces the power-law in-degree tail
/// characteristic of the Web graph.
CsrGraph PreferentialAttachmentGraph(size_t num_nodes, size_t edges_per_node,
                                     Rng& rng);

/// G(n, m)-style uniform random digraph with num_nodes * avg_out_degree
/// edges, endpoints uniform (self-loops dropped by CSR construction).
CsrGraph UniformRandomGraph(size_t num_nodes, size_t avg_out_degree, Rng& rng);

}  // namespace randrank

#endif  // RANDRANK_GRAPH_GENERATORS_H_
