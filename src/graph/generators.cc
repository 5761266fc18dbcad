#include "graph/generators.h"

#include <cassert>
#include <utility>
#include <vector>

namespace randrank {

CsrGraph PreferentialAttachmentGraph(size_t num_nodes, size_t edges_per_node,
                                     Rng& rng) {
  assert(num_nodes >= 2);
  assert(edges_per_node >= 1);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(num_nodes * edges_per_node);
  // Repeated-endpoint urn: sampling a uniform element of `urn` is
  // proportional to in-degree + 1 because every node enters once at birth
  // and once per received link.
  std::vector<uint32_t> urn;
  urn.reserve(2 * num_nodes * edges_per_node);
  urn.push_back(0);
  for (uint32_t node = 1; node < num_nodes; ++node) {
    for (size_t e = 0; e < edges_per_node; ++e) {
      const uint32_t target = urn[rng.NextIndex(urn.size())];
      if (target != node) {
        edges.emplace_back(node, target);
        urn.push_back(target);
      }
    }
    urn.push_back(node);
  }
  return CsrGraph::FromEdges(num_nodes, edges);
}

CsrGraph UniformRandomGraph(size_t num_nodes, size_t avg_out_degree,
                            Rng& rng) {
  assert(num_nodes >= 2);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  const size_t total = num_nodes * avg_out_degree;
  edges.reserve(total);
  for (size_t e = 0; e < total; ++e) {
    edges.emplace_back(static_cast<uint32_t>(rng.NextIndex(num_nodes)),
                       static_cast<uint32_t>(rng.NextIndex(num_nodes)));
  }
  return CsrGraph::FromEdges(num_nodes, edges);
}

}  // namespace randrank
