#include "graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace randrank {
namespace {

TEST(GeneratorsTest, PreferentialAttachmentSizes) {
  Rng rng(1);
  const CsrGraph g = PreferentialAttachmentGraph(1000, 3, rng);
  EXPECT_EQ(g.num_nodes(), 1000u);
  // Each non-seed node adds up to 3 edges (some dropped as self-loops).
  EXPECT_GT(g.num_edges(), 2900u);
  EXPECT_LE(g.num_edges(), 3 * 999u);
}

TEST(GeneratorsTest, PreferentialAttachmentHeavyTail) {
  Rng rng(2);
  const CsrGraph g = PreferentialAttachmentGraph(5000, 2, rng);
  std::vector<uint32_t> in = g.InDegrees();
  std::sort(in.rbegin(), in.rend());
  // Scale-free signature: the max hub collects far more than the median.
  EXPECT_GT(in[0], 20u * std::max<uint32_t>(1, in[2500]));
}

TEST(GeneratorsTest, UniformRandomDegreesConcentrate) {
  Rng rng(3);
  const CsrGraph g = UniformRandomGraph(2000, 5, rng);
  std::vector<uint32_t> in = g.InDegrees();
  std::sort(in.rbegin(), in.rend());
  // Poisson-like in-degree: no giant hub.
  EXPECT_LT(in[0], 30u);
}

TEST(GeneratorsTest, DeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  const CsrGraph ga = PreferentialAttachmentGraph(500, 2, a);
  const CsrGraph gb = PreferentialAttachmentGraph(500, 2, b);
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (uint32_t u = 0; u < 500; ++u) {
    auto na = ga.OutNeighbors(u);
    auto nb = gb.OutNeighbors(u);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

}  // namespace
}  // namespace randrank
