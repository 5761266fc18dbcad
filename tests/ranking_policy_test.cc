#include "core/ranking_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"

namespace randrank {
namespace {

TEST(RankPromotionConfigTest, NoneFactory) {
  const RankPromotionConfig c = RankPromotionConfig::None();
  EXPECT_EQ(c.rule, PromotionRule::kNone);
  EXPECT_DOUBLE_EQ(c.r, 0.0);
  EXPECT_EQ(c.k, 1u);
  EXPECT_TRUE(c.Valid());
}

TEST(RankPromotionConfigTest, UniformFactory) {
  const RankPromotionConfig c = RankPromotionConfig::Uniform(0.3, 2);
  EXPECT_EQ(c.rule, PromotionRule::kUniform);
  EXPECT_DOUBLE_EQ(c.r, 0.3);
  EXPECT_EQ(c.k, 2u);
  EXPECT_TRUE(c.Valid());
}

TEST(RankPromotionConfigTest, SelectiveFactory) {
  const RankPromotionConfig c = RankPromotionConfig::Selective(0.15, 6);
  EXPECT_EQ(c.rule, PromotionRule::kSelective);
  EXPECT_DOUBLE_EQ(c.r, 0.15);
  EXPECT_EQ(c.k, 6u);
}

TEST(RankPromotionConfigTest, RecommendedRecipeMatchesPaper) {
  const RankPromotionConfig c = RankPromotionConfig::Recommended();
  EXPECT_EQ(c.rule, PromotionRule::kSelective);
  EXPECT_DOUBLE_EQ(c.r, 0.1);
  EXPECT_EQ(c.k, 1u);
  const RankPromotionConfig c2 = RankPromotionConfig::Recommended(2);
  EXPECT_EQ(c2.k, 2u);
}

TEST(RankPromotionConfigTest, FixedPositionIsSelectiveROne) {
  const RankPromotionConfig c = RankPromotionConfig::FixedPosition(21);
  EXPECT_EQ(c.rule, PromotionRule::kSelective);
  EXPECT_DOUBLE_EQ(c.r, 1.0);
  EXPECT_EQ(c.k, 21u);
}

TEST(RankPromotionConfigTest, Validation) {
  RankPromotionConfig c = RankPromotionConfig::Selective(0.5, 1);
  EXPECT_TRUE(c.Valid());
  c.r = 1.5;
  EXPECT_FALSE(c.Valid());
  c.r = -0.1;
  EXPECT_FALSE(c.Valid());
  c = RankPromotionConfig::None();
  c.r = 0.2;  // none must have r == 0
  EXPECT_FALSE(c.Valid());
  c = RankPromotionConfig::Selective(0.5, 0);
  EXPECT_FALSE(c.Valid());
}

TEST(RankPromotionConfigTest, Labels) {
  EXPECT_EQ(RankPromotionConfig::None().Label(), "none");
  EXPECT_EQ(RankPromotionConfig::Selective(0.1, 2).Label(),
            "selective(r=0.10,k=2)");
  EXPECT_EQ(RankPromotionConfig::Uniform(0.25, 1).Label(),
            "uniform(r=0.25,k=1)");
}

// The promotion policy `policy` holds; null for none or another family.
const PromotionPolicy* AsPromotion(
    const std::shared_ptr<const StochasticRankingPolicy>& policy) {
  return dynamic_cast<const PromotionPolicy*>(policy.get());
}

TEST(RankPromotionConfigTest, LabelRoundTripsEveryRule) {
  const RankPromotionConfig cases[] = {
      RankPromotionConfig::None(),
      RankPromotionConfig::Uniform(0.25, 1),
      RankPromotionConfig::Selective(0.1, 2),
      RankPromotionConfig::Recommended(2),
      RankPromotionConfig::FixedPosition(21),
  };
  for (const RankPromotionConfig& original : cases) {
    const auto policy = MakePolicyFromLabel(original.Label());
    const PromotionPolicy* promotion = AsPromotion(policy);
    ASSERT_NE(promotion, nullptr) << original.Label();
    const RankPromotionConfig& parsed = promotion->config();
    EXPECT_EQ(parsed.rule, original.rule) << original.Label();
    EXPECT_DOUBLE_EQ(parsed.r, original.r) << original.Label();
    EXPECT_EQ(parsed.k, original.k) << original.Label();
    // And the round trip is a fixed point of Label itself.
    EXPECT_EQ(parsed.Label(), original.Label());
  }
}

TEST(RankPromotionConfigTest, LabelReaderRejectsMalformedStrings) {
  for (const char* bad :
       {"", "nonsense", "selective", "selective(r=0.10)",
        "selective(r=0.10,k=2)x", "uniform(r=1.50,k=1)", "uniform(r=0.10,k=0)",
        "plackett-luce(T=0.25)"}) {
    EXPECT_EQ(AsPromotion(MakePolicyFromLabel(bad)), nullptr) << bad;
  }
}

}  // namespace
}  // namespace randrank
