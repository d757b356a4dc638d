// Every output check passes a good output and fails a hand-made bad one.

#include <gtest/gtest.h>

#include <cmath>

#include "checks.hpp"

namespace rotabench {
namespace {

TEST(ReplyOrder, InOrderOkRepliesPass) {
  EXPECT_TRUE(check_reply_order({"a", "b"}, {{"a", true, 1}, {"b", true, 2}})
                  .empty());
}

TEST(ReplyOrder, SwappedRepliesFail) {
  EXPECT_FALSE(check_reply_order({"a", "b"}, {{"b", true, 2}, {"a", true, 1}})
                   .empty());
}

TEST(ReplyOrder, ErrorReplyFails) {
  EXPECT_FALSE(
      check_reply_order({"a", "b"}, {{"a", true, 1}, {"b", false, 2}}).empty());
}

TEST(ReplyOrder, MissingReplyFails) {
  EXPECT_FALSE(check_reply_order({"a", "b"}, {{"a", true, 1}}).empty());
}

TEST(MeanUsage, ExpectedMeanIsIterationsTimesAllocationsOverArea) {
  // 2 tiles of 2x3 and 1 tile of 4x4 per iteration on a 4x4 array.
  EXPECT_DOUBLE_EQ(expected_mean_usage({{2, 3, 2}, {4, 4, 1}}, 4, 4, 10),
                   10.0 * (12 + 16) / 16);
}

TEST(MeanUsage, EqualMeansPass) {
  EXPECT_TRUE(check_mean_usage({{"k", "RWL", 2.5}, {"k", "Baseline", 2.5}},
                               {{"k", 2.5}})
                  .empty());
}

TEST(MeanUsage, OnePolicyOffFails) {
  EXPECT_FALSE(check_mean_usage({{"k", "RWL", 2.5}, {"k", "Baseline", 2.5000001}},
                                {{"k", 2.5}})
                   .empty());
}

TEST(MeanUsage, UnknownKeyFails) {
  EXPECT_FALSE(check_mean_usage({{"q", "RWL", 2.5}}, {{"k", 2.5}}).empty());
}

TEST(ImprovementBound, InsideBoundPasses) {
  EXPECT_TRUE(check_improvement_bound("x", 1.0, 4.0, 2.0).empty());
  EXPECT_TRUE(check_improvement_bound("x", 2.0, 4.0, 2.0).empty());
}

TEST(ImprovementBound, BelowOneOrAboveUniformFails) {
  EXPECT_FALSE(check_improvement_bound("x", 0.9, 4.0, 2.0).empty());
  EXPECT_FALSE(check_improvement_bound("x", 2.1, 4.0, 2.0).empty());
}

DegradeView good_degrade() {
  DegradeView v;
  v.horizon = 100;
  v.spares = 2;
  v.w = 4;
  v.h = 3;
  v.beta = 2.0;
  v.iterations_run = 100;
  v.faults_injected = 5;
  v.remaps = 2;
  v.unmapped_faults = 3;
  v.live_pes = 9;
  v.live_alphas = std::vector<double>(9, 1.0);
  v.mttf_tolerance = 0;
  // No tolerance: the serial chain, Gamma(1 + 1/2) / sqrt(9).
  v.mttf_final = std::tgamma(1.5) / 3.0;
  return v;
}

TEST(Degrade, ConsistentReportPasses) {
  const Findings f = check_degrade(good_degrade());
  EXPECT_TRUE(f.empty()) << (f.empty() ? "" : f.front());
}

TEST(Degrade, EachBrokenFieldFails) {
  const auto broken = [](auto mutate) {
    DegradeView v = good_degrade();
    mutate(v);
    return !check_degrade(v).empty();
  };
  EXPECT_TRUE(broken([](DegradeView& v) { v.retired = true; }));
  EXPECT_TRUE(broken([](DegradeView& v) { v.iterations_run = 99; }));
  EXPECT_TRUE(broken([](DegradeView& v) { v.lost_units = 1; }));
  EXPECT_TRUE(broken([](DegradeView& v) { v.faults_injected = 6; }));
  EXPECT_TRUE(broken([](DegradeView& v) {
    v.remaps = 3;  // a spared PE counted twice
    v.faults_injected = 6;
  }));
  EXPECT_TRUE(broken([](DegradeView& v) { v.live_pes = 10; }));
  EXPECT_TRUE(broken([](DegradeView& v) { v.mttf_final *= 1.001; }));
}

TEST(Degrade, KOutOfNMatchesTheOrderStatisticOfExponentials) {
  // beta = 1, unit rates: the (k+1)-th of n failures comes after
  // sum_{i<=k} 1/(n - i).
  const std::vector<double> alphas(10, 1.0);
  const double want = 1.0 / 10 + 1.0 / 9 + 1.0 / 8;
  EXPECT_NEAR(k_out_of_n_mttf(alphas, 2, 1.0), want, 1e-9 * want);
}

TEST(SameText, IdenticalPassesDifferentFails) {
  EXPECT_TRUE(check_same_text("csv", "a,b\n", "a,b\n").empty());
  EXPECT_FALSE(check_same_text("csv", "a,b\n", "a,c\n").empty());
}

TEST(Spaces, FittingLayersPass) {
  EXPECT_TRUE(check_spaces("s", {{14, 12, 3}, {1, 1, 1}}, 14, 12).empty());
}

TEST(Spaces, OversizedEmptyOrZeroTileLayersFail) {
  EXPECT_FALSE(check_spaces("s", {{15, 12, 3}}, 14, 12).empty());
  EXPECT_FALSE(check_spaces("s", {{14, 0, 3}}, 14, 12).empty());
  EXPECT_FALSE(check_spaces("s", {{4, 4, 0}}, 14, 12).empty());
  EXPECT_FALSE(check_spaces("s", {}, 14, 12).empty());
}

TEST(Front, NonDominatedFrontWithOptimumPasses) {
  EXPECT_TRUE(
      check_front("f", {{1.0, 5.0, 1.0}, {2.0, 3.0, 2.0}}, 1.0, 5.0).empty());
}

TEST(Front, DominatedMemberFails) {
  EXPECT_FALSE(
      check_front("f", {{1.0, 5.0, 1.0}, {2.0, 6.0, 1.0}}, 1.0, 5.0).empty());
}

TEST(Front, MissingOrUndercutOptimumFails) {
  EXPECT_FALSE(check_front("f", {{2.0, 3.0, 2.0}}, 1.0, 5.0).empty());
  EXPECT_FALSE(
      check_front("f", {{0.5, 9.0, 0.1}, {1.0, 5.0, 1.0}}, 1.0, 5.0).empty());
}

TEST(Eq4, MatchingImprovementPasses) {
  // Baseline (2, 0), leveled (1, 1), beta = 2: sqrt(4) / sqrt(2).
  EXPECT_TRUE(check_eq4("e", {2.0, 0.0}, {1.0, 1.0}, 2.0, std::sqrt(2.0)).empty());
}

TEST(Eq4, OffImprovementFails) {
  EXPECT_FALSE(
      check_eq4("e", {2.0, 0.0}, {1.0, 1.0}, 2.0, std::sqrt(2.0) * (1 + 1e-9))
          .empty());
}

TEST(MonteCarlo, EstimateWithinFourErrorsPasses) {
  const std::vector<double> alphas = {1.0, 1.0, 1.0, 1.0};
  const double cf = serial_chain_mttf(alphas, 2.0);
  EXPECT_DOUBLE_EQ(cf, std::tgamma(1.5) / 2.0);
  EXPECT_TRUE(check_monte_carlo("m", alphas, 2.0, cf + 0.03, 0.01).empty());
}

TEST(MonteCarlo, EstimateBeyondFourErrorsFails) {
  const std::vector<double> alphas = {1.0, 1.0, 1.0, 1.0};
  const double cf = serial_chain_mttf(alphas, 2.0);
  EXPECT_FALSE(check_monte_carlo("m", alphas, 2.0, cf + 0.05, 0.01).empty());
  EXPECT_FALSE(check_monte_carlo("m", alphas, 2.0, cf, 0.0).empty());
}

}  // namespace
}  // namespace rotabench
