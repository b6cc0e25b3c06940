// Detection tests: individual detector signals, AUC math, and the
// end-to-end property that the ensemble separates attack fleets from
// organic users.
#include "defense/detector.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "attack/heuristics.h"
#include "data/synthetic.h"
#include "env/environment.h"
#include "rec/registry.h"

namespace poisonrec::defense {
namespace {

data::Dataset OrganicLog() {
  data::SyntheticConfig cfg;
  cfg.num_users = 120;
  cfg.num_items = 80;
  cfg.num_interactions = 2400;
  cfg.seed = 55;
  return data::GenerateSynthetic(cfg);
}

TEST(AucTest, PerfectSeparation) {
  std::vector<double> scores = {0.1, 0.2, 0.9, 0.95};
  EXPECT_DOUBLE_EQ(DetectionAuc(scores, {2, 3}), 1.0);
}

TEST(AucTest, InvertedSeparation) {
  std::vector<double> scores = {0.9, 0.8, 0.1, 0.2};
  EXPECT_DOUBLE_EQ(DetectionAuc(scores, {2, 3}), 0.0);
}

TEST(AucTest, TiesGiveChance) {
  std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(DetectionAuc(scores, {1, 3}), 0.5);
}

// Degenerate inputs: a production defender feeds DetectionAuc whatever
// the campaign produced — including logs with no fakes left (all banned),
// all-fake audit slices, and constant detector scores. All must return
// the chance value 0.5 instead of crashing or dividing by zero.
TEST(AucTest, NoFakeUsersGivesChance) {
  EXPECT_DOUBLE_EQ(DetectionAuc({0.1, 0.4, 0.9}, {}), 0.5);
}

TEST(AucTest, AllUsersFakeGivesChance) {
  EXPECT_DOUBLE_EQ(DetectionAuc({0.1, 0.4, 0.9}, {0, 1, 2}), 0.5);
}

TEST(AucTest, ConstantScoresGiveChance) {
  EXPECT_DOUBLE_EQ(DetectionAuc({0.7, 0.7, 0.7, 0.7, 0.7}, {0, 4}), 0.5);
}

TEST(AucTest, OutOfRangeFakeIdsAreIgnored) {
  // Fake ids beyond the score vector cannot be compared; when they are
  // the only fakes the result degenerates to chance.
  EXPECT_DOUBLE_EQ(DetectionAuc({0.1, 0.9}, {17, 99}), 0.5);
  // In-range fakes still dominate the computation.
  EXPECT_DOUBLE_EQ(DetectionAuc({0.1, 0.9}, {1, 99}), 1.0);
}

TEST(AucTest, EmptyScoresGiveChance) {
  EXPECT_DOUBLE_EQ(DetectionAuc({}, {0}), 0.5);
}

TEST(ColdItemAffinityTest, FlagsColdClickers) {
  data::Dataset log(4, 10);
  log.AddSequence(0, {0, 0, 0, 1});  // popular items
  log.AddSequence(1, {0, 1, 0, 1});
  log.AddSequence(2, {9, 9, 9, 9});  // cold item only
  log.AddSequence(3, {0, 1, 1, 0});
  ColdItemAffinityDetector detector;
  auto scores = detector.Score(log);
  EXPECT_GT(scores[2], scores[0]);
  EXPECT_GT(scores[2], scores[1]);
  EXPECT_GT(scores[2], scores[3]);
}

TEST(ClickEntropyTest, FlagsRepetitiveSessions) {
  data::Dataset log(3, 10);
  log.AddSequence(0, {1, 2, 3, 4, 5, 6, 7, 8});  // diverse
  log.AddSequence(1, {5, 5, 5, 5, 5, 5, 5, 5});  // one item
  log.AddSequence(2, {1, 5, 1, 5, 1, 5, 1, 5});  // two items
  ClickEntropyDetector detector;
  auto scores = detector.Score(log);
  EXPECT_GT(scores[1], scores[2]);
  EXPECT_GT(scores[2], scores[0]);
  EXPECT_NEAR(scores[0], 0.0, 1e-9);
  EXPECT_NEAR(scores[1], 1.0, 1e-9);
}

TEST(ClickEntropyTest, EmptyUserScoresZero) {
  data::Dataset log(2, 5);
  log.AddSequence(0, {1, 2});
  ClickEntropyDetector detector;
  EXPECT_EQ(detector.Score(log)[1], 0.0);
}

TEST(FleetSimilarityTest, FlagsNearDuplicates) {
  data::Dataset log(5, 20);
  log.AddSequence(0, {1, 2, 3, 4});
  log.AddSequence(1, {10, 11, 12, 13});
  log.AddSequence(2, {5, 6, 7, 8});      // fleet member A
  log.AddSequence(3, {5, 6, 7, 8});      // fleet member B (identical)
  log.AddSequence(4, {14, 15, 16, 17});
  FleetSimilarityDetector detector;
  auto scores = detector.Score(log);
  EXPECT_DOUBLE_EQ(scores[2], 1.0);
  EXPECT_DOUBLE_EQ(scores[3], 1.0);
  EXPECT_LT(scores[0], 0.5);
  EXPECT_LT(scores[4], 0.5);
}

TEST(FleetSimilarityTest, ShortSessionsSkipped) {
  data::Dataset log(2, 5);
  log.AddSequence(0, {1});
  log.AddSequence(1, {1});
  FleetSimilarityDetector detector(/*min_length=*/3);
  auto scores = detector.Score(log);
  EXPECT_EQ(scores[0], 0.0);
  EXPECT_EQ(scores[1], 0.0);
}

TEST(EnsembleTest, FleetTopsOrganicPopulation) {
  // A realistic organic base plus a 2-account fleet that repetitively
  // clicks a (relatively) cold item: the ensemble must rank both fleet
  // accounts above the organic median by a wide margin.
  data::Dataset organic = OrganicLog();
  data::Dataset log(organic.num_users() + 2, organic.num_items());
  for (data::UserId u = 0; u < organic.num_users(); ++u) {
    log.AddSequence(u, organic.Sequence(u));
  }
  const data::ItemId cold = organic.ItemsByPopularity().front();
  const data::UserId fleet_a = organic.num_users();
  const data::UserId fleet_b = organic.num_users() + 1;
  log.AddSequence(fleet_a, {cold, cold, cold, cold, cold, cold});
  log.AddSequence(fleet_b, {cold, cold, cold, cold, cold, cold});

  auto ensemble = MakeDefaultEnsemble();
  auto scores = ensemble->Score(log);
  std::vector<double> organic_scores(scores.begin(),
                                     scores.begin() + organic.num_users());
  std::sort(organic_scores.begin(), organic_scores.end());
  const double p90 = organic_scores[organic_scores.size() * 9 / 10];
  EXPECT_GT(scores[fleet_a], p90);
  EXPECT_GT(scores[fleet_b], p90);
}

// End-to-end: inject a Popular Attack fleet into an organic log and
// verify the ensemble separates attacker accounts with high AUC.
TEST(MakeDetectorTest, BuildsEveryNamedDetectorAndRejectsOthers) {
  const std::pair<const char*, const char*> names[] = {
      {"ensemble", "Ensemble"},
      {"cold", "ColdItemAffinity"},
      {"entropy", "ClickEntropy"},
      {"fleet", "FleetSimilarity"}};
  for (const auto& [name, want] : names) {
    auto detector = MakeDetector(name);
    ASSERT_TRUE(detector.ok()) << name;
    EXPECT_EQ((*detector)->Name(), want) << name;
  }
  EXPECT_EQ(MakeDetector("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DetectionEndToEnd, EnsembleDetectsHeuristicFleet) {
  env::EnvironmentConfig cfg;
  cfg.num_attackers = 10;
  cfg.trajectory_length = 12;
  cfg.num_target_items = 4;
  cfg.seed = 9;
  env::AttackEnvironment system(OrganicLog(),
                                rec::MakeRecommender("ItemPop").value(),
                                cfg);
  attack::PopularAttack attack;
  const auto trajectories = attack.GenerateAttack(system, 3);

  // Materialize the poisoned log the platform would see.
  data::Dataset poisoned = system.dataset().Clone();
  std::vector<data::UserId> fakes;
  for (const auto& t : trajectories) {
    const data::UserId u = system.AttackerUserId(t.attacker_index);
    poisoned.AddSequence(u, t.items);
    fakes.push_back(u);
  }

  auto ensemble = MakeDefaultEnsemble();
  const double auc = DetectionAuc(ensemble->Score(poisoned), fakes);
  EXPECT_GT(auc, 0.9);
}

TEST(MitigationTest, RemovesHighestScorers) {
  data::Dataset log(4, 5);
  log.AddSequence(0, {0, 1});
  log.AddSequence(1, {1, 2});
  log.AddSequence(2, {2, 3});
  log.AddSequence(3, {3, 4});
  std::vector<double> scores = {0.1, 0.9, 0.2, 0.8};
  data::Dataset filtered = RemoveSuspiciousUsers(log, scores, 0.5);
  EXPECT_EQ(filtered.Sequence(0).size(), 2u);
  EXPECT_EQ(filtered.Sequence(1).size(), 0u);  // removed
  EXPECT_EQ(filtered.Sequence(2).size(), 2u);
  EXPECT_EQ(filtered.Sequence(3).size(), 0u);  // removed
  EXPECT_EQ(filtered.num_users(), 4u);         // capacity preserved
}

TEST(MitigationTest, ZeroFractionIsIdentity) {
  data::Dataset log(2, 3);
  log.AddSequence(0, {0, 1});
  std::vector<double> scores = {0.5, 0.5};
  data::Dataset filtered = RemoveSuspiciousUsers(log, scores, 0.0);
  EXPECT_EQ(filtered.num_interactions(), log.num_interactions());
}

TEST(MitigationTest, FullFractionRemovesEveryoneButKeepsCapacity) {
  data::Dataset log(3, 6);
  log.AddSequence(0, {0, 1});
  log.AddSequence(1, {2, 3});
  log.AddSequence(2, {4, 5});
  std::vector<double> scores = {0.3, 0.1, 0.2};
  data::Dataset filtered = RemoveSuspiciousUsers(log, scores, 1.0);
  EXPECT_EQ(filtered.num_interactions(), 0u);
  // Capacities are preserved so the same ranker can retrain on the
  // filtered log without re-indexing.
  EXPECT_EQ(filtered.num_users(), 3u);
  EXPECT_EQ(filtered.num_items(), 6u);
}

TEST(MitigationTest, TiesAtTheCutoffBreakByUserId) {
  // Users 1 and 3 tie at the top score, but only one removal slot exists
  // (fraction 0.25 of 4 users): the lower user id is removed.
  data::Dataset log(4, 5);
  for (data::UserId u = 0; u < 4; ++u) log.AddSequence(u, {0, 1});
  std::vector<double> scores = {0.1, 0.9, 0.2, 0.9};
  data::Dataset filtered = RemoveSuspiciousUsers(log, scores, 0.25);
  EXPECT_EQ(filtered.Sequence(1).size(), 0u);  // removed: tie, lower id
  EXPECT_EQ(filtered.Sequence(3).size(), 2u);  // kept
  EXPECT_EQ(filtered.Sequence(0).size(), 2u);
  EXPECT_EQ(filtered.Sequence(2).size(), 2u);
}

TEST(MitigationTest, DefenseRestoresBaselineOnItemPop) {
  // Attack -> detect -> filter -> retrain: removing the flagged accounts
  // should undo most of the promotion.
  env::EnvironmentConfig cfg;
  cfg.num_attackers = 10;
  cfg.trajectory_length = 24;
  cfg.num_target_items = 2;
  cfg.num_candidate_originals = 25;
  cfg.top_k = 5;
  cfg.seed = 19;
  env::AttackEnvironment system(OrganicLog(),
                                rec::MakeRecommender("ItemPop").value(),
                                cfg);
  attack::PopularAttack attack;
  const auto trajectories = attack.GenerateAttack(system, 5);
  const double poisoned_recnum = system.Evaluate(trajectories);
  ASSERT_GT(poisoned_recnum, system.BaselineRecNum());

  data::Dataset poisoned_log = system.dataset().Clone();
  for (const auto& t : trajectories) {
    poisoned_log.AddSequence(system.AttackerUserId(t.attacker_index),
                             t.items);
  }
  // Fleet similarity is the decisive signal against a rigid heuristic
  // fleet (AUC ~1 here). Note: cold-item affinity *inverts* under attacks
  // this heavy — the targets become the most popular items in the log —
  // which is why detectors must be combined in practice.
  FleetSimilarityDetector detector;
  data::Dataset cleaned = RemoveSuspiciousUsers(
      poisoned_log, detector.Score(poisoned_log), 0.1);

  // Retrain on the cleaned log and re-measure target exposure.
  auto ranker = rec::MakeRecommender("ItemPop").value();
  ranker->Fit(cleaned);
  const double cleaned_recnum = system.RecNum(*ranker);
  EXPECT_LT(cleaned_recnum, poisoned_recnum * 0.5);
}

}  // namespace
}  // namespace poisonrec::defense
