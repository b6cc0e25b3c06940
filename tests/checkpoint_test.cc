// Crash-safe checkpoint/resume tests for PoisonRecAttacker: a run that is
// killed and resumed from a checkpoint must continue bit-identically to
// one that never stopped — including under injected faults. The format
// tests pin the on-disk bytes against committed fixtures and check that
// no count in a well-framed but hostile payload can make the loader
// allocate past the payload's own length.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ppo.h"
#include "data/synthetic.h"
#include "defense/detector.h"
#include "env/defended.h"
#include "rec/registry.h"
#include "util/bytes.h"
#include "util/fsio.h"

namespace poisonrec::core {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct Fixture {
  Fixture()
      : environment(MakeLog(), rec::MakeRecommender("ItemPop").value(),
                    MakeEnvConfig()) {}

  static data::Dataset MakeLog() {
    data::SyntheticConfig cfg;
    cfg.num_users = 100;
    cfg.num_items = 80;
    cfg.num_interactions = 1000;
    cfg.seed = 3;
    return data::GenerateSynthetic(cfg);
  }

  static env::EnvironmentConfig MakeEnvConfig() {
    env::EnvironmentConfig cfg;
    cfg.num_attackers = 6;
    cfg.trajectory_length = 6;
    cfg.num_target_items = 3;
    cfg.num_candidate_originals = 20;
    cfg.seed = 11;
    return cfg;
  }

  static PoisonRecConfig MakeAttackerConfig() {
    PoisonRecConfig cfg;
    cfg.samples_per_step = 6;
    cfg.batch_size = 6;
    cfg.update_epochs = 2;
    cfg.policy.embedding_dim = 8;
    cfg.seed = 7;
    return cfg;
  }

  env::AttackEnvironment environment;
};

void ExpectStatsBitwiseEqual(const TrainStepStats& a, const TrainStepStats& b,
                             const char* context) {
  EXPECT_EQ(a.step, b.step) << context;
  EXPECT_DOUBLE_EQ(a.mean_reward, b.mean_reward) << context;
  EXPECT_DOUBLE_EQ(a.max_reward, b.max_reward) << context;
  EXPECT_DOUBLE_EQ(a.min_reward, b.min_reward) << context;
  EXPECT_DOUBLE_EQ(a.best_reward_so_far, b.best_reward_so_far) << context;
  EXPECT_DOUBLE_EQ(a.loss, b.loss) << context;
  EXPECT_DOUBLE_EQ(a.target_click_ratio, b.target_click_ratio) << context;
  EXPECT_EQ(a.failed_queries, b.failed_queries) << context;
  EXPECT_EQ(a.retries, b.retries) << context;
  EXPECT_EQ(a.imputed_rewards, b.imputed_rewards) << context;
}

TEST(CheckpointTest, SaveThenLoadRoundTripsState) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.Train(2);
  const std::string path = TempPath("poisonrec_attacker_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());

  PoisonRecAttacker restored(&f.environment, Fixture::MakeAttackerConfig());
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
  EXPECT_EQ(restored.steps_taken(), 2u);
  EXPECT_DOUBLE_EQ(restored.best_episode().reward,
                   attacker.best_episode().reward);
  ASSERT_EQ(restored.best_episode().trajectories.size(),
            attacker.best_episode().trajectories.size());
  std::remove(path.c_str());
}

TEST(CheckpointTest, KillAndResumeIsBitIdentical) {
  Fixture f_full;
  Fixture f_killed;
  const auto cfg = Fixture::MakeAttackerConfig();

  // Uninterrupted reference run: 6 steps.
  PoisonRecAttacker uninterrupted(&f_full.environment, cfg);
  const auto reference = uninterrupted.Train(6);

  // Run 3 steps, checkpoint, "crash", resume in a fresh attacker.
  const std::string path = TempPath("poisonrec_kill_resume_ckpt.bin");
  {
    PoisonRecAttacker first_process(&f_killed.environment, cfg);
    first_process.Train(3);
    ASSERT_TRUE(first_process.SaveCheckpoint(path).ok());
    // first_process is destroyed here — the "kill".
  }
  PoisonRecAttacker resumed(&f_killed.environment, cfg);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  EXPECT_EQ(resumed.steps_taken(), 3u);
  const auto tail = resumed.Train(3);

  ASSERT_EQ(tail.size(), 3u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ExpectStatsBitwiseEqual(reference[3 + i], tail[i], "resumed step");
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, KillAndResumeUnderFaultsIsBitIdentical) {
  Fixture f_full;
  Fixture f_killed;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.retry.max_attempts = 3;

  env::FaultProfile profile;
  profile.query_failure_rate = 0.2;
  profile.injection_drop_rate = 0.1;
  profile.shadow_ban_rate = 0.05;
  profile.seed = 21;
  const SleepFn no_sleep = [](double) {};

  env::FaultyEnvironment faulty_full(&f_full.environment, profile);
  PoisonRecAttacker uninterrupted(&f_full.environment, cfg);
  uninterrupted.AttachFaultyEnvironment(&faulty_full, no_sleep);
  const auto reference = uninterrupted.Train(6);

  const std::string path = TempPath("poisonrec_fault_resume_ckpt.bin");
  env::FaultyEnvironment faulty_killed(&f_killed.environment, profile);
  {
    PoisonRecAttacker first_process(&f_killed.environment, cfg);
    first_process.AttachFaultyEnvironment(&faulty_killed, no_sleep);
    first_process.Train(3);
    ASSERT_TRUE(first_process.SaveCheckpoint(path).ok());
  }
  PoisonRecAttacker resumed(&f_killed.environment, cfg);
  resumed.AttachFaultyEnvironment(&faulty_killed, no_sleep);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  const auto tail = resumed.Train(3);

  for (std::size_t i = 0; i < tail.size(); ++i) {
    ExpectStatsBitwiseEqual(reference[3 + i], tail[i], "faulty resumed step");
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, AtomicWriteLeavesNoTmpFileAndOverwritesSafely) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.TrainStep();
  const std::string path = TempPath("poisonrec_atomic_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Saving again over an existing checkpoint also succeeds.
  attacker.TrainStep();
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());
  PoisonRecAttacker restored(&f.environment, Fixture::MakeAttackerConfig());
  EXPECT_TRUE(restored.LoadCheckpoint(path).ok());
  EXPECT_EQ(restored.steps_taken(), 2u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptOrMissingCheckpointIsRejectedCleanly) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  EXPECT_EQ(attacker.LoadCheckpoint("/nonexistent/ckpt.bin").code(),
            StatusCode::kIoError);

  const std::string garbage = TempPath("poisonrec_garbage_ckpt.bin");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  EXPECT_EQ(attacker.LoadCheckpoint(garbage).code(),
            StatusCode::kInvalidArgument);
  std::remove(garbage.c_str());

  // A truncated checkpoint is torn state from a crash mid-publish:
  // kDataLoss, distinct from a merely missing file (kIoError), so the
  // orchestrator knows to discard it and replay from scratch.
  const std::string path = TempPath("poisonrec_truncated_ckpt.bin");
  attacker.TrainStep();
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  PoisonRecAttacker victim(&f.environment, Fixture::MakeAttackerConfig());
  EXPECT_EQ(victim.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  EXPECT_EQ(victim.steps_taken(), 0u);
  victim.TrainStep();  // still trains fine

  // Truncating into the header (even to zero bytes) is also kDataLoss.
  std::filesystem::resize_file(path, 4);
  EXPECT_EQ(victim.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  std::filesystem::resize_file(path, 0);
  EXPECT_EQ(victim.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointTest, OldVersionCheckpointIsRejectedWithClearError) {
  // A v1 checkpoint (pre account-pool / adaptive-defender) must be
  // rejected as kInvalidArgument, not misparsed as the current format.
  const std::string path = TempPath("poisonrec_v1_ckpt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t header[2] = {0x5052434bu /* "PRCK" */, 1u};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    const std::uint64_t steps = 3;
    out.write(reinterpret_cast<const char*>(&steps), sizeof(steps));
  }
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  const Status status = attacker.LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 1"), std::string::npos)
      << status.message();
  EXPECT_EQ(attacker.steps_taken(), 0u);
  attacker.TrainStep();  // attacker unharmed
  std::remove(path.c_str());
}

TEST(CheckpointTest, PoolConfigurationMismatchIsRejected) {
  // An environment large enough for a 2-account reserve on 4 slots.
  auto env_cfg = Fixture::MakeEnvConfig();
  env_cfg.num_attackers = 6;
  env::AttackEnvironment environment(
      Fixture::MakeLog(), rec::MakeRecommender("ItemPop").value(), env_cfg);

  auto pooled_cfg = Fixture::MakeAttackerConfig();
  pooled_cfg.pool.enabled = true;
  pooled_cfg.pool.reserve_accounts = 2;
  PoisonRecAttacker pooled(&environment, pooled_cfg);
  pooled.TrainStep();
  const std::string path = TempPath("poisonrec_pool_mismatch_ckpt.bin");
  ASSERT_TRUE(pooled.SaveCheckpoint(path).ok());

  // A pooled checkpoint cannot restore into a pool-less attacker.
  Fixture poolless_fixture;
  PoisonRecAttacker poolless(&poolless_fixture.environment,
                             Fixture::MakeAttackerConfig());
  EXPECT_EQ(poolless.LoadCheckpoint(path).code(),
            StatusCode::kInvalidArgument);

  // Same policy shape (4 slots), different pool total (7 accounts vs 6):
  // caught by the pool-section shape validation.
  auto bigger_env_cfg = env_cfg;
  bigger_env_cfg.num_attackers = 7;
  env::AttackEnvironment bigger_environment(
      Fixture::MakeLog(), rec::MakeRecommender("ItemPop").value(),
      bigger_env_cfg);
  auto bigger_pool_cfg = pooled_cfg;
  bigger_pool_cfg.pool.reserve_accounts = 3;
  PoisonRecAttacker mismatched(&bigger_environment, bigger_pool_cfg);
  const Status status = mismatched.LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("pool"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, PooledRoundTripRestoresPoolState) {
  auto env_cfg = Fixture::MakeEnvConfig();
  env_cfg.num_attackers = 6;
  env::AttackEnvironment environment(
      Fixture::MakeLog(), rec::MakeRecommender("ItemPop").value(), env_cfg);
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.enabled = true;
  cfg.pool.reserve_accounts = 2;

  PoisonRecAttacker attacker(&environment, cfg);
  attacker.Train(2);
  const std::string path = TempPath("poisonrec_pooled_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());

  PoisonRecAttacker restored(&environment, cfg);
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
  ASSERT_NE(restored.account_pool(), nullptr);
  EXPECT_EQ(restored.account_pool()->slot_accounts(),
            attacker.account_pool()->slot_accounts());
  EXPECT_EQ(restored.account_pool()->reserve_remaining(),
            attacker.account_pool()->reserve_remaining());
  EXPECT_EQ(restored.account_pool()->retired_accounts(),
            attacker.account_pool()->retired_accounts());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MismatchedPolicyShapeIsRejected) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.TrainStep();
  const std::string path = TempPath("poisonrec_shape_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());

  auto other_cfg = Fixture::MakeAttackerConfig();
  other_cfg.policy.embedding_dim = 16;  // different parameter shapes
  PoisonRecAttacker other(&f.environment, other_cfg);
  EXPECT_EQ(other.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);

  // A different action space has a different number of tensors.
  auto plain_cfg = Fixture::MakeAttackerConfig();
  plain_cfg.policy.action_space = ActionSpaceKind::kPlain;
  PoisonRecAttacker plain(&f.environment, plain_cfg);
  ASSERT_NE(plain.policy().Parameters().size(),
            attacker.policy().Parameters().size());
  const Status count_status = plain.LoadCheckpoint(path);
  EXPECT_EQ(count_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(count_status.message().find("tensors"), std::string::npos)
      << count_status.message();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Format pinning and bounded reads.
// ---------------------------------------------------------------------------

// tests/data/ holds two v4 checkpoints saved by the pre-util/bytes
// encoder (see CHANGES.md for how they were made): attacker_plain.ckpt is
// a FixtureConfig attacker over Fixture after Train(2);
// attacker_defended_pool.ckpt is DefendedFixture's after Train(2), so it
// carries the v2 account-pool and defender sections.
PoisonRecConfig FixtureConfig() {
  PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
  cfg.policy.embedding_dim = 2;  // keeps the committed files small
  return cfg;
}

std::string DataPath(const char* name) {
  return std::string(POISONREC_TEST_DATA_DIR) + "/" + name;
}

std::string ReadAll(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << path;
  return bytes.ok() ? *bytes : std::string();
}

std::string SaveBytes(const PoisonRecAttacker& attacker, const char* name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(attacker.SaveCheckpoint(path).ok());
  std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

// FixtureConfig's attacker with a 2-account reserve behind an adaptive
// defender that sweeps once per training step and bans one account.
struct DefendedFixture {
  DefendedFixture()
      : platform(&f.environment, defense::MakeDefaultEnsemble(), Profile()),
        attacker(&f.environment, Config()) {
    attacker.AttachDefendedEnvironment(&platform, [](double) {});
  }

  static PoisonRecConfig Config() {
    PoisonRecConfig cfg = FixtureConfig();
    cfg.pool.enabled = true;
    cfg.pool.reserve_accounts = 2;
    return cfg;
  }

  static env::DefenseProfile Profile() {
    env::DefenseProfile profile;
    profile.detection_interval = Config().samples_per_step;
    profile.bans_per_sweep = 1;
    return profile;
  }

  Fixture f;
  env::DefendedEnvironment platform;
  PoisonRecAttacker attacker;
};

TEST(CheckpointFormatTest, FixturesResaveByteIdentical) {
  const std::string plain = ReadAll(DataPath("attacker_plain.ckpt"));
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, FixtureConfig());
  ASSERT_TRUE(attacker.LoadCheckpoint(DataPath("attacker_plain.ckpt")).ok());
  EXPECT_EQ(attacker.steps_taken(), 2u);
  const std::string resaved = SaveBytes(attacker, "poisonrec_fixture_plain");
  EXPECT_EQ(resaved.size(), plain.size());
  EXPECT_TRUE(resaved == plain);

  const std::string defended =
      ReadAll(DataPath("attacker_defended_pool.ckpt"));
  DefendedFixture d;
  ASSERT_TRUE(
      d.attacker.LoadCheckpoint(DataPath("attacker_defended_pool.ckpt")).ok());
  EXPECT_EQ(d.attacker.steps_taken(), 2u);
  // The sections this fixture exists for are non-trivial.
  EXPECT_FALSE(d.platform.ban_events().empty());
  EXPECT_GT(d.attacker.account_pool()->retired_accounts(), 0u);
  const std::string resaved_defended =
      SaveBytes(d.attacker, "poisonrec_fixture_defended");
  EXPECT_EQ(resaved_defended.size(), defended.size());
  EXPECT_TRUE(resaved_defended == defended);
}

TEST(CheckpointFormatTest, SaveLoadSaveIsByteIdentical) {
  DefendedFixture first;
  first.attacker.Train(3);
  const std::string path = TempPath("poisonrec_save_load_save.ckpt");
  ASSERT_TRUE(first.attacker.SaveCheckpoint(path).ok());
  const std::string saved = ReadAll(path);

  DefendedFixture second;
  ASSERT_TRUE(second.attacker.LoadCheckpoint(path).ok());
  EXPECT_TRUE(SaveBytes(second.attacker, "poisonrec_save_load_save2") ==
              saved);
  std::remove(path.c_str());
}

// Where a checkpoint payload keeps its variable-length counts and its
// bulk byte runs (float arrays, the RNG text), found by walking the
// layout documented in core/ppo.cc.
struct PayloadLayout {
  std::size_t rng_len = 0;
  std::size_t trajectories = 0;
  std::size_t first_path_len = 0;  // trajectory 0, step 0
  std::vector<std::pair<std::size_t, std::size_t>> bulk_runs;
};

PayloadLayout WalkPayload(std::string_view payload) {
  ByteReader in(payload);
  const auto offset = [&] { return payload.size() - in.remaining(); };
  PayloadLayout at;
  const auto bulk = [&](std::size_t bytes) {
    at.bulk_runs.emplace_back(offset(), offset() + bytes);
    in.Bytes(bytes);
  };
  in.Bytes(24);  // header, steps taken, sampling stream seed
  std::uint64_t floats = 0;
  const std::uint64_t tensors = in.U64();
  for (std::uint64_t t = 0; t < tensors; ++t) {
    const std::uint64_t rows = in.U64();
    const std::uint64_t cols = in.U64();
    bulk(rows * cols * sizeof(float));
    floats += rows * cols;
  }
  in.U64();                              // Adam step count
  bulk(2 * floats * sizeof(float));      // first and second moments
  at.rng_len = offset();
  bulk(in.U64());
  in.F64();  // best reward
  in.U8();   // reward observed
  at.trajectories = offset();
  in.Bytes(4 * sizeof(std::uint64_t));  // count, attacker, steps, item
  at.first_path_len = offset();
  EXPECT_TRUE(in.ok());
  return at;
}

TEST(CheckpointFormatTest, CountsBeyondTheBytesLeftAreRefused) {
  const std::string file = ReadAll(DataPath("attacker_defended_pool.ckpt"));
  const std::string payload =
      file.substr(0, file.size() - kIntegrityFooterBytes);
  const PayloadLayout at = WalkPayload(payload);
  // The defender blob closes the payload; its first per-account history
  // count follows the 8-byte header and the u64 account count.
  std::size_t history_count = 0;
  {
    DefendedFixture d;
    ASSERT_TRUE(
        d.attacker.LoadCheckpoint(DataPath("attacker_defended_pool.ckpt"))
            .ok());
    history_count = payload.size() - d.platform.SerializeState().size() + 16;
  }
  // One past what the bytes left after the rng_len field could hold.
  const std::uint64_t rng_overshoot = payload.size() - at.rng_len - 8 + 1;

  struct Case {
    const char* field;
    std::size_t offset;
    std::uint64_t value;
    StatusCode code;
  };
  const Case cases[] = {
      {"rng_len", at.rng_len, ~0ull, StatusCode::kDataLoss},
      {"rng_len+1", at.rng_len, rng_overshoot, StatusCode::kDataLoss},
      {"trajectories", at.trajectories, ~0ull, StatusCode::kDataLoss},
      {"path_len", at.first_path_len, ~0ull, StatusCode::kDataLoss},
      // The defender restore reports its own truncation code.
      {"defender history", history_count, ~0ull, StatusCode::kIoError},
  };
  const std::string path = TempPath("poisonrec_oversized_count.ckpt");
  for (const Case& c : cases) {
    std::string hostile = payload;
    ByteWriter value;
    value.U64(c.value);
    hostile.replace(c.offset, sizeof(std::uint64_t), std::move(value).Take());
    ASSERT_TRUE(WriteFileDurableChecksummed(path, hostile).ok());

    DefendedFixture victim;
    const std::string before = SaveBytes(victim.attacker, "poisonrec_before");
    EXPECT_EQ(victim.attacker.LoadCheckpoint(path).code(), c.code)
        << c.field;
    EXPECT_TRUE(SaveBytes(victim.attacker, "poisonrec_after") == before)
        << c.field << ": a refused load changed the attacker";
  }
  std::remove(path.c_str());
}

// Every proper prefix of a valid payload, re-framed with a valid footer
// (so only the parser can catch it), is refused and leaves `victim` as it
// was. Prefixes that still hold the 8-byte header are truncation. Cuts
// deep inside one bulk run all hit the same read, so those are sampled
// every 61 bytes; every other cut point is tried.
void ExpectEveryPrefixRefused(PoisonRecAttacker* victim, const char* fixture,
                              const char* tmp_name) {
  const std::string file = ReadAll(DataPath(fixture));
  const std::string_view payload(file.data(),
                                 file.size() - kIntegrityFooterBytes);
  const PayloadLayout layout = WalkPayload(payload);
  const auto sampled_out = [&](std::size_t len) {
    for (const auto& [begin, end] : layout.bulk_runs) {
      if (len > begin + 8 && len + 8 < end) return (len - begin) % 61 != 0;
    }
    return false;
  };
  const std::string before = SaveBytes(*victim, tmp_name);
  const std::string path = TempPath(tmp_name);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (sampled_out(len)) continue;
    {
      const std::string framed =
          WithIntegrityFooter(std::string(payload.substr(0, len)));
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    }
    const Status status = victim->LoadCheckpoint(path);
    ASSERT_FALSE(status.ok()) << fixture << " prefix " << len;
    if (len >= 8) {
      ASSERT_EQ(status.code(), StatusCode::kDataLoss)
          << fixture << " prefix " << len << ": " << status.message();
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(victim->steps_taken(), 0u);
  EXPECT_TRUE(SaveBytes(*victim, tmp_name) == before) << fixture;
}

TEST(CheckpointFormatTest, EveryReframedPrefixIsRefused) {
  Fixture f;
  PoisonRecAttacker plain(&f.environment, FixtureConfig());
  ExpectEveryPrefixRefused(&plain, "attacker_plain.ckpt",
                           "poisonrec_prefix_plain.ckpt");
  DefendedFixture d;
  ExpectEveryPrefixRefused(&d.attacker, "attacker_defended_pool.ckpt",
                           "poisonrec_prefix_defended.ckpt");
}

}  // namespace
}  // namespace poisonrec::core
