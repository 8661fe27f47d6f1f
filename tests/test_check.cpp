// Precondition / invariant checking: IPRISM_CHECK message formatting,
// IPRISM_DCHECK's build-mode gating, the float_eq helpers, and the
// *Params/*Config validation paths the iprism_lint params-validated rule
// points at.
#include "common/check.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/float_eq.hpp"
#include "core/reachtube.hpp"
#include "rl/ddqn.hpp"
#include "smc/controller.hpp"
#include "smc/features.hpp"
#include "smc/reward.hpp"
#include "smc/trainer.hpp"

namespace iprism {
namespace {

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(IprismCheck, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(IPRISM_CHECK(1 + 1 == 2, "arithmetic works"));
}

TEST(IprismCheck, ThrowsInvalidArgument) {
  EXPECT_THROW(IPRISM_CHECK(false, "boom"), std::invalid_argument);
}

TEST(IprismCheck, MessageCarriesFileLineExpressionAndText) {
  const std::string msg = message_of([] { IPRISM_CHECK(2 < 1, "two is not less"); });
  EXPECT_NE(msg.find("test_check.cpp"), std::string::npos) << msg;
  EXPECT_NE(msg.find("check failed: 2 < 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("two is not less"), std::string::npos) << msg;
  // file:line: prefix — a ':' must follow the file name with digits after it.
  const auto file_pos = msg.find("test_check.cpp:");
  ASSERT_NE(file_pos, std::string::npos) << msg;
  EXPECT_TRUE(std::isdigit(msg[file_pos + std::string("test_check.cpp:").size()])) << msg;
}

TEST(IprismCheck, EmptyMessageOmitsSeparator) {
  const std::string msg = message_of([] { IPRISM_CHECK(false, ""); });
  EXPECT_NE(msg.find("check failed: false"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("—"), std::string::npos) << msg;
}

TEST(IprismDcheck, MatchesBuildMode) {
#if !defined(NDEBUG) || defined(IPRISM_ENABLE_DCHECKS)
  EXPECT_THROW(IPRISM_DCHECK(false, "active in debug/sanitizer builds"),
               std::invalid_argument);
#else
  EXPECT_NO_THROW(IPRISM_DCHECK(false, "compiled out in release"));
#endif
}

TEST(IprismDcheck, PassingDcheckNeverThrows) {
  EXPECT_NO_THROW(IPRISM_DCHECK(true, "fine"));
}

TEST(FloatEq, NearAndNearZero) {
  EXPECT_TRUE(common::near(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(common::near(1.0, 1.0 + 1e-6));
  EXPECT_TRUE(common::near(1.0, 1.5, 0.5));
  EXPECT_TRUE(common::near_zero(0.0));
  EXPECT_FALSE(common::near_zero(1e-3));
  EXPECT_FALSE(common::near(0.0, std::nan("")));
}

// ---------------------------------------------------------------------------
// ReachTubeParams validation.

core::ReachTubeParams tube_params() { return {}; }

TEST(ReachTubeParamsValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(core::ReachTubeComputer{tube_params()});
}

TEST(ReachTubeParamsValidation, RejectsNonPositiveDt) {
  auto p = tube_params();
  p.dt = 0.0;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
  p.dt = -0.1;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
}

TEST(ReachTubeParamsValidation, RejectsNonPositiveHorizon) {
  auto p = tube_params();
  p.horizon = 0.0;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
  p.horizon = -3.0;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
}

TEST(ReachTubeParamsValidation, RejectsNonPositiveCellSize) {
  auto p = tube_params();
  p.cell_size = 0.0;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
}

TEST(ReachTubeParamsValidation, RejectsEmptyControlLimits) {
  auto p = tube_params();
  p.limits.accel_min = p.limits.accel_max = 1.0;
  const std::string msg =
      message_of([&] { core::ReachTubeComputer computer{p}; });
  EXPECT_NE(msg.find("ReachTubeParams"), std::string::npos) << msg;

  p = tube_params();
  p.limits.steer_min = p.limits.steer_max;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
}

TEST(ReachTubeParamsValidation, RejectsZeroStateCapAndSamples) {
  auto p = tube_params();
  p.max_states_per_slice = 0;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);

  p = tube_params();
  p.uniform_samples = 0;
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
}

TEST(ReachTubeParamsValidation, RejectsSubSliceHorizon) {
  auto p = tube_params();
  p.dt = 1.0;
  p.horizon = 0.25;  // rounds to zero slices
  EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
}

TEST(ReachTubeParamsValidation, RejectsNonFiniteDtHorizonAndCellSize) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {inf, nan}) {
    auto p = tube_params();
    p.dt = bad;
    EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
    p = tube_params();
    p.cell_size = bad;  // +inf used to collapse the tube to 3 cells
    EXPECT_THROW(core::ReachTubeComputer{p}, std::invalid_argument);
  }
  // An infinite horizon is rejected by the finiteness check, before the
  // slice count is rounded from it.
  auto p = tube_params();
  p.horizon = inf;
  const std::string msg = message_of([&] { core::ReachTubeComputer computer{p}; });
  EXPECT_NE(msg.find("ReachTubeParams: dt and horizon must be finite"), std::string::npos)
      << msg;
}

TEST(ReachTubeParamsValidation, RejectsDegenerateEgoDims) {
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    auto p = tube_params();
    p.ego_dims.length = bad;
    std::string msg = message_of([&] { core::ReachTubeComputer computer{p}; });
    EXPECT_NE(msg.find("ReachTubeParams: ego_dims"), std::string::npos) << msg;
    p = tube_params();
    p.ego_dims.width = bad;
    msg = message_of([&] { core::ReachTubeComputer computer{p}; });
    EXPECT_NE(msg.find("ReachTubeParams: ego_dims"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// SMC configuration validation.

TEST(SmcConfigValidation, TrainerRejectsNonPositiveEpisodes) {
  smc::SmcTrainConfig cfg;
  cfg.episodes = 0;
  EXPECT_THROW(smc::SmcTrainer{cfg}, std::invalid_argument);
}

TEST(SmcConfigValidation, TrainerRejectsBadActionCount) {
  smc::SmcTrainConfig cfg;
  cfg.action_count = 4;  // not one of the supported action-set sizes
  EXPECT_THROW(smc::SmcTrainer{cfg}, std::invalid_argument);
}

TEST(SmcConfigValidation, TrainerRejectsInvalidTubeParams) {
  smc::SmcTrainConfig cfg;
  cfg.tube.dt = -0.25;
  EXPECT_THROW(smc::SmcTrainer{cfg}, std::invalid_argument);
}

smc::SmcController make_controller(const smc::SmcControlParams& params) {
  common::Rng rng(7);
  rl::Mlp policy({smc::kFeatureCount, 8, smc::kActionCountBrakeAccel}, rng);
  return smc::SmcController(std::move(policy), params);
}

TEST(SmcConfigValidation, ControlParamsRejectNegativeNoise) {
  smc::SmcControlParams p;
  p.feature_noise_std = -0.5;
  EXPECT_THROW(make_controller(p), std::invalid_argument);
}

TEST(SmcConfigValidation, ControlParamsRejectZeroDecisionPeriod) {
  smc::SmcControlParams p;
  p.decision_period = 0;
  const std::string msg = message_of([&] { make_controller(p); });
  EXPECT_NE(msg.find("SmcControlParams"), std::string::npos) << msg;
}

TEST(SmcConfigValidation, ControlParamsRejectSignFlippedAccels) {
  smc::SmcControlParams p;
  p.brake_accel = 2.0;  // braking must decelerate
  EXPECT_THROW(make_controller(p), std::invalid_argument);
}

TEST(SmcConfigValidation, RewardParamsRejectNonPositiveCruiseSpeed) {
  smc::RewardParams p;
  p.cruise_speed = 0.0;
  EXPECT_THROW(smc::smc_reward(p, 0.2, 1.0, 0.5, false), std::invalid_argument);
}

TEST(SmcConfigValidation, DdqnConfigRejectsBadRanges) {
  const auto make_trainer = [](const rl::DdqnConfig& cfg) {
    rl::DdqnTrainer trainer(4, 2, {8}, cfg, 11);
  };
  rl::DdqnConfig cfg;
  EXPECT_NO_THROW(make_trainer(cfg));

  cfg.gamma = 1.5;
  EXPECT_THROW(make_trainer(cfg), std::invalid_argument);

  cfg = {};
  cfg.learning_rate = 0.0;
  EXPECT_THROW(make_trainer(cfg), std::invalid_argument);

  cfg = {};
  cfg.batch_size = 0;
  EXPECT_THROW(make_trainer(cfg), std::invalid_argument);

  cfg = {};
  cfg.epsilon_start = 1.2;
  EXPECT_THROW(make_trainer(cfg), std::invalid_argument);

  cfg = {};
  cfg.target_sync_interval = 0;
  EXPECT_THROW(make_trainer(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace iprism
