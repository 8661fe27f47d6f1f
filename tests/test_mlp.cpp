#include "rl/mlp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>

namespace iprism::rl {
namespace {

TEST(Mlp, ValidatesConstruction) {
  common::Rng rng(1);
  EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({4, 0, 2}, rng), std::invalid_argument);
}

TEST(Mlp, ForwardShapeAndInputCheck) {
  common::Rng rng(1);
  const Mlp net({3, 8, 2}, rng);
  EXPECT_EQ(net.input_size(), 3);
  EXPECT_EQ(net.output_size(), 2);
  const std::vector<double> x{0.1, -0.2, 0.3};
  EXPECT_EQ(net.forward(x).size(), 2u);
  const std::vector<double> bad{0.1};
  EXPECT_THROW(net.forward(bad), std::invalid_argument);
}

TEST(Mlp, DeterministicForSeed) {
  common::Rng r1(9);
  common::Rng r2(9);
  const Mlp a({4, 6, 3}, r1);
  const Mlp b({4, 6, 3}, r2);
  const std::vector<double> x{0.5, -0.5, 0.2, 0.9};
  EXPECT_EQ(a.forward(x), b.forward(x));
}

/// Accumulates one sample through the block API and returns its TD error.
double accumulate_one(Mlp& net, std::span<const double> x, int action, double target) {
  const Mlp::Sample sample{x, action, target};
  double td = 0.0;
  net.accumulate_gradient({&sample, 1}, {&td, 1});
  return td;
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  // Verify the backward pass by comparing the analytic TD-error-driven
  // update direction against a numeric directional derivative: train one
  // step on a sample and check the loss decreases.
  common::Rng rng(7);
  Mlp net({3, 10, 10, 2}, rng);
  const std::vector<double> x{0.3, -0.7, 0.5};
  const int action = 1;
  const double target = 2.0;

  auto loss = [&](const Mlp& m) {
    const double q = m.forward(x)[action];
    return 0.5 * (q - target) * (q - target);
  };

  const double loss_before = loss(net);
  for (int i = 0; i < 50; ++i) {
    accumulate_one(net, x, action, target);
    net.apply_adam(0.01);
  }
  const double loss_after = loss(net);
  EXPECT_LT(loss_after, loss_before * 0.1);
  EXPECT_NEAR(net.forward(x)[action], target, 0.2);
}

TEST(Mlp, GradientLeavesOtherOutputsLooselyCoupled) {
  // Training only action 0 toward a target must move action 0's output
  // decisively more than it moves action 1's.
  common::Rng rng(3);
  Mlp net({2, 16, 2}, rng);
  const std::vector<double> x{0.4, 0.6};
  const auto before = net.forward(x);
  for (int i = 0; i < 100; ++i) {
    accumulate_one(net, x, 0, before[0] + 5.0);
    net.apply_adam(0.005);
  }
  const auto after = net.forward(x);
  EXPECT_GT(std::abs(after[0] - before[0]), 2.0 * std::abs(after[1] - before[1]));
}

TEST(Mlp, AccumulateValidatesArguments) {
  common::Rng rng(1);
  Mlp net({2, 4, 2}, rng);
  const std::vector<double> x{0.1, 0.2};
  EXPECT_THROW(accumulate_one(net, x, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(accumulate_one(net, x, -1, 0.0), std::invalid_argument);
  const std::vector<double> bad{0.1};
  EXPECT_THROW(accumulate_one(net, bad, 0, 0.0), std::invalid_argument);
  // One TD error slot per sample.
  const Mlp::Sample sample{x, 0, 0.0};
  std::vector<double> td(2);
  EXPECT_THROW(net.accumulate_gradient({&sample, 1}, td), std::invalid_argument);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Gradient sums of the per-sample reference, plus what the inputs covered.
struct ReferenceGradient {
  std::vector<std::vector<double>> w, b;
  int dead_units = 0;   // hidden activations clamped to 0 by the ReLU
  int zero_td = 0;      // samples whose TD error is exactly 0
};

ReferenceGradient zero_gradient(const Mlp& net) {
  ReferenceGradient g;
  for (const Mlp::Layer& layer : net.layers()) {
    g.w.emplace_back(layer.weights.size(), 0.0);
    g.b.emplace_back(layer.biases.size(), 0.0);
  }
  return g;
}

/// The per-sample forward and backward, one sample at a time in the order
/// Mlp has always summed: each output from its bias up in input order, and
/// each gradient term skipped when its delta is exactly 0.0. Returns the TD
/// error. The block kernels must reproduce this bit for bit.
double reference_accumulate(const Mlp& net, ReferenceGradient& g, std::span<const double> x,
                            int action, double target) {
  const auto& layers = net.layers();
  std::vector<std::vector<double>> acts{{x.begin(), x.end()}};
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Mlp::Layer& layer = layers[l];
    std::vector<double> y(static_cast<std::size_t>(layer.out));
    for (int o = 0; o < layer.out; ++o) {
      double acc = layer.biases[static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.in; ++i) {
        acc += layer.weights[static_cast<std::size_t>(o * layer.in + i)] *
               acts.back()[static_cast<std::size_t>(i)];
      }
      const bool hidden = l + 1 < layers.size();
      if (hidden && acc <= 0.0) ++g.dead_units;
      y[static_cast<std::size_t>(o)] = hidden ? std::max(acc, 0.0) : acc;
    }
    acts.push_back(std::move(y));
  }
  const double td = acts.back()[static_cast<std::size_t>(action)] - target;
  if (td == 0.0) ++g.zero_td;

  std::vector<double> delta(acts.back().size(), 0.0);
  delta[static_cast<std::size_t>(action)] = td;
  for (std::size_t l = layers.size(); l-- > 0;) {
    const Mlp::Layer& layer = layers[l];
    if (l + 1 < layers.size()) {
      for (int o = 0; o < layer.out; ++o) {
        if (acts[l + 1][static_cast<std::size_t>(o)] <= 0.0) delta[static_cast<std::size_t>(o)] = 0.0;
      }
    }
    std::vector<double> prev(static_cast<std::size_t>(layer.in), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      const double d = delta[static_cast<std::size_t>(o)];
      if (d == 0.0) continue;
      g.b[l][static_cast<std::size_t>(o)] += d;
      for (int i = 0; i < layer.in; ++i) {
        const auto k = static_cast<std::size_t>(o * layer.in + i);
        g.w[l][k] += d * acts[l][static_cast<std::size_t>(i)];
        prev[static_cast<std::size_t>(i)] += d * layer.weights[k];
      }
    }
    delta = std::move(prev);
  }
  return td;
}

/// Accumulates the whole batch into `net` and returns the TD errors.
std::vector<double> accumulate_batch(Mlp& net, const std::vector<std::vector<double>>& xs,
                                     const std::vector<int>& actions,
                                     const std::vector<double>& targets) {
  std::vector<Mlp::Sample> samples;
  for (std::size_t k = 0; k < xs.size(); ++k) samples.push_back({xs[k], actions[k], targets[k]});
  std::vector<double> td(samples.size());
  net.accumulate_gradient(samples, td);
  return td;
}

TEST(Mlp, BlockGradientMatchesPerSampleReference) {
  common::Rng rng(31);
  Mlp net({6, 24, 20, 3}, rng);
  // A few steps first, so the biases are no longer zero.
  const std::vector<double> warm{0.2, -0.4, 0.6, -0.8, 0.1, 0.3};
  for (int i = 0; i < 5; ++i) {
    accumulate_one(net, warm, i % 3, 1.0);
    net.apply_adam(0.01);
  }
  for (int n : {1, 5, 8, 13, 64}) {
    SCOPED_TRACE(n);
    std::vector<std::vector<double>> xs;
    std::vector<int> actions;
    std::vector<double> targets;
    for (int k = 0; k < n; ++k) {
      std::vector<double> x(6);
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
      if (k % 5 == 1) std::fill(x.begin(), x.end(), 0.0);
      if (k % 7 == 3) {
        for (double& v : x) v *= 40.0;  // saturates: most hidden units dead
      }
      const int a = static_cast<int>(rng.index(3));
      double y = rng.uniform(-2.0, 2.0);
      if (k % 4 == 2) y = net.forward(x)[static_cast<std::size_t>(a)];  // TD error 0
      xs.push_back(std::move(x));
      actions.push_back(a);
      targets.push_back(y);
    }

    ReferenceGradient ref = zero_gradient(net);
    std::vector<double> ref_td;
    for (int k = 0; k < n; ++k) {
      ref_td.push_back(reference_accumulate(net, ref, xs[static_cast<std::size_t>(k)],
                                            actions[static_cast<std::size_t>(k)],
                                            targets[static_cast<std::size_t>(k)]));
    }
    EXPECT_GT(ref.dead_units, 0);
    if (n > 2) {
      EXPECT_GT(ref.zero_td, 0);
    }

    const std::vector<double> td = accumulate_batch(net, xs, actions, targets);
    ASSERT_EQ(td.size(), ref_td.size());
    for (std::size_t k = 0; k < td.size(); ++k) EXPECT_EQ(bits(td[k]), bits(ref_td[k])) << k;
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      const Mlp::Layer& layer = net.layers()[l];
      for (std::size_t k = 0; k < layer.grad_w.size(); ++k) {
        ASSERT_EQ(bits(layer.grad_w[k]), bits(ref.w[l][k])) << "layer " << l << " w " << k;
      }
      for (std::size_t k = 0; k < layer.grad_b.size(); ++k) {
        ASSERT_EQ(bits(layer.grad_b[k]), bits(ref.b[l][k])) << "layer " << l << " b " << k;
      }
    }
    net.apply_adam(0.01);  // clears the gradient and moves the weights for the next size
  }
}

TEST(Mlp, ForwardBlockMatchesForward) {
  common::Rng rng(13);
  Mlp net({5, 9, 7, 3}, rng);  // odd widths: a single-output tail, scalar tails
  for (int m = 0; m <= Mlp::kBlock; ++m) {
    SCOPED_TRACE(m);
    std::vector<std::vector<double>> xs;
    for (int k = 0; k < m; ++k) {
      std::vector<double> x(5);
      for (double& v : x) v = rng.uniform(-2.0, 2.0);
      if (k == 2) std::fill(x.begin(), x.end(), 0.0);
      xs.push_back(std::move(x));
    }
    const std::vector<std::span<const double>> inputs(xs.begin(), xs.end());
    std::vector<double> q(static_cast<std::size_t>(m * 3));
    net.forward_block(inputs, q);
    for (int k = 0; k < m; ++k) {
      const std::vector<double> ref = net.forward(xs[static_cast<std::size_t>(k)]);
      for (int o = 0; o < 3; ++o) {
        EXPECT_EQ(bits(q[static_cast<std::size_t>(k * 3 + o)]),
                  bits(ref[static_cast<std::size_t>(o)]));
      }
    }
  }
  const std::vector<double> x(5, 0.1);
  const std::vector<std::span<const double>> too_many(Mlp::kBlock + 1, x);
  std::vector<double> q(too_many.size() * 3);
  EXPECT_THROW(net.forward_block(too_many, q), std::invalid_argument);
}

TEST(Mlp, ApplyAdamWithoutGradIsNoop) {
  common::Rng rng(5);
  Mlp net({2, 4, 2}, rng);
  const std::vector<double> x{0.1, 0.2};
  const auto before = net.forward(x);
  net.apply_adam(0.1);
  EXPECT_EQ(net.forward(x), before);
}

TEST(Mlp, CopyWeightsMakesNetsIdentical) {
  common::Rng r1(1);
  common::Rng r2(2);
  Mlp a({3, 5, 2}, r1);
  Mlp b({3, 5, 2}, r2);
  const std::vector<double> x{0.1, 0.2, 0.3};
  EXPECT_NE(a.forward(x), b.forward(x));
  b.copy_weights_from(a);
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(Mlp, CopyWeightsChecksArchitecture) {
  common::Rng rng(1);
  Mlp a({3, 5, 2}, rng);
  Mlp b({3, 4, 2}, rng);
  EXPECT_THROW(b.copy_weights_from(a), std::invalid_argument);
}

TEST(Mlp, SaveLoadRoundTrip) {
  common::Rng rng(13);
  Mlp net({4, 7, 3}, rng);
  std::stringstream ss;
  net.save(ss);
  const Mlp restored = Mlp::load(ss);
  const std::vector<double> x{0.2, -0.1, 0.8, 0.0};
  const auto a = net.forward(x);
  const auto b = restored.forward(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Mlp, LoadRejectsGarbage) {
  std::stringstream ss("not a network");
  EXPECT_THROW(Mlp::load(ss), std::invalid_argument);
}

}  // namespace
}  // namespace iprism::rl
