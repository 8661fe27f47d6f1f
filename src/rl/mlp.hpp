// Multi-layer perceptron with manual backpropagation and Adam — the Q-value
// function approximator V_theta of the SMC (paper Eq. 9). The paper uses a
// CNN over camera frames; this library's SMC observes an engineered
// feature vector instead (substitution documented in DESIGN.md §2), for
// which an MLP is the appropriate approximator. ReLU hidden layers, linear
// output head sized to the action count.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace iprism::rl {

class Mlp {
 public:
  /// `sizes` = {input, hidden..., output}; at least one hidden layer is not
  /// required but sizes must have >= 2 entries (checked). He-initialized.
  Mlp(const std::vector<int>& sizes, common::Rng& rng);

  /// One affine layer: parameters, the pending gradient and Adam moments.
  struct Layer {
    // Row-major weights[out][in], plus biases[out].
    std::vector<double> weights;
    std::vector<double> biases;
    std::vector<double> grad_w;
    std::vector<double> grad_b;
    // Adam moments.
    std::vector<double> m_w, v_w, m_b, v_b;
    int in = 0, out = 0;
  };

  /// The layers, input side first (read-only: digests and reference checks).
  const std::vector<Layer>& layers() const { return layers_; }

  int input_size() const { return sizes_.front(); }
  int output_size() const { return sizes_.back(); }

  /// Samples per block of the batched kernels (DESIGN.md §15).
  static constexpr int kBlock = 8;

  /// One regression sample: the network input, the action whose output is
  /// trained and its target value.
  struct Sample {
    std::span<const double> input;
    int action = 0;
    double target = 0.0;
  };

  /// Single-sample forward pass, the inference path (thread-compatible:
  /// const, no shared scratch).
  std::vector<double> forward(std::span<const double> input) const;

  /// Forward pass of up to kBlock inputs at once, bit-identical to forward()
  /// on each; writes output o of input k to q[k * output_size() + o]. Uses
  /// this network's block workspace, hence non-const.
  void forward_block(std::span<const std::span<const double>> inputs, std::span<double> q);

  /// Accumulates, sample by sample in order, the gradient of
  /// 0.5 * (f(x)[action] - target)^2 into the pending batch, and writes each
  /// TD error f(x)[action] - target to `td_errors`. Any batch size; it runs
  /// in blocks of kBlock samples, with bits identical to one sample at a time.
  void accumulate_gradient(std::span<const Sample> samples, std::span<double> td_errors);

  /// Applies one Adam step using the accumulated (batch-averaged)
  /// gradients, then clears them. No-op if nothing was accumulated.
  void apply_adam(double learning_rate);

  /// Copies weights (not optimizer state) — target-network sync.
  void copy_weights_from(const Mlp& other);

  /// Plain-text serialization of architecture + weights.
  void save(std::ostream& os) const;
  /// Loads a network previously saved with save() (architecture must be
  /// reconstructible; returns a new network).
  static Mlp load(std::istream& is);

 private:
  explicit Mlp(const std::vector<int>& sizes);  // uninitialized weights, for load()

  /// Runs the block forward: `m` <= kBlock inputs, unit-major, into
  /// ping_[L % 2]. With `keep_rows`, also stores each hidden layer's output
  /// sample-major in rows_ for the backward pass. Returns the output block.
  const double* forward_rows(std::span<const std::span<const double>> inputs, bool keep_rows);
  void accumulate_block(std::span<const Sample> samples, std::span<double> td_errors);

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  // Block workspace, about kBlock * (2 * max width + hidden widths) doubles:
  // two unit-major ping-pong buffers (x[unit * kBlock + sample]), reused as
  // the sample-major deltas of the backward pass, and the sample-major
  // hidden activations rows_[layer input offset + sample * width + unit].
  std::vector<double> ping_[2];
  std::vector<double> rows_;
  std::vector<std::size_t> row_offset_;  // per layer: its input's offset in rows_
  std::vector<const double*> list_rows_;  // live list: one row pointer per term
  std::vector<double> list_coef_;         // live list: one delta per term
  std::size_t grad_count_ = 0;
  long adam_t_ = 0;
};

}  // namespace iprism::rl
