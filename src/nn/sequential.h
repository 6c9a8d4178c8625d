// Sequential container: an ordered stack of layers trained end-to-end.
// Training and inference share the layers' raw kernels: `forward` keeps
// every activation of the batch in an arena the container owns, which
// `backward` reads in reverse; inference is const and touches neither.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace soteria::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer (builder style). Throws std::invalid_argument on a
  /// null layer.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Reusable per-thread ping-pong arena for infer_into. One Scratch
  /// serves any number of calls on any model; buffers grow on demand
  /// and never shrink.
  struct Scratch {
    std::vector<float> a;
    std::vector<float> b;
  };

  /// Training forward through every layer's forward_into (dropout
  /// draws its masks), keeping the input and each output for backward.
  /// Throws std::logic_error if empty and std::invalid_argument on a
  /// width the layer chain does not accept.
  [[nodiscard]] math::Matrix forward(const math::Matrix& input);

  /// Inference: runs every layer's infer_into kernel over `rows`
  /// row-major rows of `width` floats from `in`, ping-ponging through
  /// `scratch`, and writes rows x output_dimension(width) floats to
  /// `out` (which must not alias `in` or `scratch`). Dropout is free:
  /// it hands its input on untouched. Const, and allocation-free once
  /// `scratch` has grown, so concurrent calls on one model with
  /// per-thread scratch are safe (every scoring path relies on this).
  /// Throws std::logic_error if empty and std::invalid_argument on a
  /// width the layer chain does not accept.
  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out, Scratch& scratch) const;

  /// Matrix convenience over infer_into (no dropout, no training state).
  [[nodiscard]] math::Matrix predict(const math::Matrix& input) const;

  /// Backward pass for the last forward's batch: adds every layer's
  /// parameter gradients and returns d(loss)/d(input). Throws
  /// std::logic_error if no forward ran before (or empty), and
  /// std::invalid_argument unless shaped like that forward's output.
  math::Matrix backward(const math::Matrix& grad_output);

  /// All parameter/gradient pairs, in stable layer order.
  [[nodiscard]] std::vector<ParamRef> parameters();

  /// Zeroes every layer's gradient accumulators.
  void zero_gradients();

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] std::size_t parameter_count() const;

  /// Validates the layer chain for `input_dim`-wide inputs and returns
  /// the output width. Throws std::invalid_argument on any mismatch.
  [[nodiscard]] std::size_t output_dimension(std::size_t input_dim) const;

  /// One line per layer, for logs and model summaries.
  [[nodiscard]] std::string summary() const;

  /// Read-only layer access, for inspecting the trained stack (e.g.
  /// the test oracle's layer-by-layer reference forward pass).
  [[nodiscard]] const std::vector<std::unique_ptr<Layer>>& layers()
      const noexcept {
    return layers_;
  }

  /// Serializes all parameters (binary, with a magic header and per-
  /// tensor sizes). Architecture itself is not stored: load into a model
  /// constructed with the same topology. Throws std::runtime_error on
  /// I/O failure or size mismatch at load.
  void save_parameters(std::ostream& out) const;
  void load_parameters(std::istream& in);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;

  // The last forward's batch, empty until one completes. The grow-only
  // arena holds the input and a slot per layer; activations_[i + 1] is
  // layer i's result (its slot, or its input if it passed it on).
  std::vector<float> arena_;
  std::vector<const float*> activations_;
  std::vector<std::size_t> widths_;  // [0] input, [i + 1] layer i's
  std::size_t batch_rows_ = 0;
};

}  // namespace soteria::nn
