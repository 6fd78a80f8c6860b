// DNN model workload profiles (Table 6).
//
// The throughput experiments need, per model: the per-layer gradient sizes
// (count / total / max matching Table 6), per-GPU batch size, and single-GPU
// forward/backward times. Layer lists for VGG19 and the transformer-family
// models follow the real architectures; the remaining models use a
// deterministic generator tuned to reproduce the paper's reported
// statistics (e.g. 62.7% of Bert-base gradients below 16 KB, Section 6.3).
//
// Compute times are calibrated to public V100 fp32 throughput figures of
// the paper's era; the evaluation compares systems against each other on
// identical compute, so only the compute:communication ratio matters, not
// the absolute values.
#ifndef HIPRESS_SRC_MODELS_MODEL_PROFILE_H_
#define HIPRESS_SRC_MODELS_MODEL_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace hipress {

struct ModelProfile {
  std::string name;
  std::string framework;  // DNN system the paper evaluates it on
  // Gradient sizes in bytes, in the order backward produces them
  // (output-side layers first).
  std::vector<uint64_t> gradient_bytes;
  int batch_per_gpu = 32;
  std::string sample_unit = "samples";
  SimTime forward_time_v100 = 0;
  SimTime backward_time_v100 = 0;

  uint64_t total_bytes() const;
  uint64_t max_gradient_bytes() const;
  size_t num_gradients() const { return gradient_bytes.size(); }

  // Time from backward start until gradient i is produced: backward time is
  // apportioned per layer as a fixed share plus a bytes-proportional share.
  SimTime GradientReadyOffset(size_t i, double compute_scale) const;
};

// Models: "vgg19", "resnet50", "ugatit", "ugatit-light", "bert-base",
// "bert-large", "lstm", "transformer".
StatusOr<ModelProfile> GetModelProfile(const std::string& name);
std::vector<std::string> ModelProfileNames();

}  // namespace hipress

#endif  // HIPRESS_SRC_MODELS_MODEL_PROFILE_H_
