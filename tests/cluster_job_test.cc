#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/models/model_profile.h"
#include "src/strategies/presets.h"
#include "src/train/cluster_job.h"
#include "src/train/trainer.h"

namespace hipress {
namespace {

// A small oversubscribed fat tree where cross-job interference is visible
// but runs stay fast: 8 nodes in 2-host racks, 10 Gbps NICs, 4:1 fabric.
ClusterJobsOptions SmallFatTreeOptions(int nodes, int jobs, int iterations) {
  ClusterJobsOptions options;
  options.cluster = ClusterSpec::Ec2(nodes);
  options.cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
  options.cluster.net.topology.kind = TopologyKind::kFatTree;
  options.cluster.net.topology.oversubscription = 4.0;
  options.cluster.net.topology.hosts_per_tor = 2;
  options.placement = JobPlacement::kStriped;
  for (int k = 0; k < jobs; ++k) {
    ClusterJobSpec spec;
    spec.model = "resnet50";
    spec.system = "hipress-ps";
    spec.algorithm = "onebit";
    spec.iterations = iterations;
    options.jobs.push_back(spec);
  }
  return options;
}

TEST(AssignJobNodesTest, PackedGivesContiguousBlocks) {
  const auto assignment = AssignJobNodes(8, 2, JobPlacement::kPacked);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(assignment[1], (std::vector<int>{4, 5, 6, 7}));
}

TEST(AssignJobNodesTest, StripedRoundRobinsAcrossRacks) {
  const auto assignment = AssignJobNodes(8, 2, JobPlacement::kStriped);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(assignment[1], (std::vector<int>{1, 3, 5, 7}));
}

TEST(ClusterJobTest, RejectsIndivisibleNodeCounts) {
  ClusterJobsOptions options = SmallFatTreeOptions(9, 2, 1);
  EXPECT_FALSE(RunClusterJobs(options).ok());
}

TEST(ClusterJobTest, MultiJobContentionStretchesIterations) {
  // Two striped jobs share every rack's oversubscribed ToR uplink; each
  // job's iteration must be strictly slower than the same-size job running
  // alone on its own slice, and the critical-path send share must show the
  // network (not compute) eating the difference.
  auto solo = RunClusterJobs(SmallFatTreeOptions(4, 1, 2));
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  auto multi = RunClusterJobs(SmallFatTreeOptions(8, 2, 2));
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi->jobs.size(), 2u);
  for (const ClusterJobReport& job : multi->jobs) {
    EXPECT_GT(job.iteration_time, solo->jobs[0].iteration_time)
        << job.name << " shows no cross-job contention";
  }
  EXPECT_GT(multi->jobs[0].send_share, 0.0);
  EXPECT_EQ(multi->steady_sched_pool_misses, 0u);
}

TEST(ClusterJobTest, ReplayFingerprintIsBitStable) {
  const ClusterJobsOptions options = SmallFatTreeOptions(8, 2, 2);
  auto first = RunClusterJobs(options);
  auto second = RunClusterJobs(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->replay_fingerprint, second->replay_fingerprint);
  ASSERT_EQ(first->jobs.size(), second->jobs.size());
  for (size_t k = 0; k < first->jobs.size(); ++k) {
    EXPECT_EQ(first->jobs[k].iteration_end, second->jobs[k].iteration_end);
  }
}

TEST(ClusterJobTest, PlacementChangesTheSchedule) {
  ClusterJobsOptions striped = SmallFatTreeOptions(8, 2, 2);
  ClusterJobsOptions packed = striped;
  packed.placement = JobPlacement::kPacked;
  auto striped_run = RunClusterJobs(striped);
  auto packed_run = RunClusterJobs(packed);
  ASSERT_TRUE(striped_run.ok());
  ASSERT_TRUE(packed_run.ok());
  // Packed jobs keep more traffic rack-local, so the timelines genuinely
  // differ — placement is not a relabeling.
  EXPECT_NE(striped_run->replay_fingerprint, packed_run->replay_fingerprint);
}

TEST(ClusterJobTest, AdaptiveControllersConvergeWithoutFlapping) {
  // Per-job adaptive compression on a contended fabric: controllers may
  // re-plan while measurements settle, but must not oscillate — bounded
  // switches, and no decision churn in the final iterations.
  ClusterJobsOptions options = SmallFatTreeOptions(8, 2, 8);
  for (ClusterJobSpec& spec : options.jobs) {
    spec.adaptive.enabled = true;
    spec.adaptive.candidate_algorithms = {"dgc"};
  }
  auto run = RunClusterJobs(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const ClusterJobReport& job : run->jobs) {
    EXPECT_TRUE(job.adaptive.enabled);
    EXPECT_LE(job.adaptive.codec_switches, 2) << job.name << " flapped";
    // Convergence: every boundary is logged (holds included), but the last
    // two iterations must carry no new actions.
    int late_actions = 0;
    for (const AdaptiveDecision& decision : job.adaptive.decisions) {
      if ((decision.replanned || decision.codec_switched) &&
          decision.iteration >= options.jobs[0].iterations - 2) {
        ++late_actions;
      }
    }
    EXPECT_EQ(late_actions, 0) << job.name << " still churning at the end";
  }
}

// A one-job cluster run goes through the same JobDriver as SimulateTraining,
// so on the same network its per-iteration times must match the trainer's
// exactly — for the CaSync systems and for the BytePS/Horovod baselines
// (4 MB slicing, ordered collectives with per-tensor negotiation) they are
// compared against.
class SoloJobMatchesTrainerTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SoloJobMatchesTrainerTest, PerIterationTimesAreIdentical) {
  constexpr int kIterations = 3;
  const std::string system = GetParam();
  for (const char* model_name : {"resnet50", "vgg19"}) {
    for (const int nodes : {4, 8}) {
      SCOPED_TRACE(std::string(model_name) + " x " + std::to_string(nodes));
      auto model = GetModelProfile(model_name);
      ASSERT_TRUE(model.ok());
      auto config = MakeSystemConfig(system, ClusterSpec::Ec2(nodes));
      ASSERT_TRUE(config.ok()) << config.status();
      TrainOptions train;
      train.iterations = kIterations;
      auto solo = SimulateTraining(*model, *config, train);
      ASSERT_TRUE(solo.ok()) << solo.status();

      ClusterJobsOptions options;
      options.cluster = ClusterSpec::Ec2(nodes);
      options.cluster.net = config->net;
      ClusterJobSpec spec;
      spec.model = model_name;
      spec.system = system;
      spec.iterations = kIterations;
      options.jobs.push_back(spec);
      auto cluster = RunClusterJobs(options);
      ASSERT_TRUE(cluster.ok()) << cluster.status();

      const std::vector<SimTime>& ends = cluster->jobs[0].iteration_end;
      ASSERT_EQ(ends.size(), static_cast<size_t>(kIterations));
      ASSERT_EQ(solo->steps.size(), static_cast<size_t>(kIterations));
      SimTime previous = 0;
      for (int i = 0; i < kIterations; ++i) {
        EXPECT_EQ(ToMillis(ends[i] - previous), solo->steps[i].iteration_ms)
            << "iteration " << i;
        previous = ends[i];
      }
    }
  }
}

std::string SystemTestName(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Systems, SoloJobMatchesTrainerTest,
                         ::testing::Values("hipress-ps", "hipress-ring",
                                           "byteps", "ring", "byteps-oss"),
                         SystemTestName);

}  // namespace
}  // namespace hipress
