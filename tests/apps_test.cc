#include <gtest/gtest.h>

#include "apps/benchmark.h"
#include "apps/gen.h"
#include "hadoop/engine.h"
#include "hadoop/functional_source.h"

namespace hd::apps {
namespace {

using hadoop::ClusterConfig;
using hadoop::FunctionalTaskSource;
using hadoop::JobEngine;
using sched::Policy;

TEST(Registry, EightBenchmarksInTableOrder) {
  const auto& all = AllBenchmarks();
  ASSERT_EQ(all.size(), 8u);
  std::vector<std::string> ids;
  for (const auto& b : all) ids.push_back(b.id);
  EXPECT_EQ(ids, (std::vector<std::string>{"GR", "HS", "WC", "HR", "LR",
                                           "KM", "CL", "BS"}));
}

TEST(Registry, Table2PropertiesMatchPaper) {
  EXPECT_TRUE(GetBenchmark("GR").has_combiner);
  EXPECT_TRUE(GetBenchmark("WC").has_combiner);
  EXPECT_FALSE(GetBenchmark("KM").has_combiner);
  EXPECT_FALSE(GetBenchmark("CL").has_combiner);
  EXPECT_FALSE(GetBenchmark("BS").has_combiner);
  EXPECT_TRUE(GetBenchmark("BS").map_only);
  EXPECT_EQ(GetBenchmark("BS").cluster1.reduce_tasks, 0);
  EXPECT_EQ(GetBenchmark("WC").cluster1.reduce_tasks, 48);
  EXPECT_EQ(GetBenchmark("GR").cluster1.map_tasks, 7632);
  EXPECT_FALSE(GetBenchmark("KM").cluster2.available);
  EXPECT_TRUE(GetBenchmark("GR").io_intensive);
  EXPECT_FALSE(GetBenchmark("BS").io_intensive);
}

TEST(Registry, UnknownIdThrows) {
  EXPECT_THROW(GetBenchmark("XX"), CheckError);
}

TEST(Registry, AllSourcesCompile) {
  for (const auto& b : AllBenchmarks()) {
    EXPECT_NO_THROW({
      gpurt::JobProgram job =
          gpurt::CompileJob(b.map_source, b.combine_source, b.reduce_source);
      EXPECT_TRUE(job.map.map_plan.has_value()) << b.id;
      EXPECT_EQ(job.has_combiner(), b.has_combiner) << b.id;
      EXPECT_EQ(job.reduce == nullptr, b.map_only) << b.id;
    }) << b.id;
  }
}

TEST(Registry, TextureClauseOnClusteringApps) {
  for (const char* id : {"KM", "CL"}) {
    const Benchmark& b = GetBenchmark(id);
    auto job = gpurt::CompileJob(b.map_source, b.combine_source,
                                 b.reduce_source);
    const auto* var = job.map.map_plan->FindVar("centroids");
    ASSERT_NE(var, nullptr) << id;
    EXPECT_EQ(var->cls, translator::VarClass::kTexture) << id;
  }
}

TEST(Generators, DeterministicAndSized) {
  for (const auto& b : AllBenchmarks()) {
    const std::string a = b.generate(4096, 11);
    const std::string c = b.generate(4096, 11);
    EXPECT_EQ(a, c) << b.id;
    EXPECT_GE(static_cast<std::int64_t>(a.size()), 4096) << b.id;
    EXPECT_LT(static_cast<std::int64_t>(a.size()), 4096 + 1024) << b.id;
    EXPECT_EQ(a.back(), '\n') << b.id;
    EXPECT_NE(b.generate(4096, 12), a) << b.id << " seed-insensitive";
  }
}

TEST(Generators, RatingsWellFormed) {
  const std::string data = GenRatings(2048, 3);
  std::istringstream is(data);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string id;
    ls >> id;
    EXPECT_EQ(id[0], 'm');
    int rating, n = 0;
    while (ls >> rating) {
      EXPECT_GE(rating, 1);
      EXPECT_LE(rating, 5);
      ++n;
    }
    EXPECT_GE(n, 1);
    EXPECT_LE(n, 400);
  }
}

TEST(Generators, Points32HaveThirtyTwoFields) {
  const std::string data = GenPoints32(2048, 3);
  std::istringstream is(data);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    double v;
    int n = 0;
    while (ls >> v) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 10.0);
      ++n;
    }
    EXPECT_EQ(n, 32);
  }
}

// --- full pipeline vs golden, per benchmark and policy ----------------------

struct PipelineCase {
  const char* id;
  Policy policy;
};

class BenchmarkPipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(BenchmarkPipeline, ClusterRunMatchesGolden) {
  const auto& [id, policy] = GetParam();
  const Benchmark& bench = GetBenchmark(id);
  gpurt::JobProgram job = gpurt::CompileJob(
      bench.map_source, bench.combine_source, bench.reduce_source);

  std::vector<std::string> splits;
  for (int i = 0; i < 4; ++i) {
    splits.push_back(bench.generate(3000, 100 + i));
  }

  FunctionalTaskSource::Options fopts;
  fopts.num_reducers = bench.map_only ? 0 : 3;
  fopts.gpu.blocks = 2;
  fopts.gpu.threads = 32;
  FunctionalTaskSource source(job, splits, fopts);

  ClusterConfig cluster;
  cluster.num_slaves = 2;
  cluster.map_slots_per_node = 2;
  cluster.reduce_slots_per_node = 2;
  cluster.gpus_per_node = 1;
  cluster.heartbeat_sec = 0.05;
  hadoop::JobResult result = JobEngine(cluster, &source, policy).Run();

  EXPECT_EQ(result.cpu_tasks + result.gpu_tasks, 4);
  if (policy != Policy::kCpuOnly) {
    EXPECT_GT(result.gpu_tasks, 0);
  }
  const std::string diff =
      CompareWithGolden(bench, bench.golden(splits), result.final_output,
                        1e-4);
  EXPECT_EQ(diff, "");
}

std::string CaseName(const ::testing::TestParamInfo<PipelineCase>& info) {
  return std::string(info.param.id) + "_" +
         sched::PolicyName(info.param.policy)[0] +
         std::string(sched::PolicyName(info.param.policy)).substr(1, 2);
}

std::vector<PipelineCase> AllCases() {
  std::vector<PipelineCase> cases;
  for (const auto& b : AllBenchmarks()) {
    for (Policy p : {Policy::kCpuOnly, Policy::kGpuFirst, Policy::kTail}) {
      cases.push_back({b.id.c_str(), p});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkPipeline,
                         ::testing::ValuesIn(AllCases()), CaseName);

// --- single-task behaviour ---------------------------------------------------

TEST(TaskSpeedups, ComputeAppsGainMoreThanIoApps) {
  // Fig. 5's headline shape: single-task GPU speedup grows with compute
  // intensity; BS (most compute-intensive) tops the suite.
  // Use a split large enough that the launched lanes each see several
  // records (a real fileSplit is 256 MB; fixed kernel costs must not
  // dominate).
  auto speedup_of = [](const Benchmark& bench) {
    gpurt::JobProgram job = gpurt::CompileJob(
        bench.map_source, bench.combine_source, bench.reduce_source);
    const std::string split = bench.generate(60000, 5);
    gpusim::CpuConfig cpu = gpusim::CpuConfig::XeonE5_2680();
    gpurt::CpuTaskOptions copts;
    copts.num_reducers = bench.map_only ? 0 : 4;
    auto cpu_r = gpurt::CpuMapTask(job, cpu, copts).Run(split);
    gpusim::GpuDevice device(gpusim::DeviceConfig::TeslaK40());
    gpurt::GpuTaskOptions gopts;
    gopts.num_reducers = bench.map_only ? 0 : 4;
    gopts.blocks = 8;
    gopts.threads = 64;
    auto gpu_r = gpurt::GpuMapTask(job, &device, gopts).Run(split);
    return cpu_r.phases.Total() / gpu_r.phases.Total();
  };
  const double gr = speedup_of(GetBenchmark("GR"));
  const double bs = speedup_of(GetBenchmark("BS"));
  const double cl = speedup_of(GetBenchmark("CL"));
  EXPECT_GT(bs, cl);
  EXPECT_GT(cl, gr);
  EXPECT_GT(bs, 5.0);  // strongly compute-bound
  EXPECT_GT(gr, 0.5);  // GPU never catastrophically loses
}

}  // namespace
}  // namespace hd::apps
