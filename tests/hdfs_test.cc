#include <gtest/gtest.h>

#include "hdfs/hdfs.h"

namespace hd::hdfs {
namespace {

TEST(Hdfs, PutFileAndReadBack) {
  Hdfs fs(4, HdfsConfig{.block_size = 1024, .replication = 2});
  fs.PutFile("/in", {"split zero", "split one"});
  EXPECT_TRUE(fs.Exists("/in"));
  EXPECT_EQ(fs.NumSplits("/in"), 2);
  EXPECT_EQ(fs.SplitContent("/in", 0), "split zero");
  EXPECT_EQ(fs.SplitContent("/in", 1), "split one");
  EXPECT_TRUE(fs.HasContent("/in"));
  EXPECT_EQ(fs.TotalBytes("/in"), 19);
}

TEST(Hdfs, ReplicationPlacesDistinctNodes) {
  Hdfs fs(5, HdfsConfig{.block_size = 1 << 20, .replication = 3});
  fs.PutFile("/f", {"a", "b", "c", "d"});
  for (int i = 0; i < 4; ++i) {
    const SplitInfo& s = fs.Split("/f", i);
    ASSERT_EQ(s.replicas.size(), 3u);
    std::set<int> uniq(s.replicas.begin(), s.replicas.end());
    EXPECT_EQ(uniq.size(), 3u) << "split " << i;
    for (int r : s.replicas) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 5);
    }
  }
}

TEST(Hdfs, LocalityQuery) {
  Hdfs fs(3, HdfsConfig{.block_size = 64, .replication = 1});
  fs.PutFile("/f", {"a", "b", "c"});
  for (int i = 0; i < 3; ++i) {
    const SplitInfo& s = fs.Split("/f", i);
    EXPECT_TRUE(s.IsLocalTo(s.replicas[0]));
    for (int n = 0; n < 3; ++n) {
      if (n != s.replicas[0]) {
        EXPECT_FALSE(s.IsLocalTo(n));
      }
    }
  }
}

TEST(Hdfs, RoundRobinPrimarySpreadsLoad) {
  Hdfs fs(4, HdfsConfig{.block_size = 64, .replication = 1});
  fs.PutFile("/f", {"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"});
  // 8 splits of 2 bytes over 4 nodes with replication 1: 4 bytes per node.
  for (int n = 0; n < 4; ++n) EXPECT_EQ(fs.NodeUsage(n), 4);
}

TEST(Hdfs, SyntheticFileHasNoContent) {
  Hdfs fs(4, HdfsConfig{});
  fs.PutSyntheticFile("/big", 100, 128 << 20);
  EXPECT_EQ(fs.NumSplits("/big"), 100);
  EXPECT_FALSE(fs.HasContent("/big"));
  EXPECT_THROW(fs.SplitContent("/big", 0), CheckError);
  EXPECT_EQ(fs.TotalBytes("/big"), 100LL * (128 << 20));
}

TEST(Hdfs, DeleteReleasesUsage) {
  Hdfs fs(2, HdfsConfig{.block_size = 64, .replication = 2});
  fs.PutFile("/f", {"abcd"});
  EXPECT_EQ(fs.NodeUsage(0) + fs.NodeUsage(1), 8);
  fs.Delete("/f");
  EXPECT_FALSE(fs.Exists("/f"));
  EXPECT_EQ(fs.NodeUsage(0) + fs.NodeUsage(1), 0);
}

TEST(Hdfs, DuplicatePathRejected) {
  Hdfs fs(2, HdfsConfig{.block_size = 64, .replication = 1});
  fs.PutSyntheticFile("/f", 1, 1);
  EXPECT_THROW(fs.PutSyntheticFile("/f", 1, 1), CheckError);
}

TEST(Hdfs, OversizedSplitRejected) {
  Hdfs fs(2, HdfsConfig{.block_size = 4, .replication = 1});
  EXPECT_THROW(fs.PutFile("/f", {"too large"}), CheckError);
}

TEST(Hdfs, ReplicationBeyondClusterRejected) {
  EXPECT_THROW(Hdfs(2, HdfsConfig{.block_size = 64, .replication = 3}),
               CheckError);
}

TEST(Hdfs, PlacementDeterministicForSeed) {
  Hdfs a(8, HdfsConfig{.block_size = 64, .replication = 3}, 42);
  Hdfs b(8, HdfsConfig{.block_size = 64, .replication = 3}, 42);
  a.PutSyntheticFile("/f", 10, 16);
  b.PutSyntheticFile("/f", 10, 16);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Split("/f", i).replicas, b.Split("/f", i).replicas);
  }
}

}  // namespace
}  // namespace hd::hdfs
