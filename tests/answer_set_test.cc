// AnswerSet (the compressed answer-set codec): unit tests for the mode
// machinery plus randomized differential batteries against a std::set
// oracle, exercising both hysteresis boundaries (small<->blocked,
// sparse<->dense) under churn, and the engine-level compression gate on
// dense range answers.

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/answer_set.h"
#include "stq/core/query_processor.h"

namespace stq {
namespace {

std::vector<ObjectId> Contents(const AnswerSet& s) {
  return std::vector<ObjectId>(s.begin(), s.end());
}

TEST(AnswerSetTest, EmptySet) {
  AnswerSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.begin() == s.end());
  EXPECT_GE(s.bytes_resident(), sizeof(AnswerSet));
}

TEST(AnswerSetTest, InsertEraseContains) {
  AnswerSet s;
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(7));  // duplicate
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.erase(7));
  EXPECT_FALSE(s.erase(7));  // already gone
  EXPECT_FALSE(s.contains(7));
  EXPECT_EQ(s.size(), 1u);
}

TEST(AnswerSetTest, IterationAscendingRegardlessOfInsertionOrder) {
  AnswerSet s{9, 2, 500000, 44, 3};
  EXPECT_EQ(Contents(s), (std::vector<ObjectId>{2, 3, 9, 44, 500000}));
}

TEST(AnswerSetTest, PromotesToBlockedAndBack) {
  AnswerSet s;
  // Strided ids so blocks stay sparse.
  for (ObjectId id = 0; id <= AnswerSet::kBlockedPromote; ++id) {
    s.insert(id * 1000);
  }
  EXPECT_EQ(s.size(), AnswerSet::kBlockedPromote + 1);
  std::vector<ObjectId> want;
  for (ObjectId id = 0; id <= AnswerSet::kBlockedPromote; ++id) {
    want.push_back(id * 1000);
  }
  EXPECT_EQ(Contents(s), want);
  // Shrink below the demote threshold; contents must stay exact.
  while (s.size() >= AnswerSet::kBlockedDemote) {
    EXPECT_TRUE(s.erase(want.back()));
    want.pop_back();
  }
  EXPECT_EQ(Contents(s), want);
  for (ObjectId id : want) EXPECT_TRUE(s.contains(id));
}

TEST(AnswerSetTest, DenseBlocksCompress) {
  // One fully dense 512-id block: resident bytes must be far below the
  // 8 bytes/member of a plain sorted vector.
  AnswerSet s;
  for (ObjectId id = 0; id < AnswerSet::kBlockSpan; ++id) s.insert(id);
  EXPECT_EQ(s.size(), AnswerSet::kBlockSpan);
  for (ObjectId id = 0; id < AnswerSet::kBlockSpan; ++id) {
    EXPECT_TRUE(s.contains(id));
  }
  EXPECT_FALSE(s.contains(AnswerSet::kBlockSpan));
  std::vector<ObjectId> got = Contents(s);
  ASSERT_EQ(got.size(), AnswerSet::kBlockSpan);
  for (ObjectId id = 0; id < AnswerSet::kBlockSpan; ++id) {
    EXPECT_EQ(got[id], id);
  }
  EXPECT_LT(s.bytes_resident(), AnswerSet::kBlockSpan * 2);
}

TEST(AnswerSetTest, RangeAndInitializerConstruction) {
  const std::vector<ObjectId> src{5, 1, 5, 9};  // duplicate collapses
  AnswerSet from_range(src.begin(), src.end());
  EXPECT_EQ(from_range.size(), 3u);
  EXPECT_EQ(Contents(from_range), (std::vector<ObjectId>{1, 5, 9}));
  AnswerSet s;
  s.insert(src.begin(), src.end());
  EXPECT_EQ(Contents(s), (std::vector<ObjectId>{1, 5, 9}));
}

TEST(AnswerSetTest, CopyIsDeepAcrossRepresentations) {
  AnswerSet big;
  for (ObjectId id = 0; id < 2000; ++id) big.insert(id);  // blocked, dense
  AnswerSet copy(big);
  EXPECT_EQ(copy.size(), big.size());
  EXPECT_TRUE(copy.erase(1234));
  EXPECT_TRUE(big.contains(1234));  // copy did not alias
  AnswerSet assigned;
  assigned.insert(999999);  // outside big's universe
  assigned = big;
  EXPECT_EQ(assigned.size(), big.size());
  EXPECT_FALSE(assigned.contains(999999));
  AnswerSet moved(std::move(copy));
  EXPECT_EQ(moved.size(), big.size() - 1);
}

TEST(AnswerSetTest, ClearResetsToSmallMode) {
  AnswerSet s;
  for (ObjectId id = 0; id < 1000; ++id) s.insert(id);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.begin() == s.end());
  EXPECT_TRUE(s.insert(3));
  EXPECT_EQ(Contents(s), (std::vector<ObjectId>{3}));
}

TEST(AnswerSetTest, BlockBoundaryIds) {
  // Ids straddling block edges and word edges inside a block.
  const std::vector<ObjectId> edges{0,    63,   64,   511,  512,
                                    1023, 1024, 4095, 4096, 1u << 20};
  AnswerSet s;
  for (ObjectId id : edges) EXPECT_TRUE(s.insert(id));
  for (ObjectId id : edges) EXPECT_TRUE(s.contains(id));
  std::vector<ObjectId> want = edges;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(Contents(s), want);
  for (ObjectId id : edges) EXPECT_TRUE(s.erase(id));
  EXPECT_TRUE(s.empty());
}

// Differential battery: random op program vs std::set, across id ranges
// that force every representation and both hysteresis bands.
TEST(AnswerSetTest, DifferentialVsOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    // Narrow universes make blocks dense; wide ones keep them sparse.
    const ObjectId universe = (seed % 2 == 0) ? 1500 : 2000000;
    AnswerSet s;
    std::set<ObjectId> oracle;
    for (int op = 0; op < 20000; ++op) {
      const ObjectId id = rng() % universe;
      const int kind = static_cast<int>(rng() % 3);
      if (kind == 0) {
        EXPECT_EQ(s.insert(id), oracle.insert(id).second);
      } else if (kind == 1) {
        EXPECT_EQ(s.erase(id), oracle.erase(id) > 0);
      } else {
        EXPECT_EQ(s.contains(id), oracle.count(id) > 0);
      }
      EXPECT_EQ(s.size(), oracle.size());
    }
    EXPECT_EQ(Contents(s),
              std::vector<ObjectId>(oracle.begin(), oracle.end()))
        << "seed " << seed;
  }
}

// Churn exactly at the small<->blocked hysteresis band: repeated
// promote/demote cycles must keep contents exact.
TEST(AnswerSetTest, HysteresisChurn) {
  AnswerSet s;
  std::set<ObjectId> oracle;
  std::mt19937_64 rng(99);
  for (ObjectId id = 0; id < AnswerSet::kBlockedPromote; ++id) {
    s.insert(id * 7);
    oracle.insert(id * 7);
  }
  for (int cycle = 0; cycle < 50; ++cycle) {
    // Push over the promote line...
    for (int i = 0; i < 80; ++i) {
      const ObjectId id = rng() % 100000;
      s.insert(id);
      oracle.insert(id);
    }
    // ...then drain below the demote line.
    while (oracle.size() > AnswerSet::kBlockedDemote - 10) {
      const ObjectId victim = *oracle.begin();
      oracle.erase(oracle.begin());
      EXPECT_TRUE(s.erase(victim));
    }
    ASSERT_EQ(Contents(s),
              std::vector<ObjectId>(oracle.begin(), oracle.end()))
        << "cycle " << cycle;
  }
}

TEST(AnswerSetTest, BytesResidentTracksDensity) {
  // Dense contiguous answer vs the same cardinality scattered: the dense
  // one must be much smaller (bitmap blocks vs sparse offsets).
  AnswerSet dense;
  for (ObjectId id = 0; id < 8192; ++id) dense.insert(id);
  AnswerSet scattered;
  for (ObjectId id = 0; id < 8192; ++id) scattered.insert(id * 1024);
  EXPECT_LT(dense.bytes_resident() * 4, scattered.bytes_resident());
  // And both far below the FlatSet-equivalent footprint (~12B/member at
  // load factor; use the conservative 8B/member raw-id floor).
  EXPECT_LT(dense.bytes_resident(), 8192u * 8u / 4u);
}

// Resident bytes a FlatSet<ObjectId> answer of cardinality `n` would
// hold: power-of-two slots at <= 3/4 load, 8 id bytes + 1 state byte per
// slot (common/flat_hash.h).
size_t FlatSetEquivalentBytes(size_t n) {
  if (n == 0) return 0;
  size_t cap = 8;  // FlatTable::kMinCapacity
  while (n * 4 > cap * 3) cap <<= 1;
  return cap * (sizeof(ObjectId) + 1);
}

// The codec's payoff through the engine: 16 near-universe range queries
// make every answer dense in id space, and the resident answer bytes must
// be at least 2x below the FlatSet-equivalent footprint. It counts bytes,
// so it is deterministic and needs no timing.
TEST(AnswerSetTest, DenseRangeAnswersCompressAtLeastTwofold) {
  constexpr ObjectId kObjects = 20000;
  QueryProcessorOptions options;
  options.grid_cells_per_side = 64;
  QueryProcessor qp(options);
  Xorshift128Plus rng(5150);
  for (ObjectId id = 1; id <= kObjects; ++id) {
    ASSERT_TRUE(
        qp.UpsertObject(id, Point{rng.NextDouble(), rng.NextDouble()}, 0.0)
            .ok());
  }
  for (QueryId qid = 1; qid <= 16; ++qid) {
    ASSERT_TRUE(qp.RegisterRangeQuery(qid, Rect{0.01, 0.01, 0.95, 0.95}).ok());
  }
  (void)qp.EvaluateTick(1.0);
  size_t flatset_bytes = 0;
  qp.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& q) {
    EXPECT_GT(q.answer_size, kObjects / 2) << "query " << q.id;
    flatset_bytes += FlatSetEquivalentBytes(q.answer_size);
  });
  const size_t compressed_bytes = qp.AnswerBytesResident();
  ASSERT_GT(compressed_bytes, 0u);
  EXPECT_LE(compressed_bytes * 2, flatset_bytes)
      << "resident " << compressed_bytes << " B vs FlatSet-equivalent "
      << flatset_bytes << " B";
}

}  // namespace
}  // namespace stq
