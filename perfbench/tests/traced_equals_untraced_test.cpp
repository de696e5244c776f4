// The traced study re-drive must be the program it claims to measure: at 1x
// its chunks equal run_scale_study's bit for bit, and its stage spans account
// for the traced total.
#include <gtest/gtest.h>

#include "bgpcmp/exec/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace bgpcmp;

TEST(TracedStudy, ChunksBitEqualToTheLibraryStudy) {
  exec::set_thread_count(4);
  const StudyShape shape{1, 0.011, 64, 1};
  const auto world = core::ScaleWorld::make(study_world_config(shape, 5));
  const core::ScaleStudyConfig config = study_config(shape, 5);

  const core::ScaleStudyResult want = core::run_scale_study(*world, config);
  Tracer tracer;
  StudyCounts counts;
  const core::ScaleStudyResult got =
      traced_scale_study(*world, config, tracer, &counts);

  ASSERT_GT(want.chunks.size(), 1u);
  EXPECT_EQ(chunk_mismatches(want, got), 0u);
  EXPECT_EQ(want.fingerprint(), got.fingerprint());
  EXPECT_EQ(want.improvable_traffic_fraction(5.0),
            got.improvable_traffic_fraction(5.0));
  EXPECT_EQ(counts.measurable, want.pair_count());
  EXPECT_EQ(counts.planned, counts.prefixes);

  // One study span holding one chunk span per chunk, each with all five
  // stages; the stages' self time covers nearly all of the study's.
  const Ledger ledger = fold_ledger(tracer.spans());
  EXPECT_EQ(stage(ledger, "study").count, 1u);
  EXPECT_EQ(stage(ledger, "chunk").count, want.chunks.size());
  double covered = 0.0;
  for (const char* name :
       {"traffic.stream", "bgp.warm", "core.plan", "core.measure", "core.fold"}) {
    EXPECT_EQ(stage(ledger, name).count, want.chunks.size()) << name;
    covered += stage(ledger, name).self_s;
  }
  EXPECT_EQ(stage(ledger, "core.plan").items, counts.planned);
  EXPECT_EQ(stage(ledger, "core.measure").items, counts.measurable);
  EXPECT_GT(covered / stage(ledger, "study").wall_s, 0.9);
  exec::set_thread_count(0);
}

TEST(TracedStudy, ChangedInputsAreCaught) {
  // The comparison is not vacuous: another sampling seed moves chunks.
  exec::set_thread_count(4);
  const StudyShape shape{1, 0.011, 64, 1};
  const auto world = core::ScaleWorld::make(study_world_config(shape, 5));
  const auto a = core::run_scale_study(*world, study_config(shape, 5));
  const auto b = core::run_scale_study(*world, study_config(shape, 6));
  EXPECT_GT(chunk_mismatches(a, b), 0u);
  exec::set_thread_count(0);
}

TEST(Ledger, SelfTimeExcludesChildStagesButNotItems) {
  // Hand-built spans: op [0,10] with stage [1,4] and stage [5,9]; the second
  // stage has two overlapping items of 3 s each.
  const std::vector<Span> spans = {
      {"op", 0.0, 10.0, -1, false},
      {"a", 1.0, 4.0, 0, false},
      {"b", 5.0, 9.0, 0, false},
      {"b", 5.0, 8.0, 2, true},
      {"b", 6.0, 9.0, 2, true},
  };
  const Ledger ledger = fold_ledger(spans);
  EXPECT_DOUBLE_EQ(stage(ledger, "op").self_s, 3.0);
  EXPECT_DOUBLE_EQ(stage(ledger, "a").self_s, 3.0);
  EXPECT_DOUBLE_EQ(stage(ledger, "b").self_s, 4.0);
  EXPECT_DOUBLE_EQ(stage(ledger, "b").busy_s, 6.0);
  EXPECT_EQ(stage(ledger, "b").items, 2u);
  EXPECT_DOUBLE_EQ(utilization(ledger, "b", 2), 0.75);
  EXPECT_DOUBLE_EQ(self_share(ledger, "a", 10.0), 0.3);
  EXPECT_EQ(stage(ledger, "missing").count, 0u);
}

}  // namespace
}  // namespace perfbench
