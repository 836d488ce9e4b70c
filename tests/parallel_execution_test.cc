#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/engine.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace {

// ===================================================================
// Batch ingest: InsertAnnotations must report the same per-annotation
// outcome as one-at-a-time InsertAnnotation, at every pool size (the
// pool pipelines the batch's Stage 1; Stage 2 stays sequential).
// Each engine gets its own freshly generated (deterministic) dataset
// because ingestion mutates the store and the ACG.
// ===================================================================

class BatchIngestTest : public ::testing::TestWithParam<size_t> {};

std::vector<AnnotationRequest> MakeRequests(const BioDataset& ds,
                                            size_t count) {
  std::vector<AnnotationRequest> requests;
  for (size_t i = 0; i < ds.workload.annotations.size() && requests.size() < count;
       i += 5) {
    const WorkloadAnnotation& wa = ds.workload.annotations[i];
    if (wa.ideal_tuples.empty()) continue;
    requests.push_back({wa.text, {wa.ideal_tuples.front()}, "tester"});
  }
  return requests;
}

TEST_P(BatchIngestTest, BatchMatchesOneAtATime) {
  auto baseline_ds = GenerateBioDataset(DatasetSpec::Tiny());
  auto batch_ds = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(baseline_ds.ok());
  ASSERT_TRUE(batch_ds.ok());

  NebulaConfig config;
  NebulaEngine sequential(&(*baseline_ds)->catalog, &(*baseline_ds)->store,
                          &(*baseline_ds)->meta, config);
  sequential.RebuildAcg();

  config.num_threads = GetParam();
  NebulaEngine batch(&(*batch_ds)->catalog, &(*batch_ds)->store,
                     &(*batch_ds)->meta, config);
  batch.RebuildAcg();

  const auto requests = MakeRequests(**baseline_ds, 6);
  ASSERT_FALSE(requests.empty());

  std::vector<AnnotationReport> expected;
  for (const AnnotationRequest& r : requests) {
    auto report = sequential.InsertAnnotation(r.text, r.focal, r.author);
    ASSERT_TRUE(report.ok());
    expected.push_back(std::move(report).value());
  }

  auto reports = batch.InsertAnnotations(requests);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), expected.size());

  for (size_t i = 0; i < expected.size(); ++i) {
    const AnnotationReport& e = expected[i];
    const AnnotationReport& a = (*reports)[i];
    EXPECT_EQ(a.annotation, e.annotation);
    EXPECT_EQ(a.mode, e.mode);
    ASSERT_EQ(a.queries.size(), e.queries.size()) << "request " << i;
    for (size_t q = 0; q < e.queries.size(); ++q) {
      EXPECT_EQ(a.queries[q].keywords, e.queries[q].keywords);
      EXPECT_EQ(a.queries[q].weight, e.queries[q].weight);
    }
    ASSERT_EQ(a.candidates.size(), e.candidates.size()) << "request " << i;
    for (size_t c = 0; c < e.candidates.size(); ++c) {
      EXPECT_EQ(a.candidates[c].tuple, e.candidates[c].tuple);
      EXPECT_EQ(a.candidates[c].confidence, e.candidates[c].confidence);
    }
    EXPECT_EQ(a.verification.auto_accepted, e.verification.auto_accepted);
    EXPECT_EQ(a.verification.auto_rejected, e.verification.auto_rejected);
    EXPECT_EQ(a.verification.pending, e.verification.pending);
    EXPECT_EQ(a.verification.already_attached,
              e.verification.already_attached);
    EXPECT_EQ(a.spam.spam_suspected, e.spam.spam_suspected);
  }

  // The side effects on the store must line up too.
  EXPECT_EQ((*batch_ds)->store.num_annotations(),
            (*baseline_ds)->store.num_annotations());
  EXPECT_EQ((*batch_ds)->store.num_attachments(),
            (*baseline_ds)->store.num_attachments());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BatchIngestTest,
                         ::testing::Values(0u, 1u, 2u, 8u));

}  // namespace
}  // namespace nebula
