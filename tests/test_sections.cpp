// Compositional section-graph inference (src/sections/): carve determinism
// and signature chaining, fingerprint sensitivity, the composed-artifact
// wire format (round-trip plus the test_frame discipline -- every 1-byte
// corruption and every truncation rejected with a diagnostic, never a
// crash), incremental reuse/splice byte-identity, drain/resume, and the
// composed-vs-monolithic tolerance EXPERIMENTS.md states: against a
// monolithic boundary built from the union of the per-section id sets the
// composed boundary is pointwise conservative (0 optimistic sites, 0
// composed-only sites) and agrees on 100% of probe predictions.
#include "sections/driver.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "campaign/campaign.h"
#include "campaign/log.h"
#include "campaign/sample_space.h"
#include "kernels/registry.h"
#include "sections/compose.h"
#include "sections/section.h"
#include "util/thread_pool.h"

namespace ftb::sections {
namespace {

namespace fs = std::filesystem;

struct Prepared {
  explicit Prepared(const std::string& name)
      : program(kernels::make_program(name, kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)),
        pool(2) {}
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  util::ThreadPool pool;
};

/// Fresh empty directory under the system temp dir, removed on destruction.
struct TempDir {
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("ftb_sections_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

SectionCampaignOptions base_options(const Prepared& p, const TempDir& dir,
                                    std::uint64_t batch = 32) {
  SectionCampaignOptions options;
  options.store_dir = dir.path.string();
  options.stem = "t";
  options.kernel = "cg";
  options.preset = "tiny";
  options.carve.batch_per_section = batch;
  options.flush_every = 16;
  options.pool = const_cast<util::ThreadPool*>(&p.pool);
  return options;
}

/// A small hand-built artifact whose serialized form the fuzz tests rot.
/// Values are arbitrary but self-consistent: ranges tile [0, 10) and the
/// slices match the section sizes.
ComposedArtifact sample_artifact() {
  ComposedArtifact artifact;
  artifact.config_key = "demo-kernel-v1";
  artifact.kernel = "demo";
  artifact.preset = "tiny";
  artifact.seed = 7;
  artifact.total_sites = 10;
  SectionRecord a;
  a.spec = {"setup", 0, 4, 0xcbf29ce484222325ull, 0x1111ull, 0xaaaaull, 8};
  a.executed = 8;
  a.masked = 5;
  a.sdc = 3;
  a.exit_bound = 0.25;
  a.entry_tolerance = 1e-6;
  a.journal = "t.setup";
  a.thresholds = {1e-3, 0.0, 2e-2, 5e-1};
  a.exact = {1, 0, 0, 1};
  SectionRecord b;
  b.spec = {"solve", 4, 10, 0x1111ull, 0x2222ull, 0xbbbbull, 12};
  b.executed = 12;
  b.masked = 7;
  b.crash = 2;
  b.hang = 1;
  b.detected = 2;
  b.exit_bound = 1e-4;
  b.entry_tolerance = 3e-2;
  b.journal = "t.solve";
  b.thresholds = {0.0, 1e-5, 4e-2, 0.0, 9e-1, 2e-3};
  b.exact = {0, 1, 1, 0, 0, 1};
  artifact.sections = {a, b};
  return artifact;
}

// ---------------------------------------------------------------------------
// Carving

TEST(Sections, CarveTilesTraceAndChainsSignatures) {
  Prepared p("fft");  // fft tiny carves the most sections of the tiny presets
  const SectionPlan plan =
      carve_sections(p.program->config_key(), p.golden, {});
  ASSERT_GT(plan.sections.size(), 2u);
  EXPECT_EQ(plan.total_sites, p.golden.trace.size());

  std::uint64_t expect_begin = 0;
  for (std::size_t i = 0; i < plan.sections.size(); ++i) {
    const SectionSpec& spec = plan.sections[i];
    EXPECT_EQ(spec.begin, expect_begin) << spec.name;
    EXPECT_GT(spec.end, spec.begin) << spec.name;
    expect_begin = spec.end;
    // The value signatures are positions in one rolling sweep, so each
    // edge's entry signature is its predecessor's exit signature and both
    // equal the trace signature at the cut.
    EXPECT_EQ(spec.entry_sig, trace_signature(p.golden.trace, spec.begin));
    EXPECT_EQ(spec.exit_sig, trace_signature(p.golden.trace, spec.end));
    if (i > 0) {
      EXPECT_EQ(spec.entry_sig, plan.sections[i - 1].exit_sig) << spec.name;
    }
  }
  EXPECT_EQ(expect_begin, plan.total_sites);

  // Names are unique (find() resolves each spec to itself).
  for (const SectionSpec& spec : plan.sections) {
    EXPECT_EQ(plan.find(spec.name), &spec);
  }

  // Re-carving the same golden run is deterministic down to fingerprints.
  const SectionPlan again =
      carve_sections(p.program->config_key(), p.golden, {});
  ASSERT_EQ(again.sections.size(), plan.sections.size());
  for (std::size_t i = 0; i < plan.sections.size(); ++i) {
    EXPECT_EQ(again.sections[i].fingerprint, plan.sections[i].fingerprint);
  }
}

TEST(Sections, BatchOverrideDirtiesExactlyThatSection) {
  Prepared p("cg");
  const SectionPlan base =
      carve_sections(p.program->config_key(), p.golden, {});
  ASSERT_GE(base.sections.size(), 2u);
  const std::string victim = base.sections.back().name;

  CarveOptions options;
  options.batch_overrides = victim + "=96";
  const SectionPlan dirty =
      carve_sections(p.program->config_key(), p.golden, options);
  ASSERT_EQ(dirty.sections.size(), base.sections.size());
  for (std::size_t i = 0; i < base.sections.size(); ++i) {
    if (base.sections[i].name == victim) {
      EXPECT_NE(dirty.sections[i].fingerprint, base.sections[i].fingerprint);
      EXPECT_EQ(dirty.sections[i].batch, 96u);
    } else {
      EXPECT_EQ(dirty.sections[i].fingerprint, base.sections[i].fingerprint)
          << base.sections[i].name;
    }
  }
}

TEST(Sections, UnknownBatchOverrideThrows) {
  Prepared p("cg");
  CarveOptions options;
  options.batch_overrides = "no-such-section=8";
  EXPECT_THROW(carve_sections(p.program->config_key(), p.golden, options),
               std::invalid_argument);
}

TEST(Sections, SampleIdsDeterministicSortedAndInRange) {
  Prepared p("cg");
  const SectionPlan plan =
      carve_sections(p.program->config_key(), p.golden, {});
  for (const SectionSpec& spec : plan.sections) {
    const std::vector<campaign::ExperimentId> ids =
        section_sample_ids(spec, plan.seed);
    EXPECT_EQ(ids.size(), std::min<std::uint64_t>(spec.batch,
                                                  spec.sample_space()));
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::set<campaign::ExperimentId>(ids.begin(), ids.end()).size(),
              ids.size());
    for (const campaign::ExperimentId id : ids) {
      ASSERT_TRUE(campaign::is_classic(id));
      const std::uint64_t site = campaign::site_of(id);
      EXPECT_GE(site, spec.begin) << spec.name;
      EXPECT_LT(site, spec.end) << spec.name;
    }
    EXPECT_EQ(section_sample_ids(spec, plan.seed), ids);
    // A different plan seed draws a different sample.
    EXPECT_NE(section_sample_ids(spec, plan.seed + 1), ids);
  }
}

// ---------------------------------------------------------------------------
// Composed-artifact wire format

TEST(ComposedArtifact, SerializeRoundTrips) {
  const ComposedArtifact artifact = sample_artifact();
  const std::string bytes = serialize(artifact);

  std::string error;
  const auto parsed =
      deserialize_composed(bytes, artifact.config_key, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->config_key, artifact.config_key);
  EXPECT_EQ(parsed->kernel, artifact.kernel);
  EXPECT_EQ(parsed->seed, artifact.seed);
  EXPECT_EQ(parsed->total_sites, artifact.total_sites);
  ASSERT_EQ(parsed->sections.size(), artifact.sections.size());
  EXPECT_EQ(parsed->sections[1].spec.name, "solve");
  EXPECT_EQ(parsed->sections[1].thresholds, artifact.sections[1].thresholds);
  EXPECT_EQ(parsed->sections[1].exact, artifact.sections[1].exact);
  EXPECT_EQ(parsed->sections[0].journal, "t.setup");

  // Re-serializing the parse is byte-identical: the format is canonical,
  // which is what lets incremental splices be compared with cmp.
  EXPECT_EQ(serialize(*parsed), bytes);

  // Config check: a mismatched expectation is rejected, "" skips it.
  EXPECT_FALSE(deserialize_composed(bytes, "other-config", &error));
  EXPECT_NE(error.find("other-config"), std::string::npos);
  EXPECT_TRUE(deserialize_composed(bytes, ""));
}

TEST(ComposedArtifact, ComposeSplicesSlicesAtScaleOne) {
  const ComposedArtifact artifact = sample_artifact();
  // sample_artifact chains solve.entry_sig onto setup.exit_sig, so both
  // sections splice unscaled.
  EXPECT_EQ(artifact.edge_scale(0), 1.0);
  EXPECT_EQ(artifact.edge_scale(1), 1.0);
  const boundary::FaultToleranceBoundary built = artifact.compose();
  ASSERT_EQ(built.sites(), artifact.total_sites);
  EXPECT_EQ(built.threshold(2), 2e-2);
  EXPECT_EQ(built.threshold(4 + 4), 9e-1);
  EXPECT_TRUE(built.is_exact(3));
  EXPECT_FALSE(built.is_exact(1));
}

TEST(ComposedArtifact, BrokenSignatureChainScalesConservatively) {
  ComposedArtifact artifact = sample_artifact();
  // Forge a stale splice: solve's record was built against a different
  // upstream (entry_sig no longer matches setup's exit_sig).  The incoming
  // bound (0.25) exceeds solve's entry tolerance (3e-2), so solve's slice
  // shrinks by tolerance/bound and loses its exact flags.
  artifact.sections[1].spec.entry_sig ^= 1;
  const double scale = artifact.edge_scale(1);
  EXPECT_DOUBLE_EQ(scale, 3e-2 / 0.25);
  const boundary::FaultToleranceBoundary built = artifact.compose();
  EXPECT_DOUBLE_EQ(built.threshold(4 + 4), 9e-1 * scale);
  EXPECT_FALSE(built.is_exact(4 + 1));
  // The first section is never scaled.
  EXPECT_EQ(built.threshold(2), 2e-2);
}

TEST(ComposedArtifact, EveryByteCorruptionRejected) {
  const std::string bytes = serialize(sample_artifact());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string rotted = bytes;
    rotted[i] = static_cast<char>(rotted[i] ^ 0x5a);
    std::string error;
    const auto parsed = deserialize_composed(rotted, "", &error);
    EXPECT_FALSE(parsed.has_value()) << "byte " << i << " xor 0x5a accepted";
    EXPECT_FALSE(error.empty()) << "byte " << i << ": no diagnostic";
  }
}

TEST(ComposedArtifact, EveryTruncationRejected) {
  const std::string bytes = serialize(sample_artifact());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    const auto parsed =
        deserialize_composed(bytes.substr(0, len), "", &error);
    EXPECT_FALSE(parsed.has_value()) << "prefix of " << len << " accepted";
    EXPECT_FALSE(error.empty()) << "prefix of " << len << ": no diagnostic";
  }
}

TEST(ComposedArtifact, TrailingGarbageRejected) {
  std::string bytes = serialize(sample_artifact());
  bytes.push_back('\0');
  std::string error;
  EXPECT_FALSE(deserialize_composed(bytes, "", &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Driver: full compose, incremental reuse, splice byte-identity, drain.

TEST(SectionCampaign, FullComposeThenIncrementalReuseIsByteIdentical) {
  Prepared p("cg");
  TempDir dir("reuse");
  const SectionCampaignOptions options = base_options(p, dir);

  const SectionCampaignResult full =
      run_section_campaigns(*p.program, p.golden, nullptr, options);
  ASSERT_FALSE(full.stopped);
  EXPECT_GT(full.executed, 0u);
  EXPECT_EQ(full.dirty.size(), full.artifact.sections.size());
  EXPECT_TRUE(full.reused.empty());

  // Every section journal landed next to the stem.
  for (const SectionRecord& record : full.artifact.sections) {
    EXPECT_TRUE(fs::exists(dir.path / (record.journal + ".clog")))
        << record.journal;
  }

  // Same config against the previous artifact: nothing is dirty, nothing
  // runs, and the spliced artifact serializes byte-identically.
  const SectionCampaignResult again =
      run_section_campaigns(*p.program, p.golden, &full.artifact, options);
  ASSERT_FALSE(again.stopped);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_TRUE(again.dirty.empty());
  EXPECT_EQ(again.reused.size(), full.artifact.sections.size());
  EXPECT_EQ(serialize(again.artifact), serialize(full.artifact));
}

TEST(SectionCampaign, OneDirtySectionSplicesByteIdenticallyToFullCompose) {
  Prepared p("cg");
  TempDir incremental_dir("incr");
  TempDir fresh_dir("fresh");

  SectionCampaignOptions options = base_options(p, incremental_dir);
  const SectionCampaignResult full =
      run_section_campaigns(*p.program, p.golden, nullptr, options);
  ASSERT_FALSE(full.stopped);
  const std::string victim = full.artifact.sections.back().spec.name;

  // Touch one section's budget: only it re-runs...
  options.carve.batch_overrides = victim + "=48";
  const SectionCampaignResult spliced =
      run_section_campaigns(*p.program, p.golden, &full.artifact, options);
  ASSERT_FALSE(spliced.stopped);
  EXPECT_EQ(spliced.dirty, std::vector<std::string>{victim});
  EXPECT_EQ(spliced.reused.size(), full.artifact.sections.size() - 1);
  EXPECT_EQ(spliced.executed, 48u);

  // ...and the spliced artifact matches a from-scratch full compose of the
  // same configuration byte for byte (same stem, separate directory so the
  // fresh run cannot resume the incremental run's journals).
  SectionCampaignOptions fresh_options = options;
  fresh_options.store_dir = fresh_dir.path.string();
  const SectionCampaignResult fresh =
      run_section_campaigns(*p.program, p.golden, nullptr, fresh_options);
  ASSERT_FALSE(fresh.stopped);
  EXPECT_EQ(fresh.dirty.size(), fresh.artifact.sections.size());
  EXPECT_EQ(serialize(spliced.artifact), serialize(fresh.artifact));
}

TEST(SectionCampaign, DrainLeavesResumableJournalsAndResumesByteIdentically) {
  Prepared p("cg");
  TempDir drained_dir("drain");
  TempDir reference_dir("ref");

  // Drain after the first section finishes: the driver polls should_stop
  // between sections, so the run stops with a partial plan on disk.
  SectionCampaignOptions options = base_options(p, drained_dir);
  int sections_started = 0;
  options.should_stop = [&] { return sections_started++ >= 1; };
  const SectionCampaignResult drained =
      run_section_campaigns(*p.program, p.golden, nullptr, options);
  EXPECT_TRUE(drained.stopped);
  EXPECT_LT(drained.dirty.size(), 3u);

  // Resume without the stop signal: the finished sections' journals are
  // replayed (no experiment re-runs) and the final artifact is
  // byte-identical to a never-interrupted run.
  options.should_stop = nullptr;
  const SectionCampaignResult resumed =
      run_section_campaigns(*p.program, p.golden, nullptr, options);
  ASSERT_FALSE(resumed.stopped);

  SectionCampaignOptions reference_options = base_options(p, reference_dir);
  const SectionCampaignResult reference = run_section_campaigns(
      *p.program, p.golden, nullptr, reference_options);
  ASSERT_FALSE(reference.stopped);
  EXPECT_EQ(serialize(resumed.artifact), serialize(reference.artifact));
  // The resumed run only executed what the drained run had not journaled.
  EXPECT_EQ(drained.executed + resumed.executed, reference.executed);
}

// ---------------------------------------------------------------------------
// Composed vs monolithic: the stated tolerance.

TEST(SectionCampaign, ComposedIsPointwiseConservativeAgainstMonolithic) {
  Prepared p("cg");
  TempDir dir("verify");
  const SectionCampaignOptions options = base_options(p, dir);
  const SectionCampaignResult result =
      run_section_campaigns(*p.program, p.golden, nullptr, options);
  ASSERT_FALSE(result.stopped);
  const boundary::FaultToleranceBoundary composed = result.artifact.compose();

  // Monolithic boundary over the union of the per-section id sets: same
  // experiments, one accumulator.  Sections partition the ids by site, so
  // each per-section accumulator sees a subset of this evidence and the
  // composed boundary must be pointwise conservative.
  const SectionPlan plan =
      carve_sections(p.program->config_key(), p.golden, options.carve);
  std::vector<campaign::ExperimentId> ids;
  for (const SectionSpec& spec : plan.sections) {
    const auto batch = section_sample_ids(spec, plan.seed);
    ids.insert(ids.end(), batch.begin(), batch.end());
  }
  campaign::CampaignLog log(p.program->config_key());
  log.append(campaign::run_experiments(*p.program, p.golden, ids, p.pool));
  log.dedupe();
  const boundary::FaultToleranceBoundary monolithic = campaign::boundary_from_log(
      *p.program, p.golden, log, {options.filter}, p.pool);

  const CompositionCheck check =
      compare_boundaries(composed, monolithic, log.records());
  EXPECT_EQ(check.composed_optimistic, 0u);
  EXPECT_EQ(check.composed_only, 0u);
  EXPECT_GT(check.common_informed, 0u);
  EXPECT_EQ(check.probes, log.records().size());
  EXPECT_DOUBLE_EQ(check.agreement(), 1.0);
}

}  // namespace
}  // namespace ftb::sections
