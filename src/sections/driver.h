// The per-section campaign driver and the incremental recompute loop.
//
// One invocation carves the golden run into sections, diffs their
// fingerprints against a previous composed artifact, re-campaigns only the
// dirty sections, splices clean sections' stored evidence verbatim, and
// assembles a fresh ComposedArtifact.  Experiment outcomes
// are deterministic, so an incremental splice serializes byte-identically
// to a full recompose -- that is the invariant the CI compose job and the
// chaos tests pin.
//
// Each dirty section is one run_campaign_checkpointed call with the
// embedded CheckpointOptions, so a section campaign inherits journal
// resume, supervisor isolation, snapshot serving and SIGTERM drain -- and,
// when ftb_served sets a chunk source, remote execution on ftb_workerd.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/log.h"
#include "sections/compose.h"
#include "sections/section.h"

namespace ftb::sections {

struct SectionCampaignOptions {
  /// Directory for per-section journals ("<stem>.<section>.clog").
  std::string store_dir = ".";
  /// File stem shared by this plan's journals.  Must be non-empty.
  std::string stem;
  /// Labels stamped into the artifact so a recompute job can rebuild the
  /// same program without parsing the config key.
  std::string kernel;
  std::string preset;
  CarveOptions carve;
  /// Treat every section as dirty regardless of fingerprints.
  bool force = false;
  /// How each dirty section's campaign runs: chunk size, backend, chunk
  /// source, thread pool (also used by the evidence pass), telemetry, and
  /// should_stop (also polled between sections; leaves resumable
  /// journals).  The driver sets `path` and `on_progress` per section.
  campaign::CheckpointOptions checkpoint;
  /// Boundary accumulation (Section 3.5 filter) for the evidence pass.
  bool filter = true;
  /// Sites of the exit window (where the section's outgoing error bound is
  /// measured) and the entry window (where its incoming tolerance is read).
  std::uint64_t edge_window = 16;
  /// Streamed per flush of whichever section is running.
  std::function<void(const std::string& section,
                     const campaign::CheckpointProgress&)>
      on_progress;
};

struct SectionCampaignResult {
  ComposedArtifact artifact;         // valid only when !stopped
  std::vector<std::string> dirty;    // sections (re-)campaigned
  std::vector<std::string> reused;   // sections spliced from `previous`
  std::uint64_t executed = 0;        // experiments actually run
  bool stopped = false;              // drained; journals resume next run
};

/// Builds one section's evidence record from its finished journal: outcome
/// tallies, the section-local boundary slice (masked propagation re-runs,
/// Algorithm 1 over the whole trace, then sliced to the section range),
/// the exit-window error bound, and the entry-window tolerance.
SectionRecord build_section_record(const fi::Program& program,
                                   const fi::GoldenRun& golden,
                                   const SectionSpec& spec,
                                   const campaign::CampaignLog& log,
                                   const std::string& journal_stem,
                                   const SectionCampaignOptions& options);

/// Runs (or resumes) the compositional campaign.  `previous` is the last
/// composed artifact for fingerprint diffing; nullptr means full compose.
/// Throws std::invalid_argument on an empty stem or malformed overrides.
SectionCampaignResult run_section_campaigns(
    const fi::Program& program, const fi::GoldenRun& golden,
    const ComposedArtifact* previous, const SectionCampaignOptions& options);

/// Agreement statistics between two boundaries over the same trace, probed
/// with a batch of known-outcome records: the validation surface for
/// composed-vs-monolithic (EXPERIMENTS.md).  Against a monolithic boundary
/// built from the union of the per-section id sets, the composed boundary
/// is pointwise conservative -- each section's accumulator sees a subset of
/// the evidence -- so `composed_optimistic` must be 0 and every common-site
/// delta points the safe way (composed <= monolithic).
struct CompositionCheck {
  std::uint64_t common_informed = 0;   // sites informed by both boundaries
  std::uint64_t composed_only = 0;     // informed by composed only
  std::uint64_t monolithic_only = 0;   // informed by monolithic only
  std::uint64_t composed_optimistic = 0;  // composed threshold > monolithic
  double max_rel_delta = 0.0;  // max relative threshold delta, common sites
  double mean_rel_delta = 0.0;
  std::uint64_t probes = 0;            // probe experiments compared
  std::uint64_t predictions_agree = 0; // both predict the same class

  double agreement() const noexcept {
    return probes ? static_cast<double>(predictions_agree) /
                        static_cast<double>(probes)
                  : 1.0;
  }
};

CompositionCheck compare_boundaries(
    const boundary::FaultToleranceBoundary& composed,
    const boundary::FaultToleranceBoundary& monolithic,
    std::span<const campaign::ExperimentRecord> probe);

}  // namespace ftb::sections
