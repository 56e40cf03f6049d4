#include "attack/harness.h"

#include <algorithm>

#include "attack/adjacency.h"
#include "attack/community.h"
#include "attack/reidentification.h"
#include "common/str.h"

namespace ksym {

CandidateStats ComputeCandidateStats(const VertexPartition& partition,
                                     uint32_t k) {
  CandidateStats stats;
  stats.cells = partition.NumCells();
  size_t total_vertices = 0;
  for (const auto& cell : partition.cells) {
    if (cell.empty()) continue;
    total_vertices += cell.size();
    if (stats.min_size == 0 || cell.size() < stats.min_size) {
      stats.min_size = cell.size();
    }
    stats.max_size = std::max(stats.max_size, cell.size());
    if (cell.size() < k) stats.under_k_vertices += cell.size();
  }
  if (total_vertices > 0) {
    // Each vertex's candidate set is its own cell, so the per-vertex mean
    // of |C(v)| weights each cell by its size, and the mean of 1/|C(v)|
    // collapses to cells/n — both exact integer ratios.
    double size_sum = 0.0;
    for (const auto& cell : partition.cells) {
      size_sum += static_cast<double>(cell.size()) *
                  static_cast<double>(cell.size());
    }
    stats.mean_size = size_sum / static_cast<double>(total_vertices);
    stats.success_rate = static_cast<double>(stats.cells) /
                         static_cast<double>(total_vertices);
  }
  return stats;
}

std::vector<MeasureAttackRow> EvaluatePassiveAttacks(
    const Graph& release, const VertexPartition& orbits,
    const AttackHarnessOptions& options) {
  std::vector<StructuralMeasure> measures;
  for (uint32_t ell = 1; ell <= options.max_ell; ++ell) {
    measures.push_back(AdjacencyMeasure(ell, options.context));
  }
  measures.push_back(
      CommunityMeasure(options.community_iterations, options.context));

  std::vector<MeasureAttackRow> rows;
  rows.reserve(measures.size());
  for (const StructuralMeasure& measure : measures) {
    const VertexPartition cells = PartitionByMeasure(release, measure);
    MeasureAttackRow row;
    row.name = measure.name;
    row.candidates = ComputeCandidateStats(cells, options.k);
    const ReidentificationStats reid = CompareToOrbits(cells, orbits);
    row.r_f = reid.r_f;
    row.s_f = reid.s_f;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string FormatPassiveSection(const std::vector<MeasureAttackRow>& rows,
                                 uint32_t k) {
  std::string out = StrFormat(
      "passive attacks (candidate sets on the release, k=%u):\n", k);
  out += StrFormat("%-16s %8s %8s %10s %8s %9s %8s %8s %8s\n", "measure",
                   "cells", "min|C|", "mean|C|", "max|C|", "under-k",
                   "success", "r_f", "s_f");
  for (const MeasureAttackRow& row : rows) {
    out += StrFormat("%-16s %8zu %8zu %10.2f %8zu %9zu %8.4f %8.3f %8.3f\n",
                     row.name.c_str(), row.candidates.cells,
                     row.candidates.min_size, row.candidates.mean_size,
                     row.candidates.max_size, row.candidates.under_k_vertices,
                     row.candidates.success_rate, row.r_f, row.s_f);
  }
  return out;
}

std::string FormatSybilSection(const char* label, const SybilPlan& plan,
                               const SybilAttackReport& report) {
  std::string out = StrFormat(
      "sybil attack (%s): %zu embeddings of the %zu-sybil pattern%s, "
      "planted embedding %s\n",
      label, report.embeddings_found, plan.sybils.size(),
      report.truncated ? " [truncated]" : "",
      report.found_planted_embedding ? "found" : "NOT found");

  size_t min_size =
      report.candidate_sets.empty() ? 0 : report.candidate_sets[0].size();
  size_t max_size = 0;
  size_t size_sum = 0;
  for (const auto& candidates : report.candidate_sets) {
    min_size = std::min(min_size, candidates.size());
    max_size = std::max(max_size, candidates.size());
    size_sum += candidates.size();
  }
  const size_t num_targets = report.candidate_sets.size();
  out += StrFormat(
      "  target candidate sets: min %zu, mean %.2f, max %zu\n", min_size,
      num_targets == 0
          ? 0.0
          : static_cast<double>(size_sum) / static_cast<double>(num_targets),
      max_size);
  out += StrFormat(
      "  success probability %.4f, unique re-identifications %zu/%zu\n",
      report.success_probability, report.unique_reidentifications,
      num_targets);
  return out;
}

}  // namespace ksym
