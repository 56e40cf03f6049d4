#include "ksym/minimal.h"

#include <span>
#include <vector>

#include "ksym/backbone.h"

namespace ksym {
namespace {

// The smallest legal copy unit of a cell: its first component when every
// component is an L(V)-copy of it, otherwise the whole cell.
CopyUnitChooser MinimalUnits(CellCopyClasses& classes) {
  return [&classes](const VertexPartition& initial, uint32_t cell) {
    classes.Classify(initial, cell);
    for (uint32_t c = 1; c < classes.NumComponents(); ++c) {
      // Copying one component would break the symmetry between the others.
      if (classes.CopyOf(c) != 0) return initial.cells[cell];
    }
    const std::span<const VertexId> unit = classes.Members(0);
    return std::vector<VertexId>(unit.begin(), unit.end());
  };
}

}  // namespace

Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options) {
  CellCopyClasses classes(graph);
  return AnonymizeInMemory(graph, &initial, options, MinimalUnits(classes));
}

Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const AnonymizationOptions& options) {
  CellCopyClasses classes(graph);
  return AnonymizeInMemory(graph, nullptr, options, MinimalUnits(classes));
}

}  // namespace ksym
