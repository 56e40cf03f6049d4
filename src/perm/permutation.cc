#include "perm/permutation.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "perm/union_find.h"

namespace ksym {

Permutation::Permutation(std::vector<VertexId> images)
    : images_(std::move(images)) {
  KSYM_DCHECK(IsValidPermutation(images_));
}

Permutation Permutation::Identity(size_t n) {
  std::vector<VertexId> images(n);
  std::iota(images.begin(), images.end(), 0u);
  return Permutation(std::move(images));
}

bool Permutation::IsIdentity() const {
  for (VertexId x = 0; x < images_.size(); ++x) {
    if (images_[x] != x) return false;
  }
  return true;
}

Permutation Permutation::Compose(const Permutation& other) const {
  KSYM_CHECK(Size() == other.Size());
  std::vector<VertexId> images(Size());
  for (VertexId x = 0; x < images_.size(); ++x) {
    images[x] = other.images_[images_[x]];
  }
  return Permutation(std::move(images));
}

Permutation Permutation::Inverse() const {
  std::vector<VertexId> images(Size());
  for (VertexId x = 0; x < images_.size(); ++x) {
    images[images_[x]] = x;
  }
  return Permutation(std::move(images));
}

std::vector<std::vector<VertexId>> Permutation::Cycles() const {
  std::vector<std::vector<VertexId>> cycles;
  std::vector<bool> seen(Size(), false);
  for (VertexId start = 0; start < Size(); ++start) {
    if (seen[start] || images_[start] == start) continue;
    std::vector<VertexId> cycle;
    VertexId x = start;
    do {
      seen[x] = true;
      cycle.push_back(x);
      x = images_[x];
    } while (x != start);
    cycles.push_back(std::move(cycle));
  }
  return cycles;
}

std::string Permutation::ToCycleString() const {
  const auto cycles = Cycles();
  if (cycles.empty()) return "()";
  std::string out;
  for (const auto& cycle : cycles) {
    out += '(';
    for (size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(cycle[i]);
    }
    out += ')';
  }
  return out;
}

SparsePermutation::SparsePermutation(
    std::vector<std::pair<VertexId, VertexId>> moves)
    : moves_(std::move(moves)) {
  std::sort(moves_.begin(), moves_.end());
#ifndef NDEBUG
  std::vector<VertexId> images;
  for (const auto& [x, image] : moves_) {
    KSYM_DCHECK(x != image);
    images.push_back(image);
  }
  std::sort(images.begin(), images.end());
  for (size_t i = 0; i < images.size(); ++i) {
    KSYM_DCHECK(images[i] == moves_[i].first);
  }
#endif
}

VertexId SparsePermutation::Image(VertexId x) const {
  const auto it = std::lower_bound(
      moves_.begin(), moves_.end(), x,
      [](const std::pair<VertexId, VertexId>& move, VertexId point) {
        return move.first < point;
      });
  return it != moves_.end() && it->first == x ? it->second : x;
}

Permutation SparsePermutation::ToDense(size_t n) const {
  std::vector<VertexId> images(n);
  std::iota(images.begin(), images.end(), 0u);
  for (const auto& [x, image] : moves_) {
    KSYM_CHECK(x < n && image < n);
    images[x] = image;
  }
  KSYM_CHECK(IsValidPermutation(images));
  return Permutation(std::move(images));
}

std::vector<Permutation> ToDense(
    size_t n, const std::vector<SparsePermutation>& sparse) {
  std::vector<Permutation> dense;
  dense.reserve(sparse.size());
  for (const SparsePermutation& g : sparse) dense.push_back(g.ToDense(n));
  return dense;
}

bool IsValidPermutation(const std::vector<VertexId>& images) {
  std::vector<bool> seen(images.size(), false);
  for (VertexId image : images) {
    if (image >= images.size() || seen[image]) return false;
    seen[image] = true;
  }
  return true;
}

bool IsAutomorphism(const Graph& graph, const Permutation& p) {
  if (p.Size() != graph.NumVertices()) return false;
  // A bijection preserves edge counts, so checking E -> E suffices:
  // if every edge maps to an edge and |E| is finite, the map is onto E.
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    const VertexId pu = p.Image(u);
    for (VertexId v : graph.Neighbors(u)) {
      if (u < v && !graph.HasEdge(pu, p.Image(v))) return false;
    }
  }
  return true;
}

std::vector<VertexId> PointOrbits(
    size_t n, const std::vector<Permutation>& generators) {
  UnionFind uf(n);
  for (const Permutation& g : generators) {
    KSYM_CHECK(g.Size() == n);
    for (VertexId x = 0; x < n; ++x) {
      uf.Union(x, g.Image(x));
    }
  }
  // Canonicalize representatives to the orbit minimum.
  std::vector<VertexId> min_of_root(n, kInvalidVertex);
  for (VertexId x = 0; x < n; ++x) {
    const uint32_t r = uf.Find(x);
    if (min_of_root[r] == kInvalidVertex) min_of_root[r] = x;
  }
  std::vector<VertexId> result(n);
  for (VertexId x = 0; x < n; ++x) {
    result[x] = min_of_root[uf.Find(x)];
  }
  return result;
}

}  // namespace ksym
