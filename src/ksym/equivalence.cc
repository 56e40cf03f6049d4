#include "ksym/equivalence.h"

#include <unordered_map>
#include <utility>

#include "aut/search.h"

namespace ksym {
namespace {

// t followed by g: x -> g(t(x)).
Permutation Then(const Permutation& t, const SparsePermutation& g) {
  std::vector<VertexId> images = t.ImageTable();
  for (VertexId& image : images) image = g.Image(image);
  return Permutation(std::move(images));
}

// Orbit transversal rooted at `v`: for every w in v's orbit, a group
// element mapping v to w, built by BFS over the generator action.
std::unordered_map<VertexId, Permutation> OrbitTransversal(
    size_t n, const std::vector<SparsePermutation>& generators, VertexId v) {
  std::unordered_map<VertexId, Permutation> transversal;
  transversal.emplace(v, Permutation::Identity(n));
  std::vector<VertexId> frontier = {v};
  size_t head = 0;
  while (head < frontier.size()) {
    const VertexId x = frontier[head++];
    const Permutation tx = transversal.at(x);
    for (const SparsePermutation& g : generators) {
      const VertexId y = g.Image(x);
      if (!transversal.count(y)) {
        transversal.emplace(y, Then(tx, g));
        frontier.push_back(y);
      }
    }
  }
  return transversal;
}

DistinctImageWitness WitnessFromTransversal(
    const std::unordered_map<VertexId, Permutation>& transversal, VertexId v,
    uint32_t k) {
  DistinctImageWitness witness;
  witness.vertex = v;
  if (transversal.size() < k) return witness;  // |Orb(v)| < k: impossible.
  for (const auto& [image, perm] : transversal) {
    if (image == v) continue;
    witness.automorphisms.push_back(perm);
    if (witness.automorphisms.size() + 1 == k) break;
  }
  return witness;
}

}  // namespace

DistinctImageWitness FindDistinctImageWitness(const Graph& graph, VertexId v,
                                              uint32_t k) {
  KSYM_CHECK(v < graph.NumVertices());
  KSYM_CHECK(k >= 2);
  const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
  return WitnessFromTransversal(
      OrbitTransversal(graph.NumVertices(), aut.generators, v), v, k);
}

bool SatisfiesDistinctImageCharacterization(const Graph& graph, uint32_t k) {
  if (k <= 1) return true;
  const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
  // One transversal per orbit suffices: if the representative admits a
  // witness, so does every member (conjugate the family).
  std::unordered_map<VertexId, bool> orbit_ok;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const VertexId rep = aut.orbit_rep[v];
    auto it = orbit_ok.find(rep);
    if (it == orbit_ok.end()) {
      const auto transversal =
          OrbitTransversal(graph.NumVertices(), aut.generators, rep);
      const DistinctImageWitness witness =
          WitnessFromTransversal(transversal, rep, k);
      const bool ok = VerifyWitness(graph, witness) &&
                      witness.automorphisms.size() + 1 >= k;
      it = orbit_ok.emplace(rep, ok).first;
    }
    if (!it->second) return false;
  }
  return true;
}

bool VerifyWitness(const Graph& graph, const DistinctImageWitness& witness) {
  if (witness.vertex == kInvalidVertex) return false;
  std::vector<VertexId> images = {witness.vertex};
  for (const Permutation& g : witness.automorphisms) {
    if (g.IsIdentity()) return false;
    if (!IsAutomorphism(graph, g)) return false;
    images.push_back(g.Image(witness.vertex));
  }
  for (size_t i = 0; i < images.size(); ++i) {
    for (size_t j = i + 1; j < images.size(); ++j) {
      if (images[i] == images[j]) return false;
    }
  }
  return true;
}

}  // namespace ksym
