// The one 64-bit hash fold of the library: the refinement trace hash, the
// dynamic layer's content and partition checksums, the adversary models'
// key interning and the sybil search's candidate sets all fold values
// through HashCombine, so one hash quality argument covers them all.

#ifndef KSYM_COMMON_HASH_H_
#define KSYM_COMMON_HASH_H_

#include <cstdint>

namespace ksym {

/// Folds `value` into the running hash `h` (a boost-style combine followed
/// by a murmur3-style multiply and shift, so the low bits depend on every
/// bit of both inputs).
inline uint64_t HashCombine(uint64_t h, uint64_t value) {
  h ^= value + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

}  // namespace ksym

#endif  // KSYM_COMMON_HASH_H_
