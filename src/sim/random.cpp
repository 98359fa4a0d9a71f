#include "sim/random.hpp"

namespace parcoll::sim {

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4)));
}

double uniform01(std::uint64_t h) {
  // Use the top 53 bits for a uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double jitter01(std::uint64_t seed, std::uint64_t stream, std::uint64_t seq) {
  return uniform01(hash_combine(hash_combine(mix64(seed), stream), seq));
}

}  // namespace parcoll::sim
