#include "host_ref.hpp"

#include <cstdint>
#include <cstdio>
#include <map>

#include "common.hpp"

namespace mbbench {

double hostRefSeconds() {
  const double t0 = nowSeconds();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::map<std::uint64_t, std::uint64_t> m;
  for (int i = 0; i < 50000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x & 0xFFFF] += static_cast<std::uint64_t>(i);
    if (m.size() > 2000) m.erase(m.begin());
  }
  const double secs = nowSeconds() - t0;
  // Keep the work observable so the optimiser cannot drop it.
  if (m.size() == 1) std::fputs("", stdout);
  return secs;
}

}  // namespace mbbench
