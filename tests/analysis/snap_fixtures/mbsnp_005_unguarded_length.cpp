// Self-test fixture: MB-SNP-005 unguarded length-carrying read. io() sizes
// the vector from a raw ar.u64() with no fail() validation — a corrupt
// snapshot drives an unbounded allocation. Both directions still run the
// same ops, so only 005 fires.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>
#include <vector>

namespace fx {

class SampleLog {
 public:
  template <class Ar> void io(Ar& ar) {
    std::uint64_t n = vals_.size();
    ar.u64(n);
    if constexpr (Ar::kLoading) vals_.resize(n);
    for (std::uint32_t& v : vals_) ar.u32(v);
  }
  MB_SNAP_ENTRY_POINTS(, );

 private:
  std::vector<std::uint32_t> vals_;
};

}  // namespace fx
