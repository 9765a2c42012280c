// Self-test fixture: MB-SNP-001 direction-specific wire op. A copy of the
// μbank device-state shape whose lastActAt_ read sits under
// `if constexpr (Ar::kLoading)`: loading reads a field saving never wrote.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

class UbankState {
 public:
  template <class Ar> void io(Ar& ar) {
    ar.u32(openRow_);
    if constexpr (Ar::kLoading) ar.u64(lastActAt_);
    ar.i64(hits_);
  }
  MB_SNAP_ENTRY_POINTS(, );

 private:
  std::uint32_t openRow_ = 0;
  std::uint64_t lastActAt_ = 0;
  std::int64_t hits_ = 0;
};

}  // namespace fx
