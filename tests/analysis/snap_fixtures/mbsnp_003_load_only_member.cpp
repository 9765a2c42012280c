// Self-test fixture: MB-SNP-003 load-only member. openRowBit_ is rebuilt
// under `if constexpr (Ar::kLoading)` from walked state but never walked
// itself, and carries no MB_SNAP_TRANSIENT annotation declaring it derived.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

class ChannelMirror {
 public:
  template <class Ar> void io(Ar& ar) {
    ar.i64(openRow_);
    if constexpr (Ar::kLoading) openRowBit_ = openRow_ >= 0;
  }
  MB_SNAP_ENTRY_POINTS(, );

 private:
  std::int64_t openRow_ = -1;
  bool openRowBit_ = false;
};

}  // namespace fx
