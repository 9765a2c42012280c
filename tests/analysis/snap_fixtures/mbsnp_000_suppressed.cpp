// Self-test fixture: a genuine MB-SNP-003 (mutated, never walked)
// silenced by a same-line MB_SNAP_ALLOW with a reason — the suppression is
// consumed, so no error and no MB-SNP-008 remain.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

class LazyCache {
 public:
  template <class Ar> void io(Ar& ar) { ar.u64(epoch_); }
  MB_SNAP_ENTRY_POINTS(, );
  void invalidate() { ++epoch_; cached_ = 0; }

 private:
  std::uint64_t epoch_ = 0;
  std::uint64_t cached_ = 0; MB_SNAP_ALLOW(MB-SNP-003, "memo of a pure function of epoch_; repopulated on first use");
};

}  // namespace fx
