// Self-test fixture: MB-SNP-008 (warning). The MB_SNAP_ALLOW covers a line
// that produces no MB-SNP-001 finding — the walk has no direction-specific
// wire op — so the suppression is dead weight and should be deleted.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

class CleanAllow {
 public:
  MB_SNAP_ALLOW(MB-SNP-001, "defensive; kept after a refactor");
  template <class Ar> void io(Ar& ar) { ar.u64(x_); }
  MB_SNAP_ENTRY_POINTS(, );

 private:
  std::uint64_t x_ = 0;
};

}  // namespace fx
