// Self-test fixture: MB-SNP-004 fingerprint drift. The self-test harness
// synthesizes a stale baseline recording fingerprint 0 for SnapDemo:: at
// this same kSnapshotVersion; the actual stream fingerprint differs, so the
// format changed without a version bump.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

inline constexpr std::uint32_t kSnapshotVersion = 1;

class SnapDemo {
 public:
  template <class Ar> void io(Ar& ar) { ar.u64(ticks_); }
  MB_SNAP_ENTRY_POINTS(, );

 private:
  std::uint64_t ticks_ = 0;
};

}  // namespace fx
