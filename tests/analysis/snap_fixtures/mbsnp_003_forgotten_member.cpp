// Self-test fixture: MB-SNP-003 forgotten member. refreshCount_ is mutated
// by the simulation (onRefresh) but io() never walks it, and it carries no
// MB_SNAP_TRANSIENT annotation.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

class RefreshUnit {
 public:
  template <class Ar> void io(Ar& ar) { ar.u64(nextRefAt_); }
  MB_SNAP_ENTRY_POINTS(, );
  void onRefresh(std::uint64_t tRefi) {
    ++refreshCount_;
    nextRefAt_ += tRefi;
  }

 private:
  std::uint64_t nextRefAt_ = 0;
  std::uint64_t refreshCount_ = 0;
};

}  // namespace fx
