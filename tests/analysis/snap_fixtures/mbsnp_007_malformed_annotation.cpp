// Self-test fixture: MB-SNP-007 malformed annotation. The MB_SNAP_TRANSIENT
// on b_ names a real member but gives no reason string — annotations must
// say why the member is legitimately unserialized.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

class BadAnnot {
 public:
  template <class Ar> void io(Ar& ar) { ar.u64(a_); }
  MB_SNAP_ENTRY_POINTS(, );
  void tick() { ++b_; }

 private:
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  MB_SNAP_TRANSIENT(b_);
};

}  // namespace fx
