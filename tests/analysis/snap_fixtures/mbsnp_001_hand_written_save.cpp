// Self-test fixture: MB-SNP-001 hand-written entry point — a save() that
// encodes bytes itself instead of forwarding to an io() walk, so nothing
// ties it to the load side.
// Never compiled — parsed by mbsnapcheck --self-test.
#include <cstdint>

namespace fx {

class WriteOnlyCounter {
 public:
  void save(ckpt::Writer& w) const { w.u64(events_); }
  void bump() { ++events_; }

 private:
  std::uint64_t events_ = 0;
};

}  // namespace fx
