// Empty-dequeue behaviour for every queue, and full-ring refusal for
// the bounded ones (wCQ, the bounded SCQ family: NCQ, CCQ, SCQ, and
// sharded wCQ; FAA, MSQ, LCRQ and LSCQ are unbounded by design — the
// linked-ring queues append a fresh ring/segment instead of refusing),
// plus each backend's configuration bound.
#include <optional>
#include <stdexcept>
#include <string_view>

#include "queue_test_common.hpp"

namespace {

using namespace wcq;
using namespace wcq::test;

// The first options value past each backend's bound. The ring family
// (wCQ, SCQ, NCQ, CCQ, LSCQ) caps order at 20, LCRQ at 30 and FAA's
// seg_order at 20; the sharded lineup splits order over 4 shards. MSQ
// sizes nothing from options, so it has no bound.
std::optional<options> past_bound(std::string_view q) {
  const options o = options{}.max_threads(2);
  if (q == "msq") return std::nullopt;
  if (q == "faa") return options(o).seg_order(21);
  if (q == "lcrq") return options(o).order(31);
  if (q == "sharded-wcq") return options(o).order(23);
  if (q == "sharded-lcrq") return options(o).order(33);
  return options(o).order(21);
}

// Past the bound, construction throws std::invalid_argument instead of
// overflowing a size or a shift; a small order still constructs.
template <concepts::Queue Q>
void test_validation(const char* name) {
  if (const auto bad = past_bound(name)) {
    bool threw = false;
    try {
      Q q(*bad);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    WCQ_CHECK(threw, "%s: options past the bound must throw", name);
  }
  Q q(options{}.max_threads(2).order(4));
  auto h = q.get_handle();
  WCQ_CHECK(q.try_push(7, h), "%s: push on a small queue refused", name);
  const auto v = q.try_pop(h);
  WCQ_CHECK(v && *v == 7, "%s: small queue roundtrip failed", name);
  std::printf("  ok validation        %s\n", name);
}

}  // namespace

int main(int argc, char** argv) {
  auto fn = []<typename A>(const char* tag) {
    test_empty_dequeue<A>(tag);
    test_validation<A>(tag);
  };
  const int rc = for_selected_queues(argc, argv, fn);
  if (rc != 0) return rc;

  if (selected(argc, argv, "wcq")) {
    test_full_ring<harness::WcqAdapter>("wcq");
  }
  if (selected(argc, argv, "wcq-portable")) {
    test_full_ring<harness::WcqPortableAdapter>("wcq-portable");
  }
  if (selected(argc, argv, "scq")) {
    test_full_ring<harness::ScqAdapter>("scq");
  }
  if (selected(argc, argv, "ncq")) {
    test_full_ring<harness::NcqAdapter>("ncq");
  }
  if (selected(argc, argv, "ccq")) {
    test_full_ring<harness::CcqAdapter>("ccq");
  }
  // Round-robin's scan leaves both cursors alone when every shard
  // refuses, so one handle keeps exact FIFO across a full episode.
  if (selected(argc, argv, "sharded-wcq")) {
    test_full_ring<harness::ShardedWcqAdapter>("sharded-wcq");
  }
  return 0;
}
