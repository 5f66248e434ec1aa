// Empty-dequeue behaviour for every queue, and full-ring refusal for
// the bounded ones (wCQ, the bounded SCQ family: NCQ, CCQ, SCQ, and
// sharded wCQ; FAA, MSQ, LCRQ and LSCQ are unbounded by design — the
// linked-ring queues append a fresh ring/segment instead of refusing).
#include "queue_test_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::test;
  auto fn = []<typename A>(const char* tag) { test_empty_dequeue<A>(tag); };
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
